// Write-ahead log for the cloud server's mutating RPCs (DESIGN.md §13).
//
// Logical redo logging in the ARIES tradition (Mohan et al., PAPERS.md):
// every mutating request frame is appended — CRC32-framed and
// length-prefixed — and made durable *before* the server acknowledges the
// mutation. Recovery replays the tail on top of the newest checkpoint;
// because the server's mutation handlers are deterministic functions of
// (state, request), re-execution reproduces both the state and the
// response byte-for-byte.
//
// On-disk format (all little-endian):
//
//   header:  u32 magic "FGWL" | u16 version | u64 epoch
//   record:  u32 payload_len | u32 crc32(payload) | payload
//   payload: u64 lsn | u32 request_len | request bytes
//
// LSNs are globally monotone across epochs (the checkpoint stores the last
// LSN it covers, so replay after an un-truncated checkpoint skips already
// checkpointed records instead of double-applying them). A torn or
// truncated final record — the expected shape of a mid-append crash — ends
// the scan cleanly; anything after the first invalid frame is ignored and
// the file is truncated back to the last valid boundary before appends
// resume.
//
// Group commit: with sync_ms > 0 appends return immediately and a
// background syncer thread fsyncs the batch every sync_ms milliseconds;
// sync_through() blocks an acknowledging handler until its record's bytes
// are on disk. sync_ms == 0 degenerates to fsync-per-append.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/bytes.h"
#include "common/result.h"

namespace fgad::cloud {

// ---- deterministic crash-point harness -------------------------------------
//
// Tests (and, via FGAD_CRASH_AT, a real fgad_server process) arm a site;
// when the durability layer reaches it the installed handler runs. The
// test handler throws CrashError — unwinding abandons all in-flight I/O
// exactly as a kill -9 would, since nothing in the WAL/checkpoint path
// "cleans up" partial on-disk state on unwind.

enum class CrashSite : int {
  kBeforeWalAppend = 0,   // mutation arrived, nothing logged yet
  kAfterWalPreAck = 1,    // record durable + applied, ACK not sent
  kMidCheckpoint = 2,     // checkpoint temp file written, not yet renamed
  kPostRename = 3,        // checkpoint renamed, dir not fsynced, not pruned
  kBeforeGroupFsync = 4,  // commit batch staged (appended), fsync not done
  kCount = 5,
};

const char* crash_site_name(CrashSite s);

/// Thrown by the default test handler installed via CrashPoint::arm_throw.
struct CrashError {
  CrashSite site;
};

class CrashPoint {
 public:
  static CrashPoint& instance();

  using Handler = std::function<void(CrashSite)>;

  /// Installs `h` to run when `site` fires; null disarms the site.
  void set_handler(CrashSite site, Handler h);
  /// Arms `site` with a handler that throws CrashError{site}.
  void arm_throw(CrashSite site);
  /// Disarms every site.
  void reset();

  /// Called by the durability layer at each site; near-free when unarmed.
  void fire(CrashSite site);

  /// Parses "site[:n]" (site name or index; n = fire on the n-th hit,
  /// default 1) and arms a handler that _exit(42)s the process — the
  /// fgad_server FGAD_CRASH_AT hook for integration tests.
  Status arm_process_exit(const std::string& spec);

 private:
  CrashPoint() = default;

  std::mutex mu_;
  Handler handlers_[static_cast<int>(CrashSite::kCount)];
  std::atomic<bool> armed_[static_cast<int>(CrashSite::kCount)] = {};
};

// ---- the log ---------------------------------------------------------------

class Wal {
 public:
  struct Options {
    // <0: never fsync (bench-only); 0: fsync on every append before it
    // returns; >0: group-commit window in milliseconds.
    int sync_ms = 0;
  };

  /// One decoded record, handed to the replay callback.
  struct Record {
    std::uint64_t lsn = 0;
    Bytes request;
  };

  /// Result of scanning an existing log file.
  struct ScanResult {
    std::uint64_t epoch = 0;
    std::size_t records = 0;       // valid records seen
    std::uint64_t max_lsn = 0;     // largest LSN among them
    std::uint64_t valid_end = 0;   // byte offset of the last valid frame end
    bool torn_tail = false;        // trailing garbage/torn record detected
  };

  /// Creates a fresh log at `path` (truncating any existing file), writes
  /// the header durably, and fsyncs the parent directory.
  static Result<std::unique_ptr<Wal>> create(const std::string& path,
                                             std::uint64_t epoch,
                                             Options opts);

  /// Reads every valid record of `path` in order, invoking `fn` for each;
  /// tolerates a torn/truncated tail. kIoError when the file cannot be
  /// read, kDecodeError when the header itself is invalid.
  static Result<ScanResult> scan(
      const std::string& path, const std::function<void(const Record&)>& fn);

  /// Reopens `path` for appending after a scan: truncates to
  /// `scan.valid_end` (discarding any torn tail) and positions at the end.
  static Result<std::unique_ptr<Wal>> reopen(const std::string& path,
                                             const ScanResult& scan,
                                             Options opts);

  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Appends one record (write(2), not yet durable unless sync_ms == 0).
  /// Returns a ticket for sync_through()/sync_to(). With `defer_sync`
  /// the sync_ms == 0 inline fsync is skipped — the record is *staged*
  /// and the caller (the cross-connection group committer) is
  /// responsible for making it durable via sync_to() before anything is
  /// acknowledged on its strength.
  Result<std::uint64_t> append(std::uint64_t lsn, BytesView request,
                               bool defer_sync = false);

  /// Blocks until every byte up to `ticket` is fsynced (no-op when
  /// sync_ms <= 0 or already durable).
  Status sync_through(std::uint64_t ticket);

  /// Immediately fsyncs through `ticket` on the caller's thread,
  /// regardless of the sync_ms window mode (no-op when sync_ms < 0 —
  /// durability disabled — or already durable). One call covers every
  /// record staged at or below the ticket: this is the group-commit
  /// flush primitive.
  Status sync_to(std::uint64_t ticket);

  /// fsyncs everything appended so far.
  Status sync_now();

  std::uint64_t epoch() const { return epoch_; }
  const std::string& path() const { return path_; }
  std::uint64_t appended_bytes() const;
  /// Bytes known fsynced (the durable prefix of the ticket space).
  std::uint64_t durable_bytes() const;

 private:
  Wal(std::string path, int fd, std::uint64_t epoch, std::uint64_t size,
      Options opts);

  void syncer_loop();
  /// Makes every byte up to `upto` durable. `lock` holds mu_ on entry and
  /// exit but not during the fsync itself.
  Status sync_upto(std::unique_lock<std::mutex>& lock, std::uint64_t upto);

  const std::string path_;
  const std::uint64_t epoch_;
  const Options opts_;
  int fd_ = -1;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t written_ = 0;   // bytes appended (ticket space)
  std::uint64_t durable_ = 0;   // bytes known fsynced; never decreases
  Status sync_error_ = Status::ok();  // first fsync failure, sticky
  bool stop_ = false;
  std::thread syncer_;
};

}  // namespace fgad::cloud
