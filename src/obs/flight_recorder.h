// Forensic flight recorder (DESIGN.md §14).
//
// A process-wide, fixed-size ring buffer of recent structured events —
// RPC start/end, WAL append/fsync LSNs, checkpoint begin/commit, retry
// redials, injected faults, crash-point firings — kept cheap enough to
// stay on in production and dumped when something dies so a post-mortem
// can reconstruct the exact sequence that preceded the failure.
//
// Design constraints, in order:
//   1. record() is lock-free and allocation-free: one relaxed fetch-add
//      claims a slot, relaxed stores fill it, a release store of the
//      sequence number publishes it. Concurrent writers never block; a
//      reader that races a wrapping writer detects the torn slot by its
//      sequence number and skips it.
//   2. Dumping must work from a crashing process: dump_fd() and
//      dump_auto() use only async-signal-safe calls (loads, write(2),
//      open(2), clock_gettime) and format numbers by hand — no malloc,
//      no stdio, no locks. That is what lets the SIGSEGV/SIGABRT/SIGBUS
//      handlers produce evidence on the way down.
//
// Dump format (text, one event per line, oldest first, parseable as
// key=value fields):
//
//   # fgad-flight-recorder v1 reason=sigsegv pid=123 recorded=900
//   #   dropped=388 capacity=512
//   seq=389 ts_ns=171819 type=wal-append rid=00a1b2c3d4e5f607 a=17 b=96
//
// `a` and `b` are event-specific (see FrEvent): the WAL LSN and record
// bytes for kWalAppend, the checkpoint epoch for kCheckpoint*, the
// attempt number for kRetry*, and so on.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"

namespace fgad::obs {

enum class FrEvent : std::uint16_t {
  kRpcStart = 0,     // a = message type ordinal
  kRpcEnd = 1,       // a = message type ordinal, b = duration ns
  kWalAppend = 2,    // a = LSN, b = record bytes
  kWalFsync = 3,     // a = durable byte offset, b = fsync duration ns
  kCheckpointBegin = 4,   // a = new epoch
  kCheckpointCommit = 5,  // a = new epoch, b = checkpoint bytes
  kRecoveryBegin = 6,     // a = newest checkpoint epoch found
  kRecoveryEnd = 7,       // a = records replayed, b = records skipped
  kRetryDial = 8,         // a = attempt number
  kRetryResend = 9,       // a = attempt number
  kRetryExhausted = 10,   // a = attempts made
  kFaultInjected = 11,    // a = fault kind (FaultInjectingChannel order)
  kCrashPoint = 12,       // a = CrashSite ordinal
  kFsckFail = 13,
  kDedupHit = 14,
  kMark = 15,             // free-form test/tooling marker
  kGroupCommitFlush = 16,  // a = commit batch size, b = fsync duration ns
  kSloBreach = 17,         // a = objective index, b = short burn ×1000
  kReplShip = 18,          // a = records shipped, b = follower acked lsn
  kReplSnapshotShip = 19,  // a = image bytes, b = snapshot last lsn
  kReplRoleChange = 20,    // a = new role (0 backup, 1 primary), b = term
  kSpanDropped = 21,       // rid = evicted trace's rid (TraceStore eviction)
};

/// Stable short name ("wal-append", ...) for dump lines and JSON.
const char* fr_event_name(FrEvent e);

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;
  static constexpr std::size_t kMaxDumpDir = 512;

  static FlightRecorder& instance();

  /// One published event, as read back by snapshot().
  struct Event {
    std::uint64_t seq = 0;
    std::uint64_t ts_ns = 0;
    std::uint64_t rid = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    FrEvent type = FrEvent::kMark;
  };

  /// Resizes the ring (rounded up to a power of two, min 8) and resets
  /// the recorded/dropped accounting. Concurrent record() calls stay
  /// safe — a ring that might still have in-flight writers is retired,
  /// not freed, until process exit. Intended for startup and tests.
  void configure(std::size_t capacity);

  /// Directory for dump_auto() files ("" disables automatic dumps).
  /// Stored in a fixed buffer so the crash handler needs no allocation;
  /// paths longer than kMaxDumpDir-1 are rejected.
  Status set_dump_dir(const std::string& dir);
  bool dump_dir_set() const {
    return dump_dir_len_.load(std::memory_order_acquire) > 0;
  }

  /// The hot path: claims a slot and publishes one event.
  void record(FrEvent type, std::uint64_t rid, std::uint64_t a = 0,
              std::uint64_t b = 0);

  std::size_t capacity() const;
  /// Events ever recorded (monotone).
  std::uint64_t recorded() const;
  /// Events overwritten by wraparound (recorded - capacity, floored at 0).
  std::uint64_t dropped() const;

  /// Copies the currently readable events, oldest first, skipping slots
  /// torn by a racing writer. Not signal-safe (allocates).
  std::vector<Event> snapshot() const;

  /// Async-signal-safe text dump of the ring to `fd` (format above).
  /// `reason` must be a literal or otherwise signal-safe C string.
  void dump_fd(int fd, const char* reason) const;

  /// Opens `path` (O_CREAT|O_TRUNC) and dump_fd()s into it. Signal-safe.
  /// Returns false when the file cannot be opened.
  bool dump_to_path(const char* path, const char* reason) const;

  /// Writes "<dump_dir>/flightrecorder-<reason>-<pid>-<unix_ns>.dump".
  /// Signal-safe; no-op returning false when no dump dir is set. On
  /// success copies the path into `path_out` (if non-null, capacity
  /// `path_cap`) for logging by the caller.
  bool dump_auto(const char* reason, char* path_out = nullptr,
                 std::size_t path_cap = 0) const;

  /// {"capacity":..,"recorded":..,"dropped":..,"events":[...]}; served at
  /// GET /flightrecorder.json. Not signal-safe.
  std::string render_json() const;

  /// Refreshes fgad_flight_recorder_{capacity,recorded,dropped} gauges in
  /// the metrics registry (called before every exposition render).
  void publish_metrics() const;

  /// Installs SIGSEGV/SIGABRT/SIGBUS handlers that dump_auto("sig...")
  /// to stderr-logged files and then re-raise with the default action,
  /// and a SIGUSR2 handler that dumps on demand. Idempotent.
  static void install_crash_handlers();

 private:
  FlightRecorder();

  struct Slot {
    // pub holds seq+1 with release ordering once the slot is readable;
    // 0 while empty or mid-write.
    std::atomic<std::uint64_t> pub{0};
    std::atomic<std::uint64_t> ts_ns{0};
    std::atomic<std::uint64_t> rid{0};
    std::atomic<std::uint64_t> a{0};
    std::atomic<std::uint64_t> b{0};
    std::atomic<std::uint16_t> type{0};
  };

  /// Ring + its mask published as one pointer so a writer can never pair
  /// a stale ring with a fresh mask (or vice versa) across configure().
  struct Ring {
    explicit Ring(std::size_t cap) : mask(cap - 1), slots(new Slot[cap]) {}
    const std::size_t mask;  // capacity - 1 (capacity is 2^k)
    std::unique_ptr<Slot[]> slots;
  };

  std::atomic<Ring*> ring_{nullptr};
  std::atomic<std::uint64_t> next_{0};

  char dump_dir_[kMaxDumpDir] = {};
  std::atomic<std::size_t> dump_dir_len_{0};
};

}  // namespace fgad::obs
