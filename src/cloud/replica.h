// Primary–backup WAL replication (DESIGN.md §18).
//
// The primary streams every WAL record to one follower over the normal
// wire protocol (proto::ReplAppend / ReplSnapshot / ReplHeartbeat, each
// answered by a ReplAck). Records are staged into the Replicator at WAL
// append time — under the same lock that orders the append, so the
// replication stream sees the exact LSN order of the log — and a
// dedicated ship thread batches whatever accumulated, mirroring the
// GroupCommitter's natural batching: the network round trip to the
// follower runs in parallel with the local fsync.
//
// One contract: a mutation is ACKed only once it is durable on the
// primary's disk and on the follower's. The group-commit flush gates every
// client ACK on the follower's durable ack (wait_acked); while the
// follower is unreachable, commits answer kTimeout and a key-rotating
// commit leaves the client's handle for Client::resync to settle.
//
// Split-brain fencing: every replication message carries a monotonic
// term, persisted in checkpoints. A promoted backup bumps its term (and
// checkpoints immediately, making the bump durable); the demoted
// primary's next append is rejected with kStaleTerm, at which point it
// demotes itself and starts answering clients with kNotPrimary so the
// failover channel re-routes them.
//
// Catch-up: when log shipping cannot bridge the follower's position
// (fresh follower, lost disk, or the primary's bounded ship queue
// overflowed while the link was down), the primary ships a full
// checkpoint image (ReplSnapshot) and resumes appends on top of it.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "common/bytes.h"
#include "common/result.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "proto/messages.h"

namespace fgad::cloud {

enum class ReplRole : std::uint8_t { kBackup = 0, kPrimary = 1 };
/// Selects nothing (every ACK waits for the follower); perfbench names it.
enum class ReplAckMode : std::uint8_t { kSync };

const char* repl_role_name(ReplRole r);

// Shared gauges: set by DurableServer (role/term) and the Replicator
// (lag); read by /readyz and fgad_mon.
obs::Gauge& repl_role_gauge();
obs::Gauge& repl_term_gauge();
obs::Gauge& repl_lag_bytes_gauge();
obs::Gauge& repl_lag_records_gauge();

/// Primary-side WAL shipper. Owns the connection to the follower and a
/// bounded queue of staged records; a single ship thread drains the
/// queue in batches, sends heartbeats when idle, and falls back to
/// checkpoint shipping when the follower reports a gap.
class Replicator {
 public:
  /// Produces a fresh channel to the follower (invoked on every
  /// (re)connect, so the follower's address is re-resolved each time).
  using Dialer = std::function<Result<std::unique_ptr<net::RpcChannel>>()>;
  /// Builds a consistent checkpoint image for catch-up (locks the
  /// durable server; the snapshot's last_lsn fences which queued
  /// records become redundant).
  using SnapshotSource = std::function<Result<proto::ReplSnapshot>()>;
  /// Invoked once when the follower fences us off (kStaleTerm): the
  /// durable server demotes itself and starts refusing client traffic.
  using DemoteHook = std::function<void(std::uint64_t observed_term)>;

  struct Options {
    // Selects nothing (see ReplAckMode); perfbench sets it.
    ReplAckMode mode = ReplAckMode::kSync;
    int heartbeat_ms = 500;       // idle heartbeat cadence
    int sync_timeout_ms = 5000;   // wait_acked() bound
    int redial_backoff_ms = 50;   // doubles up to max_backoff_ms
    int max_backoff_ms = 1000;
    std::size_t max_batch_records = 256;
    // Staged-but-unshipped bytes past this drop the queue and force a
    // snapshot ship instead (bounds memory while the link is down).
    std::size_t max_queue_bytes = 64ull * 1024 * 1024;
  };

  Replicator(Dialer dialer, Options opts);
  ~Replicator();
  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  /// Wiring; must be called before start().
  void set_snapshot_source(SnapshotSource source);
  void set_demote_hook(DemoteHook hook);
  void set_term(std::uint64_t term);

  void start();
  void stop();

  /// Stages one appended WAL record for shipping. Called under the
  /// DurableServer dispatch lock, so LSNs arrive strictly increasing.
  void stage(std::uint64_t term, std::uint64_t lsn, BytesView request);

  /// Blocks until the follower has durably acknowledged `lsn` (the
  /// committer's gate). Fails with kTimeout after sync_timeout_ms, with
  /// kStaleTerm once fenced, and with kIoError after stop().
  Status wait_acked(std::uint64_t lsn);

  std::uint64_t acked_lsn() const;
  std::uint64_t staged_lsn() const;
  std::uint64_t pending_bytes() const;
  bool demoted() const;
  const Options& options() const { return opts_; }

 private:
  struct Staged {
    std::uint64_t term = 0;
    std::uint64_t lsn = 0;
    Bytes request;
  };

  void loop();
  /// One connected round trip; resets the channel on transport failure
  /// and flips demoted_ on a kStaleTerm rejection.
  Result<proto::ReplAck> roundtrip(const Bytes& frame);
  bool ship_batch();     // returns false when the loop should back off
  bool ship_snapshot();  // same
  void handle_ack(const proto::ReplAck& ack, std::uint64_t shipped_through);
  void fence(std::uint64_t observed_term);

  Dialer dialer_;
  Options opts_;
  SnapshotSource snapshot_source_;
  DemoteHook demote_hook_;

  // Touched only by the ship thread (and by stop() once it has joined).
  std::unique_ptr<net::RpcChannel> channel_;

  mutable std::mutex mu_;
  std::condition_variable cv_;        // wakes the ship thread
  std::condition_variable acked_cv_;  // wakes wait_acked callers
  std::deque<Staged> queue_;
  std::uint64_t term_ = 0;
  std::uint64_t staged_lsn_ = 0;   // highest lsn ever staged
  std::uint64_t acked_lsn_ = 0;    // follower's durable high-water mark
  std::uint64_t queue_bytes_ = 0;  // payload bytes currently queued
  bool need_snapshot_ = false;
  bool demoted_ = false;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace fgad::cloud
