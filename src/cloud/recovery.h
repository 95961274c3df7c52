// Crash-consistent hosting of a CloudServer: checkpoints + WAL replay +
// rid-keyed exactly-once semantics (DESIGN.md §13).
//
// DurableServer wraps CloudServer::handle with the durability discipline
// the paper's assured-deletion guarantee needs to survive ungraceful
// shutdowns: a mutation is WAL-logged and fsynced before it is
// acknowledged, the server is checkpointed atomically every N mutations
// (snapshot under the dispatch lock, then temp -> fsync -> rename -> fsync
// dir off it), and startup recovers by loading the newest valid checkpoint
// and replaying the WAL tail. A checkpoint is either a full image or a
// delta against the newest durable full image, its base: the files and
// ciphertexts that changed since the base was taken.
//
// Every mutation is applied under one dispatch mutex, in LSN order. An
// outsource's apply grows with the file, so a primary builds the file
// (CloudServer::build_file) before it takes the mutex; under it only the
// dedup check, the WAL append, the replication stage and the install into
// the file map remain. The backup stream and replay build inside the apply.
//
// Exactly-once: a mutating request that arrives in a tagged envelope is
// deduplicated by its exactly-once key (the request id, mixed with the
// span id when the request carries one). The dedup table — a bounded FIFO
// of (key -> inner reply) — is persisted in every checkpoint and rebuilt
// by WAL replay, so a client that resends a mutation after a timeout, a
// connection reset, *or a server crash* gets the original reply back,
// sealed for the resend, instead of double-folding deletion deltas. This
// is what lets proto::retryable_request approve tagged mutations for
// net::FailoverChannel.
//
// State directory layout:
//   checkpoint-<epoch>.ckpt   atomic snapshots, full or delta (the newest
//                             one whose chain - a delta and its base -
//                             reads back wins). Kept: the newest, its
//                             base, and a fallback full image that does
//                             not depend on that base.
//   wal-<epoch>.log           records logged after snapshot <epoch> was
//                             taken, kept from the fallback's epoch on
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cloud/replica.h"
#include "cloud/server.h"
#include "cloud/wal.h"
#include "proto/wire.h"

namespace fgad::cloud {

/// The exactly-once key of a tagged mutation (DESIGN.md §13): its request
/// id, mixed with its span id when that is nonzero. Every RPC of a trace
/// carries the trace's rid but a span id of its own, and a resend repeats
/// the frame, so the key names one RPC. 0 for an untagged request (rid 0).
std::uint64_t exactly_once_key(std::uint64_t rid, std::uint64_t span_id);

/// Bounded FIFO map: exactly-once key -> the inner (unsealed) reply
/// produced the first time the mutation was applied. Deterministic (no
/// per-attempt timings, insertion-ordered eviction), so the table is
/// byte-identical on the primary, the backup and replay.
class RidDedup {
 public:
  explicit RidDedup(std::size_t capacity = 4096) : capacity_(capacity) {}

  /// The cached reply for `key`, or nullptr.
  const Bytes* find(std::uint64_t key) const;
  /// Records a reply; evicts the oldest entry past capacity. Key 0
  /// (untagged) is never stored.
  void put(std::uint64_t key, Bytes response);

  std::size_t size() const { return order_.size(); }

  void serialize(proto::Writer& w) const;
  /// Also loads tables stored with sealed replies: each is unwrapped and
  /// re-keyed by the span id it echoes.
  Status deserialize(proto::Reader& r);

 private:
  std::size_t capacity_;
  std::deque<std::uint64_t> order_;
  std::unordered_map<std::uint64_t, Bytes> by_rid_;
};

/// Invariant verifier run after every recovery (and on demand): left-
/// complete tree shape, item <-> leaf linkage in both directions, and a
/// from-scratch recomputation of each file's integrity root.
Status fsck(const CloudServer& server);

/// Cross-connection WAL group commit (DESIGN.md §15).
///
/// Mutation handlers stage their WAL append (Wal::append) and park the
/// pending acknowledgement here as a commit ticket + release callback.
/// The committer thread swaps out the whole stage, performs ONE fsync
/// covering its highest ticket (Wal::sync_to), and releases every parked
/// response in one wake — so one disk flush amortizes over however many
/// mutations arrived while the previous flush was in progress. Batching
/// is natural, not timed: an idle server still gets fsync-per-mutation
/// latency, a loaded one gets batches.
class GroupCommitter {
 public:
  /// Invoked exactly once per enqueue, after the entry's bytes are
  /// durable (or with the fsync error). May run on the committer thread
  /// or inline in enqueue() after shutdown.
  using Release = std::function<void(Status)>;

  GroupCommitter();
  ~GroupCommitter();
  GroupCommitter(const GroupCommitter&) = delete;
  GroupCommitter& operator=(const GroupCommitter&) = delete;

  /// Parks one staged append: `ticket` is the Wal::append return value on
  /// `wal`, `lsn` the record's log sequence number (the replication gate
  /// below is keyed on it). The shared_ptr keeps a rotated-away log alive
  /// until its last parked response is released. `rid` (0 = untagged)
  /// lets flush() attribute the batch's amortized fsync/gate cost and
  /// queue wait back to the owning request (DESIGN.md §19).
  void enqueue(std::shared_ptr<Wal> wal, std::uint64_t ticket,
               std::uint64_t lsn, Release release, std::uint64_t rid = 0);

  /// Post-fsync gate, invoked once per flushed batch with the batch's
  /// highest LSN. Replication parks here (Replicator::wait_acked) so the
  /// follower's network ack overlaps the local fsync instead of
  /// serializing after it. A gate failure fails the whole batch's
  /// releases.
  using Gate = std::function<Status(std::uint64_t max_lsn)>;
  void set_gate(Gate gate);

  /// Flushes stragglers and joins the committer thread. Entries enqueued
  /// after stop() are synced + released inline on the caller's thread.
  void stop();

 private:
  struct Entry {
    std::shared_ptr<Wal> wal;
    std::uint64_t ticket = 0;
    std::uint64_t lsn = 0;
    Release release;
    std::uint64_t rid = 0;         // owning request (0 = untagged)
    std::uint64_t enqueue_ns = 0;  // stamped by enqueue(); queue-wait base
  };

  void loop();
  /// One fsync per consecutive same-log run of `batch`, then releases.
  void flush(std::vector<Entry>& batch);

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Entry> queue_;
  Gate gate_;
  bool stop_ = false;
  std::thread thread_;
};

class DurableServer {
 public:
  struct Options {
    std::string dir;                        // state directory (must exist)
    // 0: fsync before the ACK; <0: never fsync (bench-only). open()
    // rejects > 0.
    int wal_sync_ms = 0;
    std::uint64_t checkpoint_every_n = 1024;  // mutations per checkpoint
    std::size_t dedup_capacity = 4096;
    bool enable_wal = true;                 // false: checkpoints only
    CloudServer::Options server;
    /// Replication role. A backup answers every client request with
    /// kNotPrimary and applies only Repl* traffic from its primary; the
    /// promote() call flips it live (bumping the fencing term).
    ReplRole role = ReplRole::kPrimary;
  };

  /// Statistics from the recovery pass, for logs and tests.
  struct RecoveryInfo {
    std::uint64_t checkpoint_epoch = 0;  // 0 = started from empty state
    // Full image the loaded checkpoint builds on: checkpoint_epoch itself
    // for a full image, the delta's base otherwise (0 = empty state).
    std::uint64_t base_epoch = 0;
    std::uint64_t replayed = 0;          // WAL records re-executed
    std::uint64_t skipped = 0;           // records <= checkpoint LSN
    std::uint64_t duration_ns = 0;       // wall time of the recovery pass
    bool torn_tail = false;              // WAL ended in a torn record
    bool checkpoint_fallback = false;    // newest checkpoint was invalid
  };

  /// Recovers (or bootstraps) server state from opts.dir, verifies it with
  /// fsck, and opens the WAL for appending.
  static Result<std::unique_ptr<DurableServer>> open(Options opts);

  ~DurableServer();
  DurableServer(const DurableServer&) = delete;
  DurableServer& operator=(const DurableServer&) = delete;

  /// Completion for handle_async: receives the response frame once the
  /// mutation is durable. May be invoked inline (reads, dedup hits,
  /// errors) or later from the group-commit thread.
  using Done = std::function<void(Bytes)>;

  /// The mutation pipeline: reads pass through; a mutation is dedup-
  /// checked, staged into the WAL (and the replication stream), applied,
  /// and its acknowledgement parks on a GroupCommitter ticket, so one
  /// fsync covers every mutation staged across all callers while the
  /// previous flush was in flight. Call-order per connection is preserved
  /// by the reactor's response slots, not by this function.
  void handle_async(Bytes request, Done done);

  /// Drop-in replacement for CloudServer::handle: handle_async, waited
  /// for. Throws CrashError when a throw-flavor crash point killed the
  /// request (the committer then never answers).
  Bytes handle(BytesView request);

  /// Writes an atomic checkpoint now and rotates the WAL; returns once
  /// the image is durable. Also invoked by fgad_server on SIGTERM. The
  /// automatic trigger every checkpoint_every_n mutations writes its image
  /// out on a background thread instead (DESIGN.md §13).
  Status checkpoint();

  const CloudServer& server() const { return *server_; }
  CloudServer& server() { return *server_; }
  const RecoveryInfo& recovery_info() const { return recovery_; }
  std::uint64_t last_lsn() const;

  // ---- replication (DESIGN.md §18) ----------------------------------------

  /// Wires a primary-side replicator: snapshot source and demote hook
  /// are connected, the committer's gate installed (no client ACK before
  /// the follower's durable ack), and the ship thread started. Call once,
  /// after open(). `mode` selects nothing; perfbench passes it.
  void attach_replicator(std::shared_ptr<Replicator> repl,
                         ReplAckMode mode = ReplAckMode::kSync);

  /// Promotes a backup to primary: bumps the fencing term, persists it
  /// in an immediate checkpoint, and starts accepting client traffic.
  /// From this moment the old primary's appends bounce with kStaleTerm.
  Status promote();

  /// Drops to backup after the follower fenced us off (or by operator
  /// request); client traffic starts bouncing with kNotPrimary.
  void demote(std::uint64_t observed_term);

  ReplRole role() const;
  std::uint64_t term() const;

  /// Follower-side entry point for Repl* frames (handle/handle_async
  /// route here; public so tests can drive it directly).
  Bytes handle_repl(BytesView request);

 private:
  DurableServer(Options opts, std::shared_ptr<ThreadPool> pool,
                RidDedup dedup);

  /// A checkpoint image taken under mu_ that is not yet durable.
  struct CheckpointImage {
    std::uint64_t epoch = 0;
    std::uint64_t last_lsn = 0;
    std::uint64_t start_ns = 0;  // snapshot start
    bool delta = false;
    std::uint64_t base_epoch = 0;  // full image it builds on (own epoch if full)
    // Full image kept beside it that does not depend on its base (0 =
    // empty state): every log from this epoch on is kept too.
    std::uint64_t fallback_epoch = 0;
    std::uint64_t image_bytes = 0;  // a full image's server image alone
    bool settled = true;   // outcome folded in by join_write_out_locked()
    bool durable = false;  // set by write_out on success
    // header | dedup | image; write_out adds a delta's image and the CRC
    proto::Writer w;
  };

  /// Snapshot now, then write the image out: inline when `background` is
  /// false (returns once it is durable), else on the checkpoint thread.
  Status checkpoint_locked(bool background);
  /// Under mu_: waits for the previous write-out, fsyncs the log, picks
  /// full or delta, serializes into ckpt_ and rotates the WAL to the new
  /// epoch.
  Status snapshot_locked();
  /// Under mu_: waits for the in-flight write-out and folds its outcome
  /// into the base bookkeeping below.
  void join_write_out_locked();
  /// Without mu_: CRC trailer, temp file, fsync, rename, directory fsync,
  /// prune.
  Status write_out(CheckpointImage& img);
  /// Bytes of every log from `epoch` on, the current one included.
  std::uint64_t wal_bytes_from(std::uint64_t epoch) const;
  std::string checkpoint_path(std::uint64_t epoch) const;
  std::string wal_path(std::uint64_t epoch) const;

  /// The one apply step of a logged mutation for the primary, the backup
  /// stream and replay (under mu_, or inside open()): opens the request's
  /// scope at `lsn`, dispatches the inner frame under a `span` span (an
  /// outsource the primary built before mu_ is installed as `built`),
  /// stores the inner reply under the exactly-once key, and advances the
  /// LSN and the checkpoint count. Returns the inner reply.
  Bytes apply_logged(std::uint64_t lsn,
                     const std::optional<proto::TaggedInfo>& tag,
                     BytesView request, const char* span,
                     std::optional<CloudServer::BuiltFile> built = {});

  Bytes handle_repl_append(const proto::ReplAppend& req);
  Bytes handle_repl_snapshot(const proto::ReplSnapshot& req);
  Bytes handle_repl_heartbeat(const proto::ReplHeartbeat& req);
  /// Fencing check shared by every Repl* handler. Returns a kStaleTerm
  /// error frame when the sender must demote, otherwise adopts the
  /// sender's term (and demotes *us* if we were a same-or-lower-term
  /// primary hearing from a newer one).
  std::optional<Bytes> fence_check_locked(std::uint64_t sender_term);
  void set_role_locked(ReplRole role, std::uint64_t term);
  /// Builds the ReplSnapshot payload for catch-up shipping.
  Result<proto::ReplSnapshot> snapshot_for_ship();

  Options opts_;
  // Bulk work of every server image this node installs, and of the builds
  // that run off mu_: it outlives the server_ a snapshot install swaps.
  std::shared_ptr<ThreadPool> pool_;
  std::unique_ptr<CloudServer> server_;

  mutable std::mutex mu_;  // orders WAL appends with their application
  // shared_ptr: the group committer may still have to flush a log a
  // concurrent checkpoint just rotated away.
  std::shared_ptr<Wal> wal_;
  RidDedup dedup_;
  // Epoch of the newest snapshot, i.e. of the current WAL; its checkpoint
  // may still be in flight.
  std::uint64_t epoch_ = 0;
  std::uint64_t next_lsn_ = 1;
  std::uint64_t mutations_since_checkpoint_ = 0;
  RecoveryInfo recovery_;
  // Atomic so the lock-free read path can bounce client traffic off a
  // backup without taking the dispatch mutex; writes happen under mu_.
  std::atomic<ReplRole> role_{ReplRole::kPrimary};
  std::uint64_t term_ = 0;  // fencing term, persisted in checkpoints
  std::shared_ptr<Replicator> repl_;  // primary side only
  // Delta bookkeeping (DESIGN.md §13). base_epoch_ is the newest durable
  // full image, prev_base_epoch_ the durable full image before it (0 =
  // none); deltas are taken against base_epoch_ only while delta_ok_, i.e.
  // while server_'s change tracking runs from that image's snapshot.
  std::uint64_t base_epoch_ = 0;
  std::uint64_t base_image_bytes_ = 0;
  std::uint64_t prev_base_epoch_ = 0;
  bool delta_ok_ = false;
  std::map<std::uint64_t, std::uint64_t> wal_bytes_;  // rotated log sizes
  // Changes since the base as of the newest snapshot; folded into under
  // mu_, serialized by the write-out (which the next snapshot joins first).
  DeltaImage delta_;
  // The newest image; its buffer is recycled by the next snapshot. While
  // ckpt_writer_ runs, only that thread touches ckpt_.
  CheckpointImage ckpt_;
  std::thread ckpt_writer_;  // background write-out, joined under mu_
  // Declared last: its thread holds shared_ptr<Wal> copies and must be
  // stopped before the members above are torn down.
  GroupCommitter committer_;
};

}  // namespace fgad::cloud
