#include "cloud/recovery.h"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <future>

#include "common/fsio.h"
#include "crypto/hasher.h"
#include "integrity/merkle.h"
#include "obs/cost.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fgad::cloud {

namespace {

constexpr std::uint32_t kCkptMagic = 0x46474350;  // "FGCP"
// v1: epoch | last_lsn | image | dedup.
// v2: epoch | last_lsn | term | image | dedup — the replication fencing
// term (DESIGN.md §18). v1 checkpoints still load (term 0).
// v3: epoch | last_lsn | term | kind | base_epoch | dedup | image, both
// length-prefixed, where a delta's image is a DeltaImage against
// checkpoint base_epoch (DESIGN.md §13). v1 and v2 load as full images.
constexpr std::uint16_t kCkptVersion = 3;
constexpr std::uint8_t kKindFull = 0;
constexpr std::uint8_t kKindDelta = 1;

obs::Counter& checkpoints_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("fgad_checkpoints_total");
  return c;
}
obs::Counter& deltas_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("fgad_checkpoint_deltas_total");
  return c;
}
obs::Counter& dedup_hits_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("fgad_dedup_hits_total");
  return c;
}
obs::Counter& recoveries_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("fgad_recoveries_total");
  return c;
}
obs::Counter& replayed_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("fgad_recovery_replayed_total");
  return c;
}
obs::Counter& skipped_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("fgad_recovery_skipped_total");
  return c;
}
obs::Counter& dedup_evictions_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("fgad_dedup_evictions_total");
  return c;
}
obs::Histogram& recovery_hist() {
  static obs::Histogram& h =
      obs::Registry::instance().histogram("fgad_recovery_duration_ns");
  return h;
}
obs::Histogram& commit_batch_hist() {
  static obs::Histogram& h =
      obs::Registry::instance().histogram("fgad_wal_commit_batch_size");
  return h;
}
obs::Counter& group_commits_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("fgad_wal_group_commits_total");
  return c;
}
obs::Histogram& checkpoint_hist() {
  static obs::Histogram& h =
      obs::Registry::instance().histogram("fgad_checkpoint_duration_ns");
  return h;
}
// Snapshot step only: how long a checkpoint holds the dispatch mutex.
obs::Histogram& checkpoint_stall_hist() {
  static obs::Histogram& h =
      obs::Registry::instance().histogram("fgad_checkpoint_stall_ns");
  return h;
}
obs::Counter& checkpoint_failures_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("fgad_checkpoint_failures_total");
  return c;
}
obs::Gauge& dedup_entries_gauge() {
  static obs::Gauge& g =
      obs::Registry::instance().gauge("fgad_dedup_entries");
  return g;
}
obs::Gauge& ckpt_epoch_gauge() {
  static obs::Gauge& g =
      obs::Registry::instance().gauge("fgad_checkpoint_epoch");
  return g;
}
obs::Gauge& ckpt_size_gauge() {
  static obs::Gauge& g =
      obs::Registry::instance().gauge("fgad_checkpoint_size_bytes");
  return g;
}
// Checkpoint age is the scrape-side difference between now and this wall
// timestamp — the standard Prometheus idiom for "age of X".
obs::Gauge& ckpt_last_unix_gauge() {
  static obs::Gauge& g =
      obs::Registry::instance().gauge("fgad_checkpoint_last_unix_seconds");
  return g;
}

/// Counts and logs a checkpoint that did not become durable. Nothing is
/// lost: the logs it would have superseded stay until a later one lands.
Status checkpoint_failed(std::uint64_t epoch, Status st) {
  checkpoint_failures_counter().inc();
  obs::Logger::instance().log(
      obs::Level::kError, "checkpoint_failed",
      obs::Kv().u64("epoch", epoch).str("error", st.to_string()));
  return st;
}

Bytes io_error_frame(const std::string& msg) {
  return proto::error_frame(Error(Errc::kIoError, msg));
}

Bytes not_primary_frame() {
  return proto::error_frame(
      Error(Errc::kNotPrimary,
            "this node is a replication backup; redial the primary"));
}

/// Maps a durability/replication failure to the client-visible error
/// frame. A fencing loss mid-commit is outcome-unknown, not "ran nowhere":
/// this node applied the record, and the promoted backup may hold it too
/// (its ack lost before the promotion), so the client must resync rather
/// than resend or keep its old key. Everything else keeps its code so
/// kTimeout stays in the client's indeterminate-commit set.
Bytes commit_fail_frame(const Status& st) {
  if (st.code() == Errc::kStaleTerm) {
    return proto::error_frame(Error(
        Errc::kIndeterminate,
        "commit fenced by a newer primary; outcome unknown: " +
            st.to_string()));
  }
  return proto::error_frame(
      Error(st.code(), "commit failed: " + st.to_string()));
}

/// Lists `<prefix><number><suffix>` entries of `dir`, returning the parsed
/// numbers sorted ascending.
std::vector<std::uint64_t> list_numbered(const std::string& dir,
                                         const std::string& prefix,
                                         const std::string& suffix) {
  std::vector<std::uint64_t> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return out;
  }
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.size() <= prefix.size() + suffix.size() ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    const std::string digits =
        name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    out.push_back(std::strtoull(digits.c_str(), nullptr, 10));
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

std::string checkpoint_file(const std::string& dir, std::uint64_t epoch) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "checkpoint-%06" PRIu64 ".ckpt", epoch);
  return dir + "/" + buf;
}

/// A checkpoint file that passed its CRC and header checks; `image` and
/// `dedup` point into `data`.
struct CheckpointFile {
  Bytes data;
  std::uint64_t epoch = 0;
  std::uint64_t last_lsn = 0;
  std::uint64_t term = 0;
  bool delta = false;
  std::uint64_t base_epoch = 0;
  BytesView image;
  BytesView dedup;
};

Result<CheckpointFile> read_checkpoint(const std::string& path) {
  auto data = fsio::read_file(path);
  if (!data) {
    return data.error();
  }
  CheckpointFile c;
  c.data = std::move(data).value();
  const auto bad = [&path](const char* what) {
    return Error(Errc::kDecodeError, "checkpoint " + path + ": " + what);
  };
  if (c.data.size() < 4) {
    return bad("truncated");
  }
  const BytesView body(c.data.data(), c.data.size() - 4);
  proto::Reader tr(BytesView(c.data).subspan(body.size()));
  if (fsio::crc32(body) != tr.u32()) {
    return bad("CRC mismatch");
  }
  proto::Reader r(body);
  const std::uint32_t magic = r.u32();
  const std::uint16_t version = r.u16();
  if (magic != kCkptMagic || version < 1 || version > kCkptVersion) {
    return bad("bad magic/version");
  }
  c.epoch = r.u64();
  c.last_lsn = r.u64();
  // v1 checkpoints predate replication; they read as term 0, which
  // open() bootstraps to 1 for a primary.
  c.term = version >= 2 ? r.u64() : 0;
  c.base_epoch = c.epoch;
  if (version < 3) {
    c.image = r.bytes_view();
    c.dedup = body.subspan(body.size() - r.remaining());
  } else {
    const std::uint8_t kind = r.u8();
    c.delta = kind == kKindDelta;
    c.base_epoch = r.u64();
    if (kind > kKindDelta ||
        (c.delta ? c.base_epoch >= c.epoch : c.base_epoch != c.epoch)) {
      return bad("bad kind/base epoch");
    }
    c.dedup = r.bytes_view();
    c.image = r.bytes_view();
    if (!r.at_end()) {
      return bad("truncated or trailing bytes");
    }
  }
  if (!r.ok()) {
    return bad("truncated");
  }
  return c;
}

/// Server state and dedup table as of checkpoint `epoch`, read through its
/// base when it is a delta.
struct LoadedCheckpoint {
  std::unique_ptr<CloudServer> server;
  RidDedup dedup;
  std::uint64_t last_lsn = 0;
  std::uint64_t term = 0;
  std::uint64_t base_epoch = 0;
};

Result<LoadedCheckpoint> load_checkpoint(
    const DurableServer::Options& opts,
    const std::shared_ptr<ThreadPool>& pool, std::uint64_t epoch) {
  auto top = read_checkpoint(checkpoint_file(opts.dir, epoch));
  if (!top) {
    return top.error();
  }
  const CheckpointFile& c = top.value();
  Result<CheckpointFile> base = Error(Errc::kNotFound, "no base");
  const CheckpointFile* full = &c;
  if (c.delta) {
    base = read_checkpoint(checkpoint_file(opts.dir, c.base_epoch));
    if (!base) {
      return base.error();
    }
    if (base.value().delta) {
      return Error(Errc::kDecodeError, "checkpoint: a delta's base is a delta");
    }
    full = &base.value();
  }
  proto::Reader ir(full->image);
  auto server = CloudServer::load(ir, opts.server, pool);
  if (!server) {
    return server.error();
  }
  if (auto st = ir.finish(); !st) {
    return st.error();
  }
  if (c.delta) {
    proto::Reader dr(c.image);
    if (auto st = server.value()->apply_delta(dr); !st) {
      return st.error();
    }
    if (auto st = dr.finish(); !st) {
      return st.error();
    }
  }
  LoadedCheckpoint out{std::move(server).value(),
                       RidDedup(opts.dedup_capacity), c.last_lsn, c.term,
                       c.base_epoch};
  proto::Reader dd(c.dedup);
  if (auto st = out.dedup.deserialize(dd); !st) {
    return st.error();
  }
  return out;
}

}  // namespace

// ---- exactly-once ----------------------------------------------------------

std::uint64_t exactly_once_key(std::uint64_t rid, std::uint64_t span_id) {
  if (rid == 0 || span_id == 0) {
    return rid;
  }
  // splitmix64's finalizer spreads the span id over all 64 bits.
  std::uint64_t z = span_id + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  const std::uint64_t key = rid ^ z ^ (z >> 31);
  return key != 0 ? key : rid;  // 0 would read as untagged
}

// ---- RidDedup --------------------------------------------------------------

const Bytes* RidDedup::find(std::uint64_t rid) const {
  const auto it = by_rid_.find(rid);
  return it == by_rid_.end() ? nullptr : &it->second;
}

void RidDedup::put(std::uint64_t rid, Bytes response) {
  if (rid == 0 || capacity_ == 0) {
    return;
  }
  const auto it = by_rid_.find(rid);
  if (it != by_rid_.end()) {
    it->second = std::move(response);  // replay refresh; order unchanged
    return;
  }
  while (order_.size() >= capacity_) {
    by_rid_.erase(order_.front());
    order_.pop_front();
    dedup_evictions_counter().inc();
  }
  order_.push_back(rid);
  by_rid_.emplace(rid, std::move(response));
  dedup_entries_gauge().set(static_cast<std::int64_t>(order_.size()));
}

void RidDedup::serialize(proto::Writer& w) const {
  w.u64(order_.size());
  for (std::uint64_t rid : order_) {
    w.u64(rid);
    w.bytes(by_rid_.at(rid));
  }
}

Status RidDedup::deserialize(proto::Reader& r) {
  const std::uint64_t n = r.u64();
  if (!r.ok() || n > (1ull << 32)) {
    return Status(Errc::kDecodeError, "dedup table: bad entry count");
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t key = r.u64();
    Bytes resp = r.bytes();
    if (!r.ok()) {
      return Status(Errc::kDecodeError, "dedup table: truncated");
    }
    // Older tables hold sealed replies under the bare rid; an inner reply
    // is never tagged.
    if (const auto tag = proto::open_tagged(resp)) {
      key = exactly_once_key(key, tag->span_id);
      resp = Bytes(tag->inner.begin(), tag->inner.end());
    }
    put(key, std::move(resp));
  }
  return Status::ok();
}

// ---- fsck ------------------------------------------------------------------

Status fsck(const CloudServer& server) {
  for (std::uint64_t id : server.file_ids()) {
    const FileStore* fs = server.file(id);
    const auto fail = [id](const std::string& what) {
      return Status(Errc::kIntegrityMismatch,
                    "fsck: file " + std::to_string(id) + ": " + what);
    };
    const core::ModulationTree& tree = fs->tree();
    const ItemStore& items = fs->items();
    const std::size_t n = tree.node_count();
    // Left-complete shape: a heap array has 0 or an odd number of nodes,
    // and exactly (n+1)/2 of them are leaves carrying the items.
    if (n % 2 == 0 && n != 0) {
      return fail("even node count " + std::to_string(n));
    }
    if (tree.leaf_count() != items.size()) {
      return fail("leaf count " + std::to_string(tree.leaf_count()) +
                  " != item count " + std::to_string(items.size()));
    }
    // Leaf -> item linkage.
    for (core::NodeId v = 0; v < n; ++v) {
      if (!tree.is_leaf(v)) {
        continue;
      }
      const std::uint64_t slot = tree.item_slot(v);
      if (slot > ~std::uint32_t{0} ||
          !items.valid(static_cast<std::uint32_t>(slot))) {
        return fail("leaf " + std::to_string(v) + " points at dead slot");
      }
      if (items.at(static_cast<std::uint32_t>(slot)).leaf != v) {
        return fail("leaf " + std::to_string(v) +
                    " and its item disagree on linkage");
      }
    }
    // Item -> leaf linkage, walking the file-order list end to end.
    std::size_t walked = 0;
    for (std::uint32_t slot = items.first(); slot != ItemStore::kNoSlot;
         slot = items.next_of(slot)) {
      const ItemStore::Record& rec = items.at(slot);
      if (!tree.is_leaf(rec.leaf) || tree.item_slot(rec.leaf) != slot) {
        return fail("item " + std::to_string(rec.item_id) +
                    " leaf back-pointer broken");
      }
      ++walked;
    }
    if (walked != items.size()) {
      return fail("file-order list covers " + std::to_string(walked) +
                  " of " + std::to_string(items.size()) + " items");
    }
    // Integrity root: recompute every leaf hash from the stored
    // ciphertexts and rebuild the root from scratch.
    if (fs->integrity_enabled() && n > 0) {
      const std::size_t leaves = tree.leaf_count();
      crypto::Hasher hasher(tree.alg());
      std::vector<crypto::Md> hashes(leaves);
      for (std::size_t i = 0; i < leaves; ++i) {
        const core::NodeId leaf = (leaves - 1) + i;
        const ItemStore::Record& rec =
            items.at(static_cast<std::uint32_t>(tree.item_slot(leaf)));
        hashes[i] = integrity::leaf_hash(hasher, rec.item_id, rec.ciphertext);
      }
      integrity::HashTree check(tree.alg());
      check.build(hashes);
      if (!(check.root() == fs->integrity_root())) {
        return fail("integrity root mismatch");
      }
    }
  }
  return Status::ok();
}

namespace {

/// A logged mutation's reply as it leaves, sealed once: the request's
/// total is charged, then seal_reply takes its whole ledger row. Untagged
/// requests get the reply as it is.
Bytes seal_mutation_reply(const std::optional<proto::TaggedInfo>& tag,
                          std::uint64_t t0, Bytes reply) {
  if (!tag) {
    return reply;
  }
  auto& ledger = obs::CostLedger::instance();
  if (ledger.enabled()) {
    ledger.add(tag->request_id, obs::CostKind::kTotal, obs::now_ns() - t0);
  }
  return seal_reply(*tag, reply);
}

}  // namespace

// ---- GroupCommitter --------------------------------------------------------

GroupCommitter::GroupCommitter() {
  thread_ = std::thread([this] { loop(); });
}

GroupCommitter::~GroupCommitter() {
  stop();
}

void GroupCommitter::enqueue(std::shared_ptr<Wal> wal, std::uint64_t ticket,
                             std::uint64_t lsn, Release release,
                             std::uint64_t rid) {
  const std::uint64_t now = obs::now_ns();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stop_) {
      queue_.push_back(
          Entry{std::move(wal), ticket, lsn, std::move(release), rid, now});
      cv_.notify_one();
      return;
    }
  }
  // Shut down: degrade to a single-entry flush on the caller's thread so
  // the durability contract still holds.
  std::vector<Entry> one;
  one.push_back(Entry{std::move(wal), ticket, lsn, std::move(release), rid, now});
  flush(one);
}

void GroupCommitter::set_gate(Gate gate) {
  std::lock_guard<std::mutex> lock(mu_);
  gate_ = std::move(gate);
}

void GroupCommitter::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      return;
    }
    stop_ = true;
    cv_.notify_all();
  }
  if (thread_.joinable()) {
    thread_.join();
  }
}

void GroupCommitter::flush(std::vector<Entry>& batch) {
  Gate gate;
  {
    std::lock_guard<std::mutex> lock(mu_);
    gate = gate_;
  }
  // Consecutive entries on the same log share one fsync: sync_to() with
  // the run's highest ticket covers every record staged at or below it.
  // (In practice the run is the whole batch; it only splits across a
  // checkpoint-triggered WAL rotation.)
  std::size_t i = 0;
  while (i < batch.size()) {
    std::size_t j = i;
    std::uint64_t max_ticket = 0;
    std::uint64_t max_lsn = 0;
    while (j < batch.size() && batch[j].wal == batch[i].wal) {
      max_ticket = std::max(max_ticket, batch[j].ticket);
      max_lsn = std::max(max_lsn, batch[j].lsn);
      ++j;
    }
    // A crash here loses the WHOLE staged batch atomically: nothing in
    // [i, j) was acknowledged yet, and the un-fsynced tail vanishes as
    // one unit. Tests arm this site to prove no torn partial-batch ACKs.
    Status st = Status::ok();
    std::uint64_t fsync_ns = 0;
    std::uint64_t fsync_start_ns = 0;
    try {
      CrashPoint::instance().fire(CrashSite::kBeforeGroupFsync);
      const std::uint64_t t0 = obs::now_ns();
      fsync_start_ns = t0;
      st = batch[i].wal ? batch[i].wal->sync_to(max_ticket) : Status::ok();
      fsync_ns = obs::now_ns() - t0;
    } catch (const CrashError&) {
      // Simulated death mid-commit (throw-flavor crash point): the batch
      // dies unacknowledged, exactly like the process would.
      for (std::size_t k = i; k < j; ++k) {
        batch[k].release = nullptr;
      }
      i = j;
      continue;
    }
    // Replication sync gate: the batch's records were staged into the
    // Replicator at append time, so its ship thread has been sending
    // them to the follower WHILE the fsync above ran. Parking here only
    // waits out whatever part of the network round trip the disk did
    // not already cover.
    std::uint64_t gate_ns = 0;
    if (st && gate && max_lsn > 0) {
      const std::uint64_t g0 = obs::now_ns();
      st = gate(max_lsn);
      gate_ns = obs::now_ns() - g0;
    }
    const std::uint64_t n = j - i;
    group_commits_counter().inc();
    commit_batch_hist().observe(n);
    obs::FlightRecorder::instance().record(obs::FrEvent::kGroupCommitFlush, 0,
                                           n, fsync_ns);
    // Per-request cost attribution: the run's one fsync (and one sync-ack
    // gate) covered n mutations, so each rid is charged its 1/n share —
    // the shares sum back to the batch's real cost. Queue wait is the gap
    // between the entry's enqueue and the fsync starting. The amortized
    // fsync share is also spliced into each rid's stored trace as a
    // committer-thread event (DESIGN.md §19).
    if (obs::CostLedger::instance().enabled() && n > 0) {
      auto& ledger = obs::CostLedger::instance();
      const bool tracing = obs::TraceStore::instance().capture_enabled();
      for (std::size_t k = i; k < j; ++k) {
        const std::uint64_t rid = batch[k].rid;
        if (rid == 0) {
          continue;
        }
        if (batch[k].enqueue_ns != 0 && fsync_start_ns > batch[k].enqueue_ns) {
          ledger.add(rid, obs::CostKind::kQueueWait,
                     fsync_start_ns - batch[k].enqueue_ns);
        }
        ledger.add(rid, obs::CostKind::kFsyncShare, fsync_ns / n);
        if (gate_ns != 0) {
          ledger.add(rid, obs::CostKind::kReplWait, gate_ns / n);
        }
        if (tracing && fsync_ns != 0) {
          obs::TraceStore::instance().append_event(rid, "fsync_share",
                                                   fsync_start_ns,
                                                   fsync_ns / n);
        }
      }
    }
    for (std::size_t k = i; k < j; ++k) {
      if (batch[k].release) {
        batch[k].release(st);
      }
    }
    i = j;
  }
  batch.clear();
}

void GroupCommitter::loop() {
  std::vector<Entry> batch;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      break;  // stop_ with nothing left to flush
    }
    // Swap out the entire stage: everything that arrived while the
    // previous fsync ran commits under the next single flush.
    batch.swap(queue_);
    lock.unlock();
    flush(batch);
    lock.lock();
  }
}

// ---- DurableServer ---------------------------------------------------------

DurableServer::DurableServer(Options opts, std::shared_ptr<ThreadPool> pool,
                             RidDedup dedup)
    : opts_(std::move(opts)),
      pool_(std::move(pool)),
      server_(std::make_unique<CloudServer>(opts_.server, pool_)),
      dedup_(std::move(dedup)) {}

DurableServer::~DurableServer() {
  if (ckpt_writer_.joinable()) {
    ckpt_writer_.join();
  }
}

std::string DurableServer::checkpoint_path(std::uint64_t epoch) const {
  return checkpoint_file(opts_.dir, epoch);
}

std::string DurableServer::wal_path(std::uint64_t epoch) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%06" PRIu64 ".log", epoch);
  return opts_.dir + "/" + buf;
}

std::uint64_t DurableServer::last_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_ - 1;
}

Result<std::unique_ptr<DurableServer>> DurableServer::open(Options opts) {
  if (opts.dir.empty()) {
    return Error(Errc::kInvalidArgument, "recovery: empty state dir");
  }
  if (opts.wal_sync_ms > 0) {
    return Error(Errc::kInvalidArgument,
                 "recovery: wal_sync_ms must be 0 (fsync before the ACK) or "
                 "negative (never fsync)");
  }
  const std::uint64_t recover_t0 = obs::now_ns();
  // /readyz reports 503 until checkpoint load + WAL replay + fsck all
  // complete (the guard clears on every exit path from open()).
  obs::Readiness::Block not_ready("recovery",
                                  "checkpoint load / WAL replay in progress");
  auto ds = std::unique_ptr<DurableServer>(
      new DurableServer(opts, CloudServer::make_pool(opts.server),
                        RidDedup(opts.dedup_capacity)));

  // 1. Newest valid checkpoint wins; older ones are the fallback when the
  //    newest is unreadable (disk rot — a crash cannot produce a torn
  //    checkpoint because the rename is atomic). A delta is valid only
  //    together with its base.
  std::uint64_t base_lsn = 0;
  std::vector<std::uint64_t> ckpts =
      list_numbered(opts.dir, "checkpoint-", ".ckpt");
  for (auto it = ckpts.rbegin(); it != ckpts.rend(); ++it) {
    auto loaded = load_checkpoint(opts, ds->pool_, *it);
    if (!loaded) {
      ds->recovery_.checkpoint_fallback = true;
      continue;
    }
    LoadedCheckpoint& c = loaded.value();
    ds->server_ = std::move(c.server);
    ds->dedup_ = std::move(c.dedup);
    ds->epoch_ = *it;
    ds->term_ = c.term;
    // The next checkpoint is a full image (delta_ok_ stays false: change
    // tracking starts now, not at the base); this base is its fallback.
    ds->base_epoch_ = c.base_epoch;
    base_lsn = c.last_lsn;
    ds->recovery_.checkpoint_epoch = *it;
    ds->recovery_.base_epoch = c.base_epoch;
    break;
  }

  // A primary with no persisted term starts at 1 so term 0 can never
  // appear on the wire (a follower uses 0 to mean "adopt whatever the
  // primary says"); the records replayed below were logged under it. A
  // backup keeps whatever term its newest checkpoint carried and waits for
  // the primary's stream.
  if (opts.role == ReplRole::kPrimary && ds->term_ == 0) {
    ds->term_ = 1;
  }

  // 2. Replay every WAL file in epoch order. LSN skipping makes this
  //    correct under any crash interleaving: records already covered by
  //    the chosen checkpoint are skipped, everything younger re-executes
  //    through the apply step live traffic takes.
  obs::FlightRecorder::instance().record(
      obs::FrEvent::kRecoveryBegin, 0, ds->recovery_.checkpoint_epoch);

  Wal::ScanResult last_scan;
  std::uint64_t last_wal_epoch = 0;
  bool have_wal_file = false;
  const std::vector<std::uint64_t> wal_epochs =
      list_numbered(opts.dir, "wal-", ".log");
  for (std::uint64_t e : wal_epochs) {
    auto scan = Wal::scan(
        ds->wal_path(e), [&](const Wal::Record& rec) {
          if (rec.lsn <= base_lsn) {
            ++ds->recovery_.skipped;
            return;
          }
          ds->apply_logged(rec.lsn, proto::open_tagged(rec.request),
                           rec.request, "replay");
          ++ds->recovery_.replayed;
        });
    if (!scan) {
      // Unreadable/invalid-header WAL file: records in it (if any) were
      // never acknowledged without an fsync, but surface loudly.
      obs::Logger::instance().log(
          obs::Level::kError, "wal_scan_failed",
          obs::Kv().str("path", ds->wal_path(e)).str(
              "error", scan.status().to_string()));
      continue;
    }
    ds->recovery_.torn_tail = scan.value().torn_tail;
    ds->wal_bytes_[e] = scan.value().valid_end;
    last_scan = scan.value();
    last_wal_epoch = e;
    have_wal_file = true;
  }
  ds->next_lsn_ = std::max(ds->next_lsn_, base_lsn + 1);
  ds->mutations_since_checkpoint_ = 0;  // the interval counts from boot
  // A snapshot rotates the log before its image is durable, so a crash
  // mid-write-out leaves a log one epoch past the newest checkpoint. The
  // next checkpoint must take an epoch past every log on disk, or its
  // rotation would truncate records only that log holds.
  if (!wal_epochs.empty()) {
    ds->epoch_ = std::max(ds->epoch_, wal_epochs.back());
  }

  // 3. The recovered image must satisfy every structural invariant before
  //    we serve from it. A failure here is exactly the moment forensics
  //    matter, so the ring is dumped before the error propagates.
  if (auto st = fsck(*ds->server_); !st) {
    auto& fr = obs::FlightRecorder::instance();
    fr.record(obs::FrEvent::kFsckFail, 0);
    char path[obs::FlightRecorder::kMaxDumpDir + 128];
    if (fr.dump_auto("fsck", path, sizeof(path))) {
      obs::Logger::instance().log(
          obs::Level::kError, "flight_recorder_dump",
          obs::Kv().str("path", path).str("error", st.to_string()));
    }
    return st.error();
  }

  // 4. Open the log for appending: continue the newest WAL file (its torn
  //    tail, if any, is truncated away) or start the epoch's first one.
  if (opts.enable_wal) {
    Wal::Options wopts{opts.wal_sync_ms};
    if (have_wal_file && last_wal_epoch >= ds->epoch_) {
      auto w = Wal::reopen(ds->wal_path(last_wal_epoch), last_scan, wopts);
      if (!w) {
        return w.error();
      }
      ds->wal_ = std::move(w).value();
      ds->wal_bytes_.erase(last_wal_epoch);  // the live log counts itself
    } else {
      auto w = Wal::create(ds->wal_path(ds->epoch_), ds->epoch_, wopts);
      if (!w) {
        return w.error();
      }
      ds->wal_ = std::move(w).value();
    }
  }

  // 5. Replication role, under the term settled before replay.
  ds->set_role_locked(opts.role, ds->term_);

  ds->recovery_.duration_ns = obs::now_ns() - recover_t0;
  recoveries_counter().inc();
  replayed_counter().inc(ds->recovery_.replayed);
  skipped_counter().inc(ds->recovery_.skipped);
  recovery_hist().observe(ds->recovery_.duration_ns);
  obs::FlightRecorder::instance().record(obs::FrEvent::kRecoveryEnd, 0,
                                         ds->recovery_.replayed,
                                         ds->recovery_.skipped);
  obs::AuditLog::Entry audit;
  audit.op = "recovered";
  audit.item = ds->recovery_.replayed;
  audit.path_len = static_cast<std::size_t>(ds->recovery_.checkpoint_epoch);
  audit.cut_size = static_cast<std::size_t>(ds->recovery_.torn_tail);
  obs::AuditLog::instance().record(audit, Status::ok());
  obs::Logger::instance().log(
      obs::Level::kInfo, "recovered",
      obs::Kv()
          .u64("checkpoint_epoch", ds->recovery_.checkpoint_epoch)
          .u64("base_epoch", ds->recovery_.base_epoch)
          .u64("replayed", ds->recovery_.replayed)
          .u64("skipped", ds->recovery_.skipped)
          .u64("torn_tail", ds->recovery_.torn_tail ? 1 : 0)
          .u64("next_lsn", ds->next_lsn_));
  return ds;
}

Bytes DurableServer::handle(BytesView request) {
  // The Done holds the only reference to the promise, so a response the
  // committer drops (a throw-flavor crash point) breaks it rather than
  // leaving this thread waiting.
  auto reply = std::make_shared<std::promise<Bytes>>();
  std::future<Bytes> acked = reply->get_future();
  handle_async(Bytes(request.begin(), request.end()),
               [reply = std::move(reply)](Bytes resp) {
                 reply->set_value(std::move(resp));
               });
  obs::Span wait_span("commit_wait");
  try {
    return acked.get();
  } catch (const std::future_error&) {
    throw CrashError{CrashPoint::instance().last_fired()};
  }
}

void DurableServer::handle_async(Bytes request, Done done) {
  const auto type = proto::peek_type(request);
  if (type && proto::is_replication(*type)) {
    done(handle_repl(request));  // primary -> follower stream
    return;
  }
  if (role_.load(std::memory_order_acquire) != ReplRole::kPrimary) {
    // A backup answers everything — reads included — with kNotPrimary:
    // serving reads from a follower would expose a stale, possibly
    // un-deleted view of data the primary already assured-deleted.
    done(not_primary_frame());
    return;
  }
  if (!type || !proto::is_mutating(*type)) {
    done(server_->handle(request));  // reads never touch the log
    return;
  }
  // The edge of a logged mutation: its envelope is opened here, once, and
  // its reply sealed once, as it leaves. The log and the replication
  // stream keep the request as it arrived.
  auto tag = proto::open_tagged(request);
  const std::uint64_t rid = tag ? tag->request_id : 0;
  const std::uint64_t key = tag ? exactly_once_key(rid, tag->span_id) : 0;
  const std::uint64_t total_t0 = obs::now_ns();

  std::shared_ptr<Wal> wal;
  std::shared_ptr<Replicator> repl;
  std::uint64_t ticket = 0;
  std::uint64_t lsn = 0;
  Bytes resp;
  bool durable_already = false;
  bool dedup_hit = false;
  {
    // Binds the rid before the durability layer is touched, so the WAL
    // append's span, cost and flight event carry it, and captures the
    // dispatch-side spans. The scope ends before the ack is parked, so the
    // group committer finds the stored trace when it splices in the
    // amortized fsync share (TraceStore::append_event).
    RequestScope scope(tag);
    std::optional<CloudServer::BuiltFile> built;
    if (*type == proto::MsgType::kOutsourceReq) {
      // The file is built before mu_ from what outlives a snapshot
      // install's server swap (opts_, pool_), so only its install waits
      // for the other mutations. A resend that hits the dedup table below
      // wastes this build.
      obs::Span build_span("build");
      obs::ScopedCost build_cost(obs::CostKind::kApply);
      const BytesView frame = tag ? tag->inner : BytesView(request);
      built = CloudServer::build_file(frame.subspan(2), opts_.server,
                                      pool_.get());
    }
    std::lock_guard<std::mutex> lock(mu_);
    repl = repl_;
    if (const Bytes* cached = key != 0 ? dedup_.find(key) : nullptr) {
      // Exactly-once: the mutation already applied (possibly replayed
      // from the WAL after a crash); hand back the original reply instead
      // of double-applying it.
      dedup_hits_counter().inc();
      obs::FlightRecorder::instance().record(obs::FrEvent::kDedupHit, rid);
      resp = *cached;
      durable_already = true;
      dedup_hit = true;
      // A resend after failover-and-failback could race a still-catching-
      // up backup, so the cached reply waits for the follower to hold
      // everything logged so far, like any other ACK.
      lsn = next_lsn_ - 1;
    } else {
      CrashPoint::instance().fire(CrashSite::kBeforeWalAppend);
      if (wal_) {
        obs::Span wal_span("wal_append");
        obs::ScopedCost wal_cost(obs::CostKind::kWalAppend);
        lsn = next_lsn_;
        // Staged, not yet durable: the group committer below performs
        // the fsync for the whole cross-connection batch at once.
        auto t = wal_->append(lsn, request);
        if (!t) {
          done(seal_mutation_reply(
              tag, total_t0,
              io_error_frame("wal append failed: " + t.error().message)));
          return;
        }
        ticket = t.value();
        wal = wal_;
        if (repl) {
          // Staged under the dispatch lock so the ship stream sees the
          // exact LSN order of the log, and ships while the committer's
          // fsync runs.
          repl->stage(term_, lsn, request);
        }
      }
      {
        obs::ScopedCost apply_cost(obs::CostKind::kApply);
        resp = apply_logged(lsn, tag, request, "apply", std::move(built));
      }
      if (opts_.checkpoint_every_n > 0 &&
          mutations_since_checkpoint_ >= opts_.checkpoint_every_n) {
        // The snapshot fsyncs the log first, so the staged record is
        // durable once this succeeds — no ticket wait needed. The image
        // is written out on the checkpoint thread, off the dispatch lock.
        if (auto st = checkpoint_locked(/*background=*/true); st) {
          durable_already = true;
        }
      }
    }
  }
  const bool gated = repl && lsn > 0;
  if ((wal == nullptr || durable_already) && !gated) {
    obs::RequestScope rid_scope(rid);
    if (!dedup_hit) {
      CrashPoint::instance().fire(CrashSite::kAfterWalPreAck);
    }
    done(seal_mutation_reply(tag, total_t0, std::move(resp)));
    return;
  }
  if (wal == nullptr || durable_already) {
    // Locally durable (dedup hit or checkpoint covered the record) but
    // the replication gate still applies: park on the committer with no
    // log to flush so the reactor thread never blocks on the network.
    wal = nullptr;
    ticket = 0;
  }
  if (tag) {
    tag->inner = {};  // the seal needs the ids only, not the request bytes
  }
  committer_.enqueue(
      wal, ticket, lsn,
      [tag = std::move(tag), dedup_hit, total_t0, resp = std::move(resp),
       done = std::move(done)](Status st) mutable {
        if (!st) {
          done(seal_mutation_reply(tag, total_t0, commit_fail_frame(st)));
          return;
        }
        obs::RequestScope rid_scope(tag ? tag->request_id : 0);
        if (!dedup_hit) {
          try {
            CrashPoint::instance().fire(CrashSite::kAfterWalPreAck);
          } catch (const CrashError&) {
            return;  // simulated death before the ACK: drop the response
          }
        }
        // The flush charged its amortized buckets (queue wait, fsync
        // share, gate share) just before this release ran; the seal takes
        // them with the rest of the row.
        done(seal_mutation_reply(tag, total_t0, std::move(resp)));
      },
      rid);
}

Bytes DurableServer::apply_logged(std::uint64_t lsn,
                                  const std::optional<proto::TaggedInfo>& tag,
                                  BytesView request, const char* span,
                                  std::optional<CloudServer::BuiltFile> built) {
  Bytes reply;
  {
    RequestScope scope(tag, term_, lsn);
    obs::Span apply_span(span);
    reply = server_->dispatch(tag ? tag->inner : request, std::move(built));
  }
  if (tag) {
    dedup_.put(exactly_once_key(tag->request_id, tag->span_id), reply);
  }
  next_lsn_ = std::max(next_lsn_, lsn + 1);
  ++mutations_since_checkpoint_;
  return reply;
}

Status DurableServer::checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  return checkpoint_locked(/*background=*/false);
}

Status DurableServer::checkpoint_locked(bool background) {
  if (auto st = snapshot_locked(); !st) {
    return checkpoint_failed(epoch_ + 1, st);
  }
  if (!background) {
    const Status st = write_out(ckpt_);
    join_write_out_locked();
    if (!st) {
      return checkpoint_failed(ckpt_.epoch, st);
    }
    return Status::ok();
  }
  // The image is a private byte buffer now, so the write-out needs no
  // lock; the next snapshot joins this thread before it touches ckpt_.
  ckpt_writer_ = std::thread([this] {
    try {
      if (auto st = write_out(ckpt_); !st) {
        (void)checkpoint_failed(ckpt_.epoch, st);
      }
    } catch (const CrashError&) {
      // Simulated death mid-write-out (throw-flavor crash point): the
      // files stay exactly as the "crash" left them.
    }
  });
  return Status::ok();
}

void DurableServer::join_write_out_locked() {
  if (ckpt_writer_.joinable()) {
    ckpt_writer_.join();
  }
  if (ckpt_.settled) {
    return;
  }
  ckpt_.settled = true;
  if (ckpt_.delta) {
    return;  // the next delta is cumulative, so a lost one costs nothing
  }
  if (!ckpt_.durable) {
    // Change tracking restarted at this image's snapshot: without it on
    // disk there is no base to take deltas against.
    delta_ok_ = false;
    return;
  }
  prev_base_epoch_ = ckpt_.fallback_epoch;
  base_epoch_ = ckpt_.epoch;
  base_image_bytes_ = ckpt_.image_bytes;
  delta_ok_ = true;
  // The write-out pruned every log older than its fallback.
  wal_bytes_.erase(wal_bytes_.begin(), wal_bytes_.lower_bound(prev_base_epoch_));
}

std::uint64_t DurableServer::wal_bytes_from(std::uint64_t epoch) const {
  std::uint64_t n = wal_ ? wal_->appended_bytes() : 0;
  for (auto it = wal_bytes_.lower_bound(epoch); it != wal_bytes_.end(); ++it) {
    n += it->second;
  }
  return n;
}

Status DurableServer::snapshot_locked() {
  // At most one image in flight: a trigger that finds the previous
  // write-out still running waits for it here. That wait stalls the
  // dispatch lock like the snapshot itself, so the stall clock starts
  // before it.
  const std::uint64_t t0 = obs::now_ns();
  join_write_out_locked();
  const std::uint64_t new_epoch = epoch_ + 1;
  obs::FlightRecorder::instance().record(
      obs::FrEvent::kCheckpointBegin, obs::current_request_id(), new_epoch);
  // Everything logged so far must be durable before the image that
  // supersedes it claims to cover it. Records appended from here on go to
  // the new epoch's log, which is created up front so that a failed
  // rotation leaves nothing to undo.
  std::shared_ptr<Wal> next_wal;
  if (wal_) {
    if (auto st = wal_->sync_now(); !st) {
      return st;
    }
    auto w = Wal::create(wal_path(new_epoch), new_epoch,
                         Wal::Options{opts_.wal_sync_ms});
    if (!w) {
      return w.status();
    }
    next_wal = std::move(w).value();
  }

  // A delta needs a durable base whose snapshot started change tracking.
  // It stays under half the base, and the logs kept for its fallback (the
  // full image before the base) stay under the base; past either bound a
  // full image is cheaper to keep than the delta and the logs.
  const bool delta =
      delta_ok_ &&
      2 * (delta_.size() + server_->pending_delta_size()) <
          base_image_bytes_ &&
      wal_bytes_from(prev_base_epoch_) < base_image_bytes_;
  ckpt_.epoch = new_epoch;
  ckpt_.last_lsn = next_lsn_ - 1;
  ckpt_.start_ns = t0;
  ckpt_.delta = delta;
  ckpt_.base_epoch = delta ? base_epoch_ : new_epoch;
  ckpt_.fallback_epoch = delta ? prev_base_epoch_ : base_epoch_;
  ckpt_.settled = false;
  ckpt_.durable = false;

  // Header, dedup table and (for a full image) the image go straight into
  // the recycled buffer; each section's length prefix is patched in once
  // its size is known. A delta only folds this interval's changes into
  // delta_ here: write_out serializes it off the lock.
  proto::Writer& w = ckpt_.w;
  w.clear();
  w.u32(kCkptMagic);
  w.u16(kCkptVersion);
  w.u64(new_epoch);
  w.u64(ckpt_.last_lsn);
  w.u64(term_);  // v2: fencing term survives restarts (DESIGN.md §18)
  w.u8(delta ? kKindDelta : kKindFull);
  w.u64(ckpt_.base_epoch);
  const std::size_t dedup_len_at = w.size();
  w.u32(0);
  dedup_.serialize(w);
  w.patch_u32(dedup_len_at,
              static_cast<std::uint32_t>(w.size() - dedup_len_at - 4));
  if (delta) {
    server_->fold_changes(delta_);
  } else {
    const std::size_t image_len_at = w.size();
    w.u32(0);
    server_->save(w);
    ckpt_.image_bytes = w.size() - image_len_at - 4;
    w.patch_u32(image_len_at, static_cast<std::uint32_t>(ckpt_.image_bytes));
    server_->mark_clean();  // later deltas count changes from here
    delta_.clear();
  }

  if (next_wal) {
    wal_bytes_[wal_->epoch()] = wal_->appended_bytes();
    wal_ = std::move(next_wal);
  }
  epoch_ = new_epoch;
  mutations_since_checkpoint_ = 0;
  checkpoints_counter().inc();
  if (delta) {
    deltas_counter().inc();
  }
  checkpoint_stall_hist().observe(obs::now_ns() - t0);
  return Status::ok();
}

Status DurableServer::write_out(CheckpointImage& img) {
  if (img.delta) {
    // delta_ is this thread's until the next snapshot joins it.
    const std::size_t image_len_at = img.w.size();
    img.w.u32(0);
    delta_.serialize(img.w);
    img.w.patch_u32(image_len_at,
                    static_cast<std::uint32_t>(img.w.size() - image_len_at - 4));
  }
  img.w.u32(fsio::crc32(img.w.data()));

  // temp -> fsync -> (crash point) -> rename -> (crash point) -> fsync dir
  const std::string path = checkpoint_path(img.epoch);
  const std::string tmp = path + ".tmp";
  {
    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
      return Status(Errc::kIoError,
                    "checkpoint open " + tmp + ": " + std::strerror(errno));
    }
    if (auto st = fsio::write_all(fd, img.w.data()); !st) {
      ::close(fd);
      ::unlink(tmp.c_str());
      return st;
    }
    if (::fsync(fd) != 0) {
      const Status st(Errc::kIoError,
                      std::string("checkpoint fsync: ") + std::strerror(errno));
      ::close(fd);
      ::unlink(tmp.c_str());
      return st;
    }
    ::close(fd);
  }
  CrashPoint::instance().fire(CrashSite::kMidCheckpoint);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status st(Errc::kIoError,
                    std::string("checkpoint rename: ") + std::strerror(errno));
    ::unlink(tmp.c_str());
    return st;
  }
  CrashPoint::instance().fire(CrashSite::kPostRename);
  if (auto st = fsio::fsync_parent_dir(path); !st) {
    return st;
  }
  checkpoint_hist().observe(obs::now_ns() - img.start_ns);
  ckpt_epoch_gauge().set(static_cast<std::int64_t>(img.epoch));
  ckpt_size_gauge().set(static_cast<std::int64_t>(img.w.size()));
  ckpt_last_unix_gauge().set(static_cast<std::int64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count()));
  obs::FlightRecorder::instance().record(obs::FrEvent::kCheckpointCommit, 0,
                                         img.epoch, img.w.size());

  // Keep this checkpoint, its base, and a fallback full image that does
  // not depend on that base, plus every log from the fallback's epoch on:
  // any one of these files may rot without losing an ACKed mutation, and
  // without the logs the fallback would come back without the mutations
  // ACKed after it was taken. Temp files of abandoned write-outs go too.
  const std::uint64_t fallback = img.fallback_epoch;
  for (std::uint64_t e : list_numbered(opts_.dir, "checkpoint-", ".ckpt")) {
    if (e < img.epoch && e != img.base_epoch && e != fallback) {
      ::unlink(checkpoint_path(e).c_str());
    }
  }
  for (std::uint64_t e : list_numbered(opts_.dir, "wal-", ".log")) {
    if (e < fallback) {
      ::unlink(wal_path(e).c_str());
    }
  }
  for (std::uint64_t e : list_numbered(opts_.dir, "checkpoint-", ".ckpt.tmp")) {
    if (e < img.epoch) {
      ::unlink((checkpoint_path(e) + ".tmp").c_str());
    }
  }
  obs::Logger::instance().log(obs::Level::kInfo, "checkpoint",
                              obs::Kv()
                                  .u64("epoch", img.epoch)
                                  .str("kind", img.delta ? "delta" : "full")
                                  .u64("base_epoch", img.base_epoch)
                                  .u64("bytes", img.w.size())
                                  .u64("last_lsn", img.last_lsn)
                                  .u64("fallback_epoch", fallback));
  img.durable = true;
  return Status::ok();
}

}  // namespace fgad::cloud
