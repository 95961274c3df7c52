#include "cloud/replica.h"

#include <algorithm>
#include <chrono>

#include "cloud/recovery.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"

namespace fgad::cloud {

namespace {

obs::Counter& ships_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("fgad_repl_ships_total");
  return c;
}
obs::Counter& ship_errors_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("fgad_repl_ship_errors_total");
  return c;
}
obs::Counter& snapshots_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("fgad_repl_snapshots_total");
  return c;
}
obs::Counter& records_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("fgad_repl_records_shipped_total");
  return c;
}
obs::Histogram& ship_hist() {
  static obs::Histogram& h =
      obs::Registry::instance().histogram("fgad_repl_ship_ns");
  return h;
}
obs::Gauge& acked_lsn_gauge() {
  static obs::Gauge& g =
      obs::Registry::instance().gauge("fgad_repl_acked_lsn");
  return g;
}

// Records per ReplAppend: bounds one ship's frame and the backup's time
// under its dispatch lock.
constexpr std::size_t kMaxBatchRecords = 256;

Bytes error_frame(Errc code, std::string msg) {
  return proto::error_frame(Error(code, std::move(msg)));
}

}  // namespace

const char* repl_role_name(ReplRole r) {
  return r == ReplRole::kPrimary ? "primary" : "backup";
}

obs::Gauge& repl_role_gauge() {
  static obs::Gauge& g = obs::Registry::instance().gauge("fgad_repl_role");
  return g;
}
obs::Gauge& repl_term_gauge() {
  static obs::Gauge& g = obs::Registry::instance().gauge("fgad_repl_term");
  return g;
}
obs::Gauge& repl_lag_bytes_gauge() {
  static obs::Gauge& g =
      obs::Registry::instance().gauge("fgad_repl_lag_bytes");
  return g;
}
obs::Gauge& repl_lag_records_gauge() {
  static obs::Gauge& g =
      obs::Registry::instance().gauge("fgad_repl_lag_records");
  return g;
}

// ---- Replicator ------------------------------------------------------------

Replicator::Replicator(Dialer dialer, Options opts)
    : dialer_(std::move(dialer)), opts_(opts) {}

Replicator::~Replicator() {
  stop();
}

void Replicator::set_snapshot_source(SnapshotSource source) {
  snapshot_source_ = std::move(source);
}

void Replicator::set_demote_hook(DemoteHook hook) {
  demote_hook_ = std::move(hook);
}

void Replicator::set_term(std::uint64_t term) {
  std::lock_guard<std::mutex> lock(mu_);
  term_ = std::max(term_, term);
}

void Replicator::start() {
  if (!thread_.joinable()) {
    thread_ = std::thread([this] { loop(); });
  }
}

void Replicator::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      return;
    }
    stop_ = true;
    cv_.notify_all();
    acked_cv_.notify_all();
  }
  if (thread_.joinable()) {
    thread_.join();
  }
  channel_.reset();
}

void Replicator::stage(std::uint64_t term, std::uint64_t lsn,
                       BytesView request) {
  std::lock_guard<std::mutex> lock(mu_);
  term_ = std::max(term_, term);
  staged_lsn_ = std::max(staged_lsn_, lsn);
  if (stop_ || demoted_) {
    return;
  }
  if (!need_snapshot_ &&
      queue_bytes_ + request.size() > opts_.max_queue_bytes) {
    // Link down (or follower far behind) long enough to fill the queue:
    // drop the log backlog and catch the follower up with a checkpoint
    // ship instead. Records staged after the snapshot's last_lsn still
    // apply on top of it; everything at or below is redundant.
    queue_.clear();
    queue_bytes_ = 0;
    need_snapshot_ = true;
  }
  if (!need_snapshot_) {
    queue_.push_back(
        Staged{term, lsn, Bytes(request.begin(), request.end())});
    queue_bytes_ += request.size();
  }
  repl_lag_bytes_gauge().set(static_cast<std::int64_t>(queue_bytes_));
  repl_lag_records_gauge().set(
      static_cast<std::int64_t>(staged_lsn_ - acked_lsn_));
  cv_.notify_one();
}

Status Replicator::wait_acked(std::uint64_t lsn) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(opts_.sync_timeout_ms);
  while (acked_lsn_ < lsn) {
    if (demoted_) {
      return Status(Errc::kStaleTerm, "replication: fenced by the follower");
    }
    if (stop_) {
      return Status(Errc::kIoError, "replication: replicator stopped");
    }
    if (acked_cv_.wait_until(lock, deadline) == std::cv_status::timeout &&
        acked_lsn_ < lsn) {
      return Status(Errc::kTimeout,
                    "replication: follower ack timed out at lsn " +
                        std::to_string(acked_lsn_) + " < " +
                        std::to_string(lsn));
    }
  }
  return Status::ok();
}

std::uint64_t Replicator::acked_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return acked_lsn_;
}

std::uint64_t Replicator::staged_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return staged_lsn_;
}

std::uint64_t Replicator::pending_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_bytes_;
}

bool Replicator::demoted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return demoted_;
}

void Replicator::fence(std::uint64_t observed_term) {
  DemoteHook hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (demoted_) {
      return;
    }
    demoted_ = true;
    queue_.clear();
    queue_bytes_ = 0;
    hook = demote_hook_;
    acked_cv_.notify_all();
  }
  if (hook) {
    hook(observed_term);
  }
}

Status Replicator::connect() {
  if (channel_) {
    return Status::ok();
  }
  auto dialed = dialer_();
  if (!dialed) {
    return dialed.status();
  }
  channel_ = std::move(dialed).value();
  return Status::ok();
}

Result<proto::ReplAck> Replicator::roundtrip(const Bytes& frame) {
  if (auto st = connect(); !st) {
    return st.error();
  }
  auto resp = channel_->roundtrip(frame);
  if (!resp) {
    channel_.reset();  // transport failure: redial (and re-resolve) next try
    return resp.error();
  }
  auto env = proto::open_message(resp.value());
  if (!env) {
    return env.error();
  }
  auto payload =
      proto::response_payload(std::move(env).value(), proto::MsgType::kReplAck);
  if (!payload) {
    if (payload.code() == Errc::kStaleTerm) {
      std::uint64_t observed = 0;
      {
        std::lock_guard<std::mutex> lock(mu_);
        observed = term_;
      }
      fence(observed);
    }
    return payload.error();
  }
  proto::Reader r(payload.value());
  return proto::ReplAck::from(r);
}

void Replicator::handle_ack(const proto::ReplAck& ack,
                            std::uint64_t shipped_through) {
  bool fenced = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ack.term > term_) {
      fenced = true;
    } else {
      acked_lsn_ = std::max(acked_lsn_, ack.last_lsn);
      acked_lsn_gauge().set(static_cast<std::int64_t>(acked_lsn_));
      if (ack.code == proto::ReplAck::Code::kNeedSnapshot) {
        need_snapshot_ = true;
      } else if (shipped_through > 0 && ack.last_lsn < shipped_through) {
        // The follower is behind everything we can still ship from the
        // queue (e.g. it restarted from an older image): log shipping
        // cannot converge, fall back to a checkpoint ship.
        need_snapshot_ = true;
      }
      repl_lag_records_gauge().set(
          static_cast<std::int64_t>(staged_lsn_ - acked_lsn_));
      acked_cv_.notify_all();
    }
  }
  if (fenced) {
    fence(ack.term);
  }
}

bool Replicator::ship_batch() {
  proto::ReplAppend req;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty() || need_snapshot_) {
      return true;
    }
    req.term = term_;
    req.prev_lsn = queue_.front().lsn - 1;
    const std::size_t n = std::min(queue_.size(), kMaxBatchRecords);
    req.records.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      req.records.push_back(
          proto::ReplRecord{queue_[i].lsn, queue_[i].request});
    }
  }
  const std::uint64_t shipped_through = req.records.back().lsn;
  const std::uint64_t t0 = obs::now_ns();
  auto ack = roundtrip(req.to_frame());
  ship_hist().observe(obs::now_ns() - t0);
  if (!ack) {
    ship_errors_counter().inc();
    return false;
  }
  ships_counter().inc();
  records_counter().inc(req.records.size());
  obs::FlightRecorder::instance().record(obs::FrEvent::kReplShip, 0,
                                         req.records.size(),
                                         ack.value().last_lsn);
  {
    // Drop everything the batch covered (stage() only ever appends, so
    // the front of the queue is still exactly what we shipped).
    std::lock_guard<std::mutex> lock(mu_);
    while (!queue_.empty() && queue_.front().lsn <= shipped_through) {
      queue_bytes_ -= queue_.front().request.size();
      queue_.pop_front();
    }
    repl_lag_bytes_gauge().set(static_cast<std::int64_t>(queue_bytes_));
  }
  handle_ack(ack.value(), shipped_through);
  return true;
}

bool Replicator::ship_snapshot() {
  if (!snapshot_source_) {
    return true;
  }
  // Dial first: the image serializes the whole server under its dispatch
  // lock, and while the link is down every retry would build one for
  // nothing.
  if (auto st = connect(); !st) {
    ship_errors_counter().inc();
    return false;
  }
  auto snap = snapshot_source_();
  if (!snap) {
    ship_errors_counter().inc();
    return false;
  }
  const std::uint64_t snap_lsn = snap.value().last_lsn;
  const std::uint64_t image_bytes = snap.value().image.size();
  const std::uint64_t t0 = obs::now_ns();
  auto ack = roundtrip(snap.value().to_frame());
  ship_hist().observe(obs::now_ns() - t0);
  if (!ack) {
    ship_errors_counter().inc();
    return false;
  }
  snapshots_counter().inc();
  obs::FlightRecorder::instance().record(obs::FrEvent::kReplSnapshotShip, 0,
                                         image_bytes, snap_lsn);
  obs::Logger::instance().log(obs::Level::kInfo, "repl_snapshot_shipped",
                              obs::Kv()
                                  .u64("last_lsn", snap_lsn)
                                  .u64("image_bytes", image_bytes));
  {
    std::lock_guard<std::mutex> lock(mu_);
    need_snapshot_ = false;
    // Records the image already covers are redundant now.
    while (!queue_.empty() && queue_.front().lsn <= snap_lsn) {
      queue_bytes_ -= queue_.front().request.size();
      queue_.pop_front();
    }
    repl_lag_bytes_gauge().set(static_cast<std::int64_t>(queue_bytes_));
  }
  handle_ack(ack.value(), 0);
  return true;
}

void Replicator::loop() {
  int backoff_ms = opts_.redial_backoff_ms;
  auto last_contact = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    const auto heartbeat_due =
        last_contact + std::chrono::milliseconds(opts_.heartbeat_ms);
    cv_.wait_until(lock, heartbeat_due, [&] {
      return stop_ || (!demoted_ && (!queue_.empty() || need_snapshot_));
    });
    if (stop_) {
      break;
    }
    if (demoted_) {
      // Fenced: nothing to ship ever again; park until stop().
      cv_.wait(lock, [&] { return stop_; });
      break;
    }
    const bool snapshot = need_snapshot_;
    const bool have_records = !queue_.empty();
    const bool heartbeat =
        !snapshot && !have_records &&
        std::chrono::steady_clock::now() >= heartbeat_due;
    std::uint64_t hb_term = term_;
    std::uint64_t hb_lsn = staged_lsn_;
    lock.unlock();

    bool ok = true;
    if (snapshot) {
      ok = ship_snapshot();
    } else if (have_records) {
      ok = ship_batch();
    } else if (heartbeat) {
      proto::ReplHeartbeat hb;
      hb.term = hb_term;
      hb.last_lsn = hb_lsn;
      auto ack = roundtrip(hb.to_frame());
      if (ack) {
        handle_ack(ack.value(), hb_lsn);
      } else {
        ship_errors_counter().inc();
        ok = false;
      }
    }
    if (ok) {
      backoff_ms = opts_.redial_backoff_ms;
      last_contact = std::chrono::steady_clock::now();
    } else {
      // Transport trouble: back off before hammering the follower.
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, opts_.max_backoff_ms);
      last_contact = std::chrono::steady_clock::now();
    }
    lock.lock();
  }
}

// ---- DurableServer replication hooks ---------------------------------------
//
// These DurableServer members live here (not recovery.cpp) so the whole
// replication protocol — both the primary-side shipper above and the
// follower-side apply path — reads as one unit.

void DurableServer::attach_replicator(std::shared_ptr<Replicator> repl,
                                      ReplAckMode /*mode*/) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    repl_ = repl;
    repl->set_term(term_);
  }
  repl->set_snapshot_source([this] { return snapshot_for_ship(); });
  repl->set_demote_hook([this](std::uint64_t observed) { demote(observed); });
  committer_.set_gate(
      [repl](std::uint64_t max_lsn) { return repl->wait_acked(max_lsn); });
  repl->start();
}

void DurableServer::set_role_locked(ReplRole role, std::uint64_t term) {
  role_.store(role, std::memory_order_release);
  term_ = term;
  repl_role_gauge().set(role == ReplRole::kPrimary ? 1 : 0);
  repl_term_gauge().set(static_cast<std::int64_t>(term_));
  obs::FlightRecorder::instance().record(
      obs::FrEvent::kReplRoleChange, 0,
      role_ == ReplRole::kPrimary ? 1 : 0, term_);
  obs::Logger::instance().log(obs::Level::kInfo, "repl_role",
                              obs::Kv()
                                  .str("role", repl_role_name(role_))
                                  .u64("term", term_));
}

Status DurableServer::promote() {
  std::lock_guard<std::mutex> lock(mu_);
  if (role_ == ReplRole::kPrimary) {
    return Status::ok();
  }
  set_role_locked(ReplRole::kPrimary, term_ + 1);
  // The bumped term must be durable BEFORE the first client ack: were it
  // not, a crash-restart could come back with the old term and accept
  // appends from the node this promotion is fencing off.
  if (auto st = checkpoint_locked(/*background=*/false); !st) {
    set_role_locked(ReplRole::kBackup, term_ - 1);
    return st;
  }
  return Status::ok();
}

void DurableServer::demote(std::uint64_t observed_term) {
  std::lock_guard<std::mutex> lock(mu_);
  if (role_ == ReplRole::kBackup && observed_term <= term_) {
    return;
  }
  set_role_locked(ReplRole::kBackup, std::max(term_, observed_term));
}

ReplRole DurableServer::role() const {
  return role_.load(std::memory_order_acquire);
}

std::uint64_t DurableServer::term() const {
  std::lock_guard<std::mutex> lock(mu_);
  return term_;
}

Result<proto::ReplSnapshot> DurableServer::snapshot_for_ship() {
  std::lock_guard<std::mutex> lock(mu_);
  proto::ReplSnapshot snap;
  snap.term = term_;
  snap.last_lsn = next_lsn_ - 1;
  proto::Writer image;
  server_->save(image);
  snap.image = std::move(image).take();
  proto::Writer dedup;
  dedup_.serialize(dedup);
  snap.dedup = std::move(dedup).take();
  return snap;
}

std::optional<Bytes> DurableServer::fence_check_locked(
    std::uint64_t sender_term) {
  if (sender_term < term_) {
    return error_frame(Errc::kStaleTerm,
                       "term " + std::to_string(sender_term) + " < " +
                           std::to_string(term_));
  }
  if (role_ == ReplRole::kPrimary) {
    if (sender_term == term_) {
      // Two primaries on the same term cannot happen through promote()
      // (it bumps); refuse rather than guess.
      return error_frame(Errc::kStaleTerm,
                         "split brain: both primaries at term " +
                             std::to_string(term_));
    }
    // A newer-term primary exists: we are the stale one. Step down and
    // apply its stream.
    set_role_locked(ReplRole::kBackup, sender_term);
  } else if (sender_term > term_) {
    set_role_locked(ReplRole::kBackup, sender_term);
  }
  return std::nullopt;
}

Bytes DurableServer::handle_repl(BytesView request) {
  auto env = proto::open_message(request);
  if (!env) {
    return error_frame(Errc::kDecodeError, "repl: bad frame");
  }
  proto::Reader r(env.value().payload);
  switch (env.value().type) {
    case proto::MsgType::kReplAppend: {
      auto req = proto::ReplAppend::from(r);
      if (!req) {
        return error_frame(req.error().code, req.error().message);
      }
      return handle_repl_append(req.value());
    }
    case proto::MsgType::kReplSnapshot: {
      auto req = proto::ReplSnapshot::from(r);
      if (!req) {
        return error_frame(req.error().code, req.error().message);
      }
      return handle_repl_snapshot(req.value());
    }
    case proto::MsgType::kReplHeartbeat: {
      auto req = proto::ReplHeartbeat::from(r);
      if (!req) {
        return error_frame(req.error().code, req.error().message);
      }
      return handle_repl_heartbeat(req.value());
    }
    default:
      return error_frame(Errc::kUnsupported, "repl: not a repl message");
  }
}

Bytes DurableServer::handle_repl_append(const proto::ReplAppend& req) {
  std::lock_guard<std::mutex> lock(mu_);
  if (auto rejected = fence_check_locked(req.term)) {
    return *rejected;
  }
  const std::uint64_t last = next_lsn_ - 1;
  proto::ReplAck ack;
  ack.term = term_;
  if (req.prev_lsn > last) {
    // Hole between our log and the stream: only a checkpoint ship can
    // bridge it.
    ack.last_lsn = last;
    ack.code = proto::ReplAck::Code::kNeedSnapshot;
    return ack.to_frame();
  }
  for (const proto::ReplRecord& rec : req.records) {
    if (rec.lsn < next_lsn_) {
      continue;  // re-shipped overlap (idempotent)
    }
    if (rec.lsn != next_lsn_) {
      ack.last_lsn = next_lsn_ - 1;
      ack.code = proto::ReplAck::Code::kNeedSnapshot;
      return ack.to_frame();
    }
    // A failed append latches the log (Wal::append), so this record and
    // everything after it stays unapplied and unacked.
    if (auto t = wal_->append(rec.lsn, rec.request); !t) {
      return error_frame(Errc::kIoError,
                         "repl wal append: " + t.error().message);
    }
    // The backup's apply becomes its own trace segment under the client's
    // rid, parented on the wire-carried span id, so the primary's
    // stitched GET /trace.json?rid= shows the replication hop
    // (DESIGN.md §19).
    apply_logged(rec.lsn, proto::open_tagged(rec.request), rec.request,
                 "repl_apply");
  }
  // One fsync covers the whole shipped batch — the follower mirrors the
  // primary's group-commit discipline.
  if (auto st = wal_->sync_now(); !st) {
    return error_frame(Errc::kIoError, "repl wal sync: " + st.to_string());
  }
  if (opts_.checkpoint_every_n > 0 &&
      mutations_since_checkpoint_ >= opts_.checkpoint_every_n) {
    // Written out on the checkpoint thread; a failure is counted and
    // logged there, and the logs it would have superseded stay.
    (void)checkpoint_locked(/*background=*/true);
  }
  ack.last_lsn = next_lsn_ - 1;
  ack.code = proto::ReplAck::Code::kOk;
  return ack.to_frame();
}

Bytes DurableServer::handle_repl_snapshot(const proto::ReplSnapshot& req) {
  std::lock_guard<std::mutex> lock(mu_);
  if (auto rejected = fence_check_locked(req.term)) {
    return *rejected;
  }
  proto::Reader ir(req.image);
  auto server = CloudServer::load(ir, opts_.server, pool_);
  if (!server || !ir.finish()) {
    return error_frame(Errc::kDecodeError, "repl snapshot: bad image");
  }
  RidDedup dedup;
  proto::Reader dr(req.dedup);
  if (auto st = dedup.deserialize(dr); !st) {
    return error_frame(Errc::kDecodeError, "repl snapshot: bad dedup table");
  }
  if (auto st = fsck(*server.value()); !st) {
    return error_frame(st.error().code,
                       "repl snapshot: " + st.error().message);
  }
  // The installed server tracks no changes against our last full image,
  // so the checkpoint below must be a full one.
  join_write_out_locked();
  delta_ok_ = false;
  server_ = std::move(server).value();
  dedup_ = std::move(dedup);
  next_lsn_ = req.last_lsn + 1;
  mutations_since_checkpoint_ = 0;
  // Persist the installed image immediately: a crash after this ack must
  // recover to (at least) the shipped state, or the primary would see our
  // acked lsn regress.
  if (auto st = checkpoint_locked(/*background=*/false); !st) {
    return error_frame(st.error().code,
                       "repl snapshot checkpoint: " + st.error().message);
  }
  obs::Logger::instance().log(obs::Level::kInfo, "repl_snapshot_installed",
                              obs::Kv()
                                  .u64("last_lsn", req.last_lsn)
                                  .u64("term", term_));
  proto::ReplAck ack;
  ack.term = term_;
  ack.last_lsn = next_lsn_ - 1;
  return ack.to_frame();
}

Bytes DurableServer::handle_repl_heartbeat(const proto::ReplHeartbeat& req) {
  std::lock_guard<std::mutex> lock(mu_);
  if (auto rejected = fence_check_locked(req.term)) {
    return *rejected;
  }
  proto::ReplAck ack;
  ack.term = term_;
  ack.last_lsn = next_lsn_ - 1;
  return ack.to_frame();
}

}  // namespace fgad::cloud
