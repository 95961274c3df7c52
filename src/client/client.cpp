#include "client/client.h"

#include <unordered_map>

#include "obs/cost.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fgad::client {

namespace proto = fgad::proto;
using core::InsertCommit;
using crypto::MasterKey;
using proto::MsgType;

namespace {

/// True when an error code means a commit may or may not have been
/// applied server-side (transport died after the frame could have been
/// sent, the response was unreadable, or the server itself cannot tell).
bool commit_outcome_unknown(Errc c) {
  switch (c) {
    case Errc::kTimeout:
    case Errc::kConnReset:
    case Errc::kIoError:
    case Errc::kRetryExhausted:
    case Errc::kDecodeError:  // response unreadable: cannot prove either way
    case Errc::kIndeterminate:  // fenced mid-commit by a newer primary
      return true;
    default:
      return false;
  }
}

/// Draws a fresh master key into `fresh` and plans with it, drawing again
/// while the plan reports that F(K',M) collides with F(K,M)
/// (kInvalidArgument): one draw plus up to `max_retries` more.
template <typename PlanFn>
auto plan_with_fresh_key(crypto::RandomSource& rnd, std::size_t width,
                         int max_retries, MasterKey& fresh, PlanFn plan)
    -> decltype(plan(fresh.value())) {
  for (int attempt = 0; attempt <= max_retries; ++attempt) {
    fresh = MasterKey::generate(rnd, width);
    auto planned = plan(fresh.value());
    if (planned || planned.error().code != Errc::kInvalidArgument) {
      return planned;
    }
  }
  return Error(Errc::kDuplicateModulator,
               "delete: retries exhausted picking a fresh key");
}

/// The one sealer of tagged requests (DESIGN.md §19): the request id, and
/// under a trace the current span's id, 0 otherwise. The server keys
/// exactly-once on both and returns its timing trailer only for a span.
Bytes seal_request(std::uint64_t rid, BytesView frame) {
  return proto::seal_tagged_v2(rid, obs::trace_current_span_id(), 0, {},
                               frame);
}

/// The payload of one reply to a request sealed under `rid` (0: untagged).
/// A tagged reply must echo the rid; an untagged one is accepted.
Result<Bytes> open_reply(BytesView resp, std::uint64_t rid, MsgType expect) {
  auto env = proto::open_message(resp);
  if (!env) {
    return env.error();
  }
  if (rid != 0 && env.value().request_id.value_or(rid) != rid) {
    return Error(Errc::kDecodeError,
                 "client: response carries a different request id");
  }
  return proto::response_payload(std::move(env).value(), expect);
}

}  // namespace

Client::Client(net::RpcChannel& channel, crypto::RandomSource& rnd,
               Options opts)
    : channel_(channel),
      rnd_(rnd),
      opts_(opts),
      math_(opts.alg),
      codec_(opts.alg),
      outsourcer_(opts.alg, /*track_duplicates=*/false, opts.threads),
      batch_(opts.alg, core::BatchDeriver::Options{opts.threads}) {}

Status Client::check_handle(const FileHandle& fh) const {
  if (fh.poisoned) {
    return Status(Errc::kIndeterminate,
                  "client: handle is poisoned by an indeterminate key "
                  "rotation; call resync() first");
  }
  return Status::ok();
}

Result<Bytes> Client::call(BytesView frame, MsgType expect) {
  static obs::Counter& rpcs =
      obs::Registry::instance().counter("fgad_client_rpcs_total");
  static obs::Counter& rpc_errors =
      obs::Registry::instance().counter("fgad_client_rpc_errors_total");
  static obs::Histogram& rpc_ns =
      obs::Registry::instance().histogram("fgad_client_rpc_ns");
  obs::ScopedTimer timer(rpc_ns);
  rpcs.inc();
  const auto req_type = proto::peek_type(frame);
  obs::Span span(req_type ? proto::msg_type_name(*req_type) : "rpc");
  // Under an active trace, wrap the frame in a tagged envelope so the
  // server's audit lines and spans carry this request id and parent under
  // this RPC's span. Untagged traffic is byte-identical to the
  // pre-tagging protocol. With tag_mutations on, mutating RPCs outside a
  // trace get a fresh id per RPC — the durable server's idempotency token
  // for crash-safe retries.
  std::uint64_t rid = obs::current_request_id();
  if (rid == 0 && opts_.tag_mutations && req_type &&
      proto::is_mutating(*req_type)) {
    rid = obs::generate_request_id();
  }
  Result<Bytes> resp = rid != 0
                           ? channel_.roundtrip(seal_request(rid, frame))
                           : channel_.roundtrip(frame);
  if (!resp) {
    rpc_errors.inc();
    return resp;
  }
  if (rid != 0 && obs::trace_active()) {
    // A traced reply's trailer is the server's cost breakdown for this
    // RPC; keep the latest one for tools (fgad_cli --trace).
    if (const auto rtag = proto::open_tagged(resp.value());
        rtag && !rtag->timings.empty()) {
      last_server_timing_ = rtag->timings;
    }
  }
  auto payload = open_reply(resp.value(), rid, expect);
  if (!payload) {
    rpc_errors.inc();
  }
  return payload;
}

Result<std::vector<Result<Bytes>>> Client::call_batch(
    std::vector<Bytes> frames, MsgType expect) {
  static obs::Counter& rpcs =
      obs::Registry::instance().counter("fgad_client_rpcs_total");
  static obs::Counter& rpc_errors =
      obs::Registry::instance().counter("fgad_client_rpc_errors_total");
  static obs::Counter& batches =
      obs::Registry::instance().counter("fgad_client_rpc_batches_total");
  rpcs.inc(frames.size());
  batches.inc();
  obs::Span span("batch_rpc");
  std::vector<std::uint64_t> rids(frames.size(), 0);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto req_type = proto::peek_type(frames[i]);
    std::uint64_t rid = obs::current_request_id();
    if (rid != 0 ||
        (opts_.tag_mutations && req_type && proto::is_mutating(*req_type))) {
      // Pipelined frames need DISTINCT idempotency tokens even under one
      // trace — a shared rid would dedup-collapse the whole batch.
      rid = obs::generate_request_id();
      rids[i] = rid;
      frames[i] = seal_request(rid, frames[i]);
    }
  }
  auto resps = channel_.roundtrip_batch(frames);
  if (!resps) {
    rpc_errors.inc();
    return resps.error();
  }
  std::vector<Result<Bytes>> out;
  out.reserve(frames.size());
  for (std::size_t i = 0; i < resps.value().size(); ++i) {
    out.push_back(open_reply(resps.value()[i], rids[i], expect));
    if (!out.back()) {
      rpc_errors.inc();
    }
  }
  return out;
}

Result<Client::FileHandle> Client::outsource(
    std::uint64_t file_id, std::size_t n_items,
    const std::function<Bytes(std::size_t)>& item_at) {
  obs::Span op_span("client:outsource");
  FileHandle fh;
  fh.id = file_id;
  core::OutsourcedFile built;
  {
    CumulativeTimer::Section sec(compute_timer_);
    obs::Span span("build_outsource");
    fh.key = MasterKey::generate(rnd_, math_.width());
    built = outsourcer_.build(fh.key, n_items, item_at, counter_, rnd_);
  }
  proto::OutsourceReq req;
  req.file_id = file_id;
  {
    proto::Writer w;
    built.tree.serialize(w);
    req.tree_blob = std::move(w).take();
  }
  req.items.reserve(built.items.size());
  for (auto& it : built.items) {
    req.items.push_back(proto::OutsourceReq::Item{
        it.item_id, std::move(it.ciphertext), it.plain_size});
  }
  auto resp = call(req.to_frame(), MsgType::kOutsourceResp);
  if (!resp) {
    return resp.error();
  }
  return fh;
}

Result<Client::FileHandle> Client::outsource(std::uint64_t file_id,
                                             std::span<const Bytes> items) {
  return outsource(file_id, items.size(),
                   [&](std::size_t i) { return items[i]; });
}

Result<Bytes> Client::access(const FileHandle& fh, proto::ItemRef ref) {
  obs::Span op_span("client:access");
  if (auto st = check_handle(fh); !st) {
    return st.error();
  }
  proto::AccessReq req;
  req.file_id = fh.id;
  req.ref = ref;
  auto payload = call(req.to_frame(), MsgType::kAccessResp);
  if (!payload) {
    return payload.error();
  }
  proto::Reader r(payload.value());
  auto resp = proto::AccessResp::from(r);
  if (!resp) {
    return resp.error();
  }
  CumulativeTimer::Section sec(compute_timer_);
  auto opened = open_item(fh, resp.value().info);
  if (!opened) {
    return opened.error();
  }
  return std::move(opened.value().plaintext);
}

Result<Client::OpenedItem> Client::open_item(const FileHandle& fh,
                                             const core::AccessInfo& info) {
  if (!info.path.well_formed()) {
    return Error(Errc::kTamperDetected, "access: malformed path");
  }
  OpenedItem out;
  {
    obs::Span span("derive_key");
    obs::ScopedCost cost(obs::CostKind::kKeyDerive);
    out.key = fh.cache.derive_key(math_.chain(), fh.key.value(), info.path,
                                  info.leaf_mod);
  }
  auto opened = codec_.open(out.key, info.ciphertext);
  if (!opened) {
    // A cached prefix may be stale (poisoned by an earlier tampered
    // response); drop the cache and re-derive from the master key before
    // concluding the server misbehaved.
    fh.cache.invalidate();
    const crypto::Md fresh =
        math_.derive_key(fh.key.value(), info.path, info.leaf_mod);
    if (fresh != out.key) {
      out.key = fresh;
      opened = codec_.open(out.key, info.ciphertext);
    }
  }
  if (!opened) {
    return Error(Errc::kIntegrityMismatch,
                 "access: item failed integrity check (wrong path or "
                 "tampered ciphertext)");
  }
  if (opened.value().r != info.item_id) {
    return Error(Errc::kTamperDetected, "access: counter value mismatch");
  }
  out.plaintext = std::move(opened.value().plaintext);
  return out;
}

Result<proto::ModifyReq> Client::build_modify(const FileHandle& fh,
                                              std::uint64_t item_id,
                                              BytesView access_payload,
                                              BytesView new_content) {
  proto::Reader r(access_payload);
  auto resp = proto::AccessResp::from(r);
  if (!resp) {
    return resp.error();
  }
  const core::AccessInfo& info = resp.value().info;

  CumulativeTimer::Section sec(compute_timer_);
  auto opened = open_item(fh, info);
  if (!opened) {
    return opened.error();
  }
  proto::ModifyReq mreq;
  mreq.file_id = fh.id;
  mreq.item_id = item_id;
  mreq.ciphertext =
      codec_.seal(opened.value().key, new_content, info.item_id, rnd_);
  mreq.plain_size = new_content.size();
  return mreq;
}

Status Client::modify(const FileHandle& fh, std::uint64_t item_id,
                      BytesView new_content) {
  obs::Span op_span("client:modify");
  if (auto st = check_handle(fh); !st) {
    return st;
  }
  // Fetch the item first (the paper's modify = access, edit, re-encrypt
  // under the same data key).
  proto::AccessReq areq;
  areq.file_id = fh.id;
  areq.ref = proto::ItemRef::id(item_id);
  auto payload = call(areq.to_frame(), MsgType::kAccessResp);
  if (!payload) {
    return payload.status();
  }
  auto mreq = build_modify(fh, item_id, payload.value(), new_content);
  if (!mreq) {
    return mreq.status();
  }
  return call(mreq.value().to_frame(), MsgType::kModifyResp).status();
}

Status Client::modify_batch(
    const FileHandle& fh,
    std::span<const std::pair<std::uint64_t, Bytes>> updates) {
  obs::Span op_span("client:modify_batch");
  if (auto st = check_handle(fh); !st) {
    return st;
  }
  if (updates.empty()) {
    return Status::ok();
  }
  // Phase 1: pipelined access of every target item.
  std::vector<Bytes> frames;
  frames.reserve(updates.size());
  for (const auto& [item_id, content] : updates) {
    (void)content;
    proto::AccessReq areq;
    areq.file_id = fh.id;
    areq.ref = proto::ItemRef::id(item_id);
    frames.push_back(areq.to_frame());
  }
  auto aresps = call_batch(std::move(frames), MsgType::kAccessResp);
  if (!aresps) {
    return aresps.status();
  }
  // Phase 2: verify + re-seal locally, then pipeline the uploads.
  std::vector<Bytes> uploads;
  uploads.reserve(updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    if (!aresps.value()[i]) {
      return aresps.value()[i].status();
    }
    auto mreq = build_modify(fh, updates[i].first, aresps.value()[i].value(),
                             updates[i].second);
    if (!mreq) {
      return mreq.status();
    }
    uploads.push_back(mreq.value().to_frame());
  }
  auto mresps = call_batch(std::move(uploads), MsgType::kModifyResp);
  if (!mresps) {
    return mresps.status();
  }
  for (const auto& resp : mresps.value()) {
    if (!resp) {
      return resp.status();
    }
  }
  return Status::ok();
}

Result<std::uint64_t> Client::insert(const FileHandle& fh, BytesView content,
                                     std::uint64_t after_item_id) {
  obs::Span op_span("client:insert");
  if (auto st = check_handle(fh); !st) {
    return st.error();
  }
  proto::InsertBeginReq breq;
  breq.file_id = fh.id;
  auto payload = call(breq.to_frame(), MsgType::kInsertBeginResp);
  if (!payload) {
    return payload.error();
  }
  proto::Reader r(payload.value());
  auto bresp = proto::InsertBeginResp::from(r);
  if (!bresp) {
    return bresp.error();
  }
  const core::InsertInfo& info = bresp.value().info;

  // The server rejects duplicate modulators; re-plan with fresh randomness
  // until it accepts (the paper's re-perform rule): one initial attempt
  // plus up to max_retries re-runs.
  for (int attempt = 0; attempt <= opts_.max_retries; ++attempt) {
    proto::InsertCommitReq creq;
    creq.file_id = fh.id;
    std::uint64_t item_id = 0;
    {
      CumulativeTimer::Section sec(compute_timer_);
      obs::Span span("plan_insert");
      auto plan = math_.plan_insert(info, fh.key.value(), rnd_);
      if (!plan) {
        return plan.error();
      }
      item_id = counter_++;
      creq.commit = std::move(plan.value().commit);
      creq.commit.item_id = item_id;
      creq.commit.after_item_id = after_item_id;
      creq.commit.ciphertext =
          codec_.seal(plan.value().item_key, content, item_id, rnd_);
      creq.commit.plain_size = content.size();
    }
    auto resp = call(creq.to_frame(), MsgType::kInsertCommitResp);
    if (resp) {
      // The split relocated leaf q and rewrote modulators around it.
      fh.cache.invalidate();
      return item_id;
    }
    if (resp.error().code != Errc::kDuplicateModulator) {
      return resp.error();
    }
  }
  return Error(Errc::kDuplicateModulator,
               "insert: retries exhausted (server kept reporting duplicates)");
}

Status Client::erase_item(FileHandle& fh, proto::ItemRef ref) {
  obs::Span op_span("client:erase_item");
  if (auto st = check_handle(fh); !st) {
    return st;
  }
  proto::DeleteBeginReq breq;
  breq.file_id = fh.id;
  breq.ref = ref;
  auto payload = call(breq.to_frame(), MsgType::kDeleteBeginResp);
  if (!payload) {
    return payload.status();
  }
  proto::Reader r(payload.value());
  auto bresp = proto::DeleteBeginResp::from(r);
  if (!bresp) {
    return bresp.status();
  }
  // A duplicate modulator the server observes asks for a re-run with a
  // fresh K' (the paper's re-perform rule).
  for (int attempt = 0; attempt <= opts_.max_retries; ++attempt) {
    auto plan = plan_erase(fh, bresp.value().info);
    if (!plan) {
      return plan.status();
    }
    const Status outcome =
        call(plan.value().commit, MsgType::kDeleteCommitResp).status();
    const Status st = settle(fh, std::move(plan.value().fresh), outcome);
    if (st.code() != Errc::kDuplicateModulator) {
      return st;
    }
  }
  return Status(Errc::kDuplicateModulator,
                "delete: retries exhausted (server kept reporting duplicates)");
}

Result<Client::ErasePlan> Client::plan_erase(const FileHandle& fh,
                                             const core::DeleteInfo& info) {
  ErasePlan out;
  proto::DeleteCommitReq creq;
  creq.file_id = fh.id;
  {
    CumulativeTimer::Section sec(compute_timer_);
    obs::Span span("plan_delete");
    auto plan = plan_with_fresh_key(
        rnd_, math_.width(), opts_.max_retries, out.fresh,
        [&](const crypto::Md& fresh) {
          return math_.plan_delete(info, fh.key.value(), fresh, rnd_);
        });
    if (!plan) {
      return plan.error();
    }
    // Only a response that decrypts the target item to a record matching
    // its embedded hash is accepted (Theorem 2's wrong-leaf defence).
    obs::Span verify_span("verify_target");
    auto opened = codec_.open(plan.value().old_key, info.ciphertext);
    if (!opened) {
      return Error(Errc::kTamperDetected,
                   "delete: MT(k) does not decrypt the target item");
    }
    if (opened.value().r != info.item_id) {
      return Error(Errc::kTamperDetected, "delete: counter value mismatch");
    }
    creq.commit = std::move(plan.value().commit);
  }
  out.commit = creq.to_frame();
  return out;
}

Result<Client::ErasePlan> Client::plan_erase_many(
    const FileHandle& fh, const core::DeleteManyInfo& info) {
  ErasePlan out;
  proto::DeleteManyCommitReq creq;
  creq.file_id = fh.id;
  {
    CumulativeTimer::Section sec(compute_timer_);
    obs::Span span("plan_delete_many");
    auto plan = plan_with_fresh_key(
        rnd_, math_.width(), opts_.max_retries, out.fresh,
        [&](const crypto::Md& fresh) {
          return math_.plan_delete_many(info, fh.key.value(), fresh, rnd_,
                                        batch_.pool());
        });
    if (!plan) {
      return plan.error();
    }
    // Theorem 2's wrong-leaf defence, applied to EVERY target: each
    // returned ciphertext must decrypt under its claimed old data key
    // to a record echoing the item id. One bad target rejects the
    // whole bundle before anything is committed. The m opens are
    // independent under one key epoch, so they ride the batch pool —
    // sequential deletes cannot do this, as each open waits on the
    // previous rotation.
    obs::Span verify_span("verify_targets");
    std::vector<core::BatchDeriver::OpenTask> tasks;
    tasks.reserve(info.targets.size());
    for (std::size_t i = 0; i < info.targets.size(); ++i) {
      tasks.push_back(core::BatchDeriver::OpenTask{
          i, info.targets[i].ciphertext, info.targets[i].item_id});
    }
    auto opened = batch_.open_all(plan.value().old_keys, tasks);
    if (!opened) {
      return Error(Errc::kTamperDetected,
                   opened.error().code == Errc::kIntegrityMismatch
                       ? "delete_many: MT(k) does not decrypt a target item"
                       : "delete_many: counter value mismatch");
    }
    creq.commit = std::move(plan.value().commit);
  }
  out.commit = creq.to_frame();
  return out;
}

Status Client::settle(FileHandle& fh, MasterKey&& fresh,
                      const Status& outcome) {
  if (outcome) {
    // Server committed: permanently destroy the old master key. Every
    // cached prefix belonged to the dead key epoch.
    fh.key = std::move(fresh);
    fh.cache.invalidate();
    return outcome;
  }
  if (!commit_outcome_unknown(outcome.code())) {
    return outcome;  // not applied: K stays the live key
  }
  // The transport died with the commit in flight: the server may be in
  // either key epoch. Keeping only one candidate key here would risk
  // silently diverging from the server, so the handle holds both and
  // fails fast until resync() settles it.
  static obs::Counter& poisoned = obs::Registry::instance().counter(
      "fgad_client_indeterminate_commits_total");
  poisoned.inc();
  fh.poisoned = true;
  fh.pending_key = std::move(fresh);
  fh.cache.invalidate();
  return Status(Errc::kIndeterminate,
                "delete: commit outcome unknown (" + outcome.to_string() +
                    "); handle poisoned, resync() required");
}

Status Client::erase_items(FileHandle& fh,
                           std::span<const proto::ItemRef> refs) {
  obs::Span op_span("client:erase_items");
  if (auto st = check_handle(fh); !st) {
    return st;
  }
  if (refs.empty()) {
    return Status::ok();
  }
  if (refs.size() == 1) {
    return erase_item(fh, refs[0]);
  }
  static obs::Counter& bulk_deletes =
      obs::Registry::instance().counter("fgad_client_bulk_deletes_total");
  static obs::Counter& bulk_items =
      obs::Registry::instance().counter("fgad_client_bulk_deleted_items_total");

  proto::DeleteManyBeginReq breq;
  breq.file_id = fh.id;
  breq.refs.assign(refs.begin(), refs.end());
  auto payload = call(breq.to_frame(), MsgType::kDeleteManyBeginResp);
  if (!payload) {
    return payload.status();
  }
  proto::Reader r(payload.value());
  auto bresp = proto::DeleteManyBeginResp::from(r);
  if (!bresp) {
    return bresp.status();
  }
  const core::DeleteManyInfo& info = bresp.value().info;

  for (int attempt = 0; attempt <= opts_.max_retries; ++attempt) {
    auto plan = plan_erase_many(fh, info);
    if (!plan) {
      return plan.status();
    }
    const Status outcome =
        call(plan.value().commit, MsgType::kDeleteManyCommitResp).status();
    // One commit rotates the key for every deleted item.
    const Status st = settle(fh, std::move(plan.value().fresh), outcome);
    if (st) {
      bulk_deletes.inc();
      bulk_items.inc(refs.size());
    }
    if (st.code() != Errc::kDuplicateModulator) {
      return st;
    }
  }
  // Collision bound exhausted on the merged bundle (more targets → more
  // chances for one modulator to collide). Fall back to sequential
  // single deletions, addressed by the STABLE item ids the begin phase
  // reported — the caller's ordinal/offset refs shift as earlier
  // deletions restructure the file.
  for (const auto& t : info.targets) {
    if (auto st = erase_item(fh, proto::ItemRef::id(t.item_id)); !st) {
      return st;
    }
  }
  return Status::ok();
}

Status Client::erase_batch(std::span<FileHandle* const> files,
                           std::span<const proto::ItemRef> refs) {
  obs::Span op_span("client:erase_batch");
  if (files.size() != refs.size()) {
    return Status(Errc::kInvalidArgument,
                  "erase_batch: files/refs size mismatch");
  }
  if (files.empty()) {
    return Status::ok();
  }
  // Group refs by file id (a hash map — the previous pairwise scan was
  // O(m²) and rejected same-file refs outright). Groups keep first-
  // appearance order so the operation is deterministic.
  struct Group {
    FileHandle* fh;
    std::vector<proto::ItemRef> refs;
  };
  std::vector<Group> groups;
  groups.reserve(files.size());
  std::unordered_map<std::uint64_t, std::size_t> group_of;
  group_of.reserve(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (files[i] == nullptr) {
      return Status(Errc::kInvalidArgument, "erase_batch: null file handle");
    }
    auto [it, inserted] = group_of.try_emplace(files[i]->id, groups.size());
    if (inserted) {
      groups.push_back(Group{files[i], {refs[i]}});
      continue;
    }
    Group& g = groups[it->second];
    if (g.fh != files[i]) {
      return Status(Errc::kInvalidArgument,
                    "erase_batch: two distinct handles share one file id");
    }
    g.refs.push_back(refs[i]);
  }

  Status first_error = Status::ok();
  auto note = [&first_error](const Status& st) {
    if (first_error.is_ok() && !st.is_ok()) {
      first_error = st;
    }
  };

  // Same-file groups take the merged-cut bulk path — all their items
  // fall under ONE key rotation — while single-ref groups pipeline their
  // begin/commit phases across files below.
  std::vector<Group*> singles;
  singles.reserve(groups.size());
  for (auto& g : groups) {
    if (auto st = check_handle(*g.fh); !st) {
      note(st);
      continue;
    }
    if (g.refs.size() > 1) {
      note(erase_items(*g.fh, g.refs));
    } else {
      singles.push_back(&g);
    }
  }
  if (singles.empty()) {
    return first_error;
  }

  // Phase 1: pipeline every DeleteBegin.
  std::vector<Bytes> begins;
  begins.reserve(singles.size());
  for (const Group* g : singles) {
    proto::DeleteBeginReq breq;
    breq.file_id = g->fh->id;
    breq.ref = g->refs[0];
    begins.push_back(breq.to_frame());
  }
  auto bresps = call_batch(std::move(begins), MsgType::kDeleteBeginResp);
  if (!bresps) {
    // Begin is read-only, so a wholesale transport failure here leaves
    // no key epoch in doubt.
    note(bresps.status());
    return first_error;
  }

  // Phase 2: plan and verify each deletion locally; only the commits
  // round-trip. Every file whose plan verifies gets staged.
  struct Staged {
    const Group* group;
    MasterKey fresh;
  };
  std::vector<Staged> staged;
  std::vector<Bytes> commits;
  staged.reserve(singles.size());
  commits.reserve(singles.size());
  for (std::size_t i = 0; i < singles.size(); ++i) {
    const auto& slot = bresps.value()[i];
    if (!slot) {
      note(slot.status());
      continue;
    }
    proto::Reader r(slot.value());
    auto bresp = proto::DeleteBeginResp::from(r);
    if (!bresp) {
      note(bresp.status());
      continue;
    }
    auto plan = plan_erase(*singles[i]->fh, bresp.value().info);
    if (!plan) {
      note(plan.status());
      continue;
    }
    staged.push_back(Staged{singles[i], std::move(plan.value().fresh)});
    commits.push_back(std::move(plan.value().commit));
  }
  if (staged.empty()) {
    return first_error;
  }

  // Phase 3: pipeline the commits, then settle each file's key on its own
  // commit's outcome. A batch that failed as a whole (the transport died
  // with every commit in flight) gives each file the batch's error.
  auto cresps = call_batch(std::move(commits), MsgType::kDeleteCommitResp);
  for (std::size_t k = 0; k < staged.size(); ++k) {
    FileHandle& fh = *staged[k].group->fh;
    Status st = settle(fh, std::move(staged[k].fresh),
                       cresps ? cresps.value()[k].status() : cresps.status());
    if (st.code() == Errc::kDuplicateModulator) {
      // The server saw a modulator collision we could not predict
      // locally; the sequential retry loop handles the re-run.
      st = erase_item(fh, staged[k].group->refs[0]);
    } else if (!cresps && st.code() == Errc::kIndeterminate) {
      first_error = st;  // every staged handle is in doubt: report that
    }
    note(st);
  }
  return first_error;
}

Status Client::resync(FileHandle& fh) {
  obs::Span op_span("client:resync");
  if (!fh.poisoned) {
    return Status::ok();
  }
  auto ids = list_items(fh);
  if (!ids) {
    return ids.status();  // still poisoned; retry when reachable
  }
  if (ids.value().empty()) {
    // No surviving item to probe. Only the in-doubt deletion could have
    // emptied the file (every other mutation is fail-fast while
    // poisoned), so the pending key is the live epoch.
    fh.key = std::move(fh.pending_key);
    fh.cache.invalidate();
    fh.poisoned = false;
    return Status::ok();
  }
  // Probe one surviving item under each candidate epoch: exactly one
  // master key derives a data key that opens its ciphertext.
  proto::AccessReq areq;
  areq.file_id = fh.id;
  areq.ref = proto::ItemRef::id(ids.value().front());
  auto payload = call(areq.to_frame(), MsgType::kAccessResp);
  if (!payload) {
    return payload.status();
  }
  proto::Reader r(payload.value());
  auto resp = proto::AccessResp::from(r);
  if (!resp) {
    return resp.status();
  }
  const core::AccessInfo& info = resp.value().info;
  if (!info.path.well_formed()) {
    return Status(Errc::kTamperDetected, "resync: malformed path");
  }
  CumulativeTimer::Section sec(compute_timer_);
  auto opens_under = [&](const MasterKey& candidate) {
    const crypto::Md key =
        math_.derive_key(candidate.value(), info.path, info.leaf_mod);
    auto opened = codec_.open(key, info.ciphertext);
    return opened.is_ok() && opened.value().r == info.item_id;
  };
  if (opens_under(fh.key)) {
    // The commit never landed: the old epoch is live. The fresh key was
    // never used by anyone; wipe it.
    fh.pending_key.erase();
  } else if (opens_under(fh.pending_key)) {
    fh.key = std::move(fh.pending_key);
  } else {
    return Status(Errc::kTamperDetected,
                  "resync: item opens under neither candidate key");
  }
  fh.cache.invalidate();
  fh.poisoned = false;
  return Status::ok();
}

Result<Client::FetchedFile> Client::fetch_all(const FileHandle& fh) {
  obs::Span op_span("client:fetch_all");
  if (auto st = check_handle(fh); !st) {
    return st.error();
  }
  FetchedFile out;

  proto::FetchTreeReq treq;
  treq.file_id = fh.id;
  auto tpayload = call(treq.to_frame(), MsgType::kFetchTreeResp);
  if (!tpayload) {
    return tpayload.error();
  }
  proto::Reader tr(tpayload.value());
  auto tresp = proto::FetchTreeResp::from(tr);
  if (!tresp) {
    return tresp.error();
  }
  out.tree_bytes = tresp.value().tree_blob.size();

  // Reconstruct the tree locally and derive every data key in one pass.
  std::vector<crypto::Md> keys;
  std::size_t first_leaf = 0;
  {
    CumulativeTimer::Section sec(compute_timer_);
    Stopwatch sw;
    proto::Reader blob(tresp.value().tree_blob);
    auto tree = core::ModulationTree::deserialize(
        blob, core::ModulationTree::Config{opts_.alg,
                                           /*track_duplicates=*/false});
    if (!tree) {
      return tree.error();
    }
    const core::ModulationTree& t = tree.value();
    if (t.alg() != opts_.alg) {
      return Error(Errc::kTamperDetected, "fetch: algorithm mismatch");
    }
    const std::size_t nodes = t.node_count();
    const std::size_t n = t.leaf_count();
    first_leaf = n == 0 ? 0 : n - 1;
    std::vector<crypto::Md> links(nodes);
    for (core::NodeId v = 1; v < nodes; ++v) {
      links[v] = t.link_mod(v);
    }
    std::vector<crypto::Md> leaf_mods(n);
    for (std::size_t i = 0; i < n; ++i) {
      leaf_mods[i] = t.leaf_mod(first_leaf + i);
    }
    {
      obs::Span span("derive_all_keys");
      keys = batch_.derive_all_keys(fh.key.value(), links, leaf_mods);
    }
    out.key_derive_seconds = sw.elapsed_seconds();
  }

  // Stream the ciphertexts and decrypt.
  std::uint64_t ordinal = 0;
  for (;;) {
    proto::FetchItemsReq ireq;
    ireq.file_id = fh.id;
    ireq.start_ordinal = ordinal;
    ireq.max_count = 4096;
    auto ipayload = call(ireq.to_frame(), MsgType::kFetchItemsResp);
    if (!ipayload) {
      return ipayload.error();
    }
    proto::Reader ir(ipayload.value());
    auto iresp = proto::FetchItemsResp::from(ir);
    if (!iresp) {
      return iresp.error();
    }
    CumulativeTimer::Section sec(compute_timer_);
    Stopwatch sw;
    auto& batch_items = iresp.value().items;
    std::vector<core::BatchDeriver::OpenTask> tasks;
    tasks.reserve(batch_items.size());
    for (auto& e : batch_items) {
      const std::size_t idx = e.leaf - first_leaf;
      if (e.leaf < first_leaf || idx >= keys.size()) {
        return Error(Errc::kTamperDetected, "fetch: leaf id out of range");
      }
      out.file_bytes += e.ciphertext.size();
      tasks.push_back(
          core::BatchDeriver::OpenTask{idx, e.ciphertext, e.item_id});
    }
    auto opened = batch_.open_all(keys, tasks);
    if (!opened) {
      if (opened.error().code == Errc::kTamperDetected) {
        return Error(Errc::kTamperDetected, "fetch: counter value mismatch");
      }
      return Error(Errc::kIntegrityMismatch, "fetch: item failed check");
    }
    for (std::size_t i = 0; i < batch_items.size(); ++i) {
      out.items.emplace_back(batch_items[i].item_id,
                             std::move(opened.value()[i]));
    }
    out.decrypt_seconds += sw.elapsed_seconds();
    ordinal += iresp.value().items.size();
    if (!iresp.value().more) {
      break;
    }
  }
  return out;
}

Result<proto::StatResp> Client::stat(std::uint64_t file_id) {
  proto::StatReq req;
  req.file_id = file_id;
  auto payload = call(req.to_frame(), MsgType::kStatResp);
  if (!payload) {
    return payload.error();
  }
  proto::Reader r(payload.value());
  return proto::StatResp::from(r);
}

Result<std::vector<std::uint64_t>> Client::list_items(const FileHandle& fh) {
  proto::ListItemsReq req;
  req.file_id = fh.id;
  auto payload = call(req.to_frame(), MsgType::kListItemsResp);
  if (!payload) {
    return payload.error();
  }
  proto::Reader r(payload.value());
  auto resp = proto::ListItemsResp::from(r);
  if (!resp) {
    return resp.error();
  }
  return std::move(resp.value().ids);
}

Status Client::drop_file(FileHandle& fh) {
  proto::DropFileReq req;
  req.file_id = fh.id;
  auto st = call(req.to_frame(), MsgType::kDropFileResp).status();
  if (st) {
    fh.key.erase();
  }
  return st;
}

}  // namespace fgad::client
