#include "cloud/server.h"

#include <algorithm>
#include <array>
#include <atomic>

#include "obs/cost.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fgad::cloud {

namespace proto = fgad::proto;
using proto::MsgType;

CloudServer::CloudServer(Options opts) : opts_(opts) {
  if (ThreadPool::resolve_threads(opts_.threads) > 1) {
    pool_ = std::make_unique<ThreadPool>(opts_.threads);
  }
}

Status CloudServer::outsource(std::uint64_t file_id, core::ModulationTree tree,
                              std::vector<FileStore::IngestItem> items) {
  const auto exists = [] {
    return Status(Errc::kInvalidArgument, "server: file id already exists");
  };
  {
    std::shared_lock<WriterPreferringMutex> map(files_mu_);
    if (files_.count(file_id) != 0) {
      return exists();
    }
  }
  // Ingest (hashing every item) runs before the map is locked, so reads of
  // other files keep going meanwhile.
  FileStore store(tree.alg(), opts_.track_duplicates, opts_.enable_integrity,
                  pool_.get());
  if (auto st = store.ingest(std::move(tree), std::move(items)); !st) {
    return st;
  }
  auto file = std::make_unique<StoredFile>(std::move(store));
  std::unique_lock<WriterPreferringMutex> map(files_mu_);
  if (!files_.emplace(file_id, std::move(file)).second) {
    return exists();
  }
  dropped_.erase(file_id);  // a delta carries the new file whole
  return Status::ok();
}

Result<CloudServer::LockedFile> CloudServer::lock_file(
    std::uint64_t file_id) const {
  std::shared_lock<WriterPreferringMutex> map(files_mu_);
  const auto it = files_.find(file_id);
  if (it == files_.end()) {
    return Error(Errc::kNotFound, "server: no such file");
  }
  return LockedFile(std::move(map), *it->second);
}

const FileStore* CloudServer::file(std::uint64_t file_id) const {
  const auto it = files_.find(file_id);
  return it == files_.end() ? nullptr : &it->second->store;
}

FileStore* CloudServer::mutable_file(std::uint64_t file_id) {
  const auto it = files_.find(file_id);
  return it == files_.end() ? nullptr : &it->second->store;
}

std::vector<std::uint64_t> CloudServer::file_ids() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(files_.size());
  for (const auto& [id, file] : files_) {
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

Result<core::AccessInfo> CloudServer::access(std::uint64_t file_id,
                                             const proto::ItemRef& ref) const {
  auto file = lock_file(file_id);
  if (!file) return file.error();
  auto slot = file.value()->resolve(ref);
  if (!slot) return slot.error();
  auto info = file.value()->access(slot.value());
  if (info && tamper_access_info) {
    tamper_access_info(info.value());
  }
  return info;
}

Status CloudServer::modify(std::uint64_t file_id, std::uint64_t item_id,
                           Bytes ct, std::uint64_t plain_size) {
  auto file = lock_file(file_id);
  if (!file) return file.status();
  return file.value()->modify(item_id, std::move(ct), plain_size);
}

Result<core::DeleteInfo> CloudServer::delete_begin(
    std::uint64_t file_id, const proto::ItemRef& ref) const {
  auto file = lock_file(file_id);
  if (!file) return file.error();
  auto slot = file.value()->resolve(ref);
  if (!slot) return slot.error();
  auto info = file.value()->delete_begin(slot.value());
  if (info && tamper_delete_info) {
    tamper_delete_info(info.value());
  }
  return info;
}

Status CloudServer::delete_commit(std::uint64_t file_id,
                                  const core::DeleteCommit& c) {
  auto file = lock_file(file_id);
  if (!file) return file.status();
  return file.value()->delete_commit(c);
}

Result<core::DeleteManyInfo> CloudServer::delete_many_begin(
    std::uint64_t file_id, const std::vector<proto::ItemRef>& refs) const {
  auto file = lock_file(file_id);
  if (!file) return file.error();
  std::vector<std::uint32_t> slots;
  slots.reserve(refs.size());
  for (const proto::ItemRef& ref : refs) {
    auto slot = file.value()->resolve(ref);
    if (!slot) return slot.error();
    slots.push_back(slot.value());
  }
  auto info = file.value()->delete_many_begin(slots);
  if (info && tamper_delete_many_info) {
    tamper_delete_many_info(info.value());
  }
  return info;
}

Status CloudServer::delete_many_commit(std::uint64_t file_id,
                                       const core::DeleteManyCommit& c) {
  auto file = lock_file(file_id);
  if (!file) return file.status();
  return file.value()->delete_many_commit(c);
}

Result<core::InsertInfo> CloudServer::insert_begin(
    std::uint64_t file_id) const {
  auto file = lock_file(file_id);
  if (!file) return file.error();
  core::InsertInfo info = file.value()->insert_begin();
  if (tamper_insert_info) {
    tamper_insert_info(info);
  }
  return info;
}

Status CloudServer::insert_commit(std::uint64_t file_id,
                                  const core::InsertCommit& c) {
  auto file = lock_file(file_id);
  if (!file) return file.status();
  return file.value()->insert_commit(c);
}

Result<Bytes> CloudServer::fetch_tree(std::uint64_t file_id) const {
  auto file = lock_file(file_id);
  if (!file) return file.error();
  return file.value()->serialized_tree();
}

Result<proto::AuditResp> CloudServer::audit(std::uint64_t file_id,
                                            const proto::AuditReq& req) const {
  auto file = lock_file(file_id);
  if (!file) return file.error();
  const FileStore& store = *file.value();
  if (!store.integrity_enabled()) {
    return Error(Errc::kUnsupported, "server: integrity disabled");
  }
  proto::AuditResp resp;
  resp.root = store.integrity_root();
  resp.entries.reserve(req.targets.size());
  for (std::uint64_t target : req.targets) {
    Result<std::uint32_t> slot =
        req.by_leaf
            ? (store.tree().is_leaf(target)
                   ? Result<std::uint32_t>(static_cast<std::uint32_t>(
                         store.tree().item_slot(target)))
                   : Result<std::uint32_t>(
                         Error(Errc::kNotFound, "server: not a leaf")))
            : store.resolve(proto::ItemRef::id(target));
    if (!slot) {
      return slot.error();
    }
    auto entry = store.audit_entry(slot.value(), req.include_ciphertext);
    if (!entry) {
      return entry.error();
    }
    resp.entries.push_back(std::move(entry).value());
  }
  return resp;
}

Status CloudServer::drop_file(std::uint64_t file_id) {
  // Waits out every request holding the map shared, so none still uses
  // the file; it is freed after the map is unlocked.
  std::unique_ptr<StoredFile> dropped;
  std::unique_lock<WriterPreferringMutex> map(files_mu_);
  const auto it = files_.find(file_id);
  if (it == files_.end()) {
    return Status(Errc::kNotFound, "server: no such file");
  }
  dropped = std::move(it->second);
  files_.erase(it);
  dropped_.insert(file_id);
  map.unlock();
  return Status::ok();
}

void CloudServer::kv_put(std::uint64_t table, std::uint64_t key, Bytes value) {
  std::lock_guard<std::mutex> lock(tables_mu_);
  tables_[table][key] = std::move(value);
  tables_changed_ = true;
}

Result<Bytes> CloudServer::kv_get(std::uint64_t table,
                                  std::uint64_t key) const {
  std::lock_guard<std::mutex> lock(tables_mu_);
  const auto t = tables_.find(table);
  if (t == tables_.end()) {
    return Error(Errc::kNotFound, "server: no such table");
  }
  const auto it = t->second.find(key);
  if (it == t->second.end()) {
    return Error(Errc::kNotFound, "server: no such key");
  }
  return it->second;
}

Status CloudServer::kv_delete(std::uint64_t table, std::uint64_t key) {
  std::lock_guard<std::mutex> lock(tables_mu_);
  const auto t = tables_.find(table);
  if (t == tables_.end() || t->second.erase(key) == 0) {
    return Status(Errc::kNotFound, "server: no such key");
  }
  tables_changed_ = true;
  return Status::ok();
}

std::size_t CloudServer::kv_size(std::uint64_t table) const {
  std::lock_guard<std::mutex> lock(tables_mu_);
  const auto t = tables_.find(table);
  return t == tables_.end() ? 0 : t->second.size();
}

// ---- persistence --------------------------------------------------------------

namespace {
constexpr std::uint32_t kImageMagic = 0x46474144;  // "FGAD"
constexpr std::uint16_t kImageVersion = 1;
constexpr std::uint32_t kDeltaMagic = 0x4647444C;  // "FGDL"
constexpr std::uint16_t kDeltaVersion = 1;
}  // namespace

void CloudServer::save(proto::Writer& w) const {
  w.u32(kImageMagic);
  w.u16(kImageVersion);
  // Files, ordered by id so images are deterministic.
  const std::vector<std::uint64_t> ids = file_ids();
  w.u64(ids.size());
  for (std::uint64_t id : ids) {
    w.u64(id);
    files_.at(id)->store.serialize(w);
  }
  save_tables(w);
}

void CloudServer::save_tables(proto::Writer& w) const {
  std::vector<std::uint64_t> table_ids;
  table_ids.reserve(tables_.size());
  for (const auto& [id, table] : tables_) {
    table_ids.push_back(id);
  }
  std::sort(table_ids.begin(), table_ids.end());
  w.u64(table_ids.size());
  for (std::uint64_t id : table_ids) {
    const auto& table = tables_.at(id);
    w.u64(id);
    w.u64(table.size());
    for (const auto& [key, value] : table) {
      w.u64(key);
      w.bytes(value);
    }
  }
}

Result<std::unique_ptr<CloudServer>> CloudServer::load(proto::Reader& r,
                                                       Options opts) {
  if (r.u32() != kImageMagic || r.u16() != kImageVersion) {
    return Error(Errc::kDecodeError, "server image: bad magic/version");
  }
  auto server_ptr = std::make_unique<CloudServer>(opts);
  CloudServer& server = *server_ptr;
  const std::uint64_t n_files = r.u64();
  if (!r.ok() || n_files > (1ull << 32)) {
    return Error(Errc::kDecodeError, "server image: bad file count");
  }
  for (std::uint64_t i = 0; i < n_files; ++i) {
    const std::uint64_t id = r.u64();
    auto store = FileStore::deserialize(r, opts.track_duplicates,
                                        opts.enable_integrity,
                                        server.pool_.get());
    if (!store) {
      return store.error();
    }
    server.files_.emplace(
        id, std::make_unique<StoredFile>(std::move(store).value()));
  }
  if (auto st = server.load_tables(r); !st) {
    return st.error();
  }
  return server_ptr;
}

Status CloudServer::load_tables(proto::Reader& r) {
  tables_.clear();
  const std::uint64_t n_tables = r.u64();
  if (!r.ok() || n_tables > (1ull << 32)) {
    return Status(Errc::kDecodeError, "server image: bad table count");
  }
  for (std::uint64_t t = 0; t < n_tables; ++t) {
    const std::uint64_t table_id = r.u64();
    const std::uint64_t n_keys = r.u64();
    if (!r.ok() || n_keys > (1ull << 32)) {
      return Status(Errc::kDecodeError, "server image: bad key count");
    }
    auto& table = tables_[table_id];
    for (std::uint64_t k = 0; k < n_keys; ++k) {
      const std::uint64_t key = r.u64();
      Bytes value = r.bytes();
      if (!r.ok()) {
        return Status(Errc::kDecodeError, "server image: truncated table");
      }
      table.emplace(key, std::move(value));
    }
  }
  return Status::ok();
}

void CloudServer::mark_clean() {
  for (auto& [id, file] : files_) {
    file->store.mark_clean();
  }
  dropped_.clear();
  tables_changed_ = false;
}

std::uint64_t CloudServer::pending_delta_size() const {
  std::uint64_t n = 8 * dropped_.size();
  for (const auto& [id, file] : files_) {
    if (file->store.changed()) {
      n += DeltaImage::kFileEntryBytes + file->store.delta_size();
    }
  }
  if (tables_changed_) {
    n += 8;
    for (const auto& [id, table] : tables_) {
      n += 16;
      for (const auto& [key, value] : table) {
        n += 8 + 4 + value.size();
      }
    }
  }
  return n;
}

void CloudServer::fold_changes(DeltaImage& delta) {
  for (std::uint64_t id : dropped_) {
    delta.files_.erase(id);
    delta.dropped_.insert(id);
  }
  for (const auto& [id, file] : files_) {
    FileStore* store = &file->store;
    if (!store->changed()) {
      continue;
    }
    DeltaImage::File& f = delta.files_[id];
    if (store->structurally_changed()) {
      proto::Writer w;
      store->serialize(w);
      f.whole = std::move(w).take();
      f.patch.clear();
      f.bytes = DeltaImage::kFileEntryBytes + f.whole.size();
    } else {
      f.bytes = std::max(f.bytes, DeltaImage::kFileEntryBytes);
      for (std::uint64_t item : store->modified_items()) {
        const ItemStore::Record& rec =
            store->items().at(*store->items().find(item));
        auto [it, fresh] = f.patch.try_emplace(item);
        f.bytes = fresh ? f.bytes + 8 + 8 + 4 + rec.ciphertext.size()
                        : f.bytes - it->second.second.size() +
                              rec.ciphertext.size();
        it->second = {rec.plain_size, rec.ciphertext};
      }
    }
    store->mark_clean();
  }
  if (tables_changed_) {
    proto::Writer w;
    save_tables(w);
    delta.tables_ = std::move(w).take();
  }
  dropped_.clear();
  tables_changed_ = false;
}

void DeltaImage::clear() {
  dropped_.clear();
  files_.clear();
  tables_.reset();
}

std::uint64_t DeltaImage::size() const {
  std::uint64_t n = 4 + 2 + 8 + 8 * dropped_.size() + 8 + 1 +
                    (tables_ ? tables_->size() : 0);
  for (const auto& [id, f] : files_) {
    n += f.bytes;
  }
  return n;
}

void DeltaImage::serialize(proto::Writer& w) const {
  w.u32(kDeltaMagic);
  w.u16(kDeltaVersion);
  w.u64(dropped_.size());
  for (std::uint64_t id : dropped_) {
    w.u64(id);
  }
  w.u64(files_.size());
  for (const auto& [id, f] : files_) {
    w.u64(id);
    w.u8(f.whole.empty() ? 0 : 1);
    w.raw(f.whole);
    w.u64(f.patch.size());
    for (const auto& [item, content] : f.patch) {
      w.u64(item);
      w.u64(content.first);
      w.bytes(content.second);
    }
  }
  w.u8(tables_ ? 1 : 0);
  if (tables_) {
    w.raw(*tables_);
  }
}

Status CloudServer::apply_delta(proto::Reader& r) {
  if (r.u32() != kDeltaMagic || r.u16() != kDeltaVersion) {
    return Status(Errc::kDecodeError, "delta image: bad magic/version");
  }
  const std::uint64_t n_dropped = r.u64();
  if (!r.ok() || n_dropped > (1ull << 32)) {
    return Status(Errc::kDecodeError, "delta image: bad tombstone count");
  }
  for (std::uint64_t i = 0; i < n_dropped; ++i) {
    files_.erase(r.u64());
  }
  const std::uint64_t n_files = r.u64();
  if (!r.ok() || n_files > (1ull << 32)) {
    return Status(Errc::kDecodeError, "delta image: bad file count");
  }
  for (std::uint64_t i = 0; i < n_files; ++i) {
    const std::uint64_t id = r.u64();
    const std::uint8_t whole = r.u8();
    if (!r.ok()) {
      return Status(Errc::kDecodeError, "delta image: truncated");
    }
    if (whole != 0) {
      auto store = FileStore::deserialize(r, opts_.track_duplicates,
                                          opts_.enable_integrity, pool_.get());
      if (!store) {
        return store.status();
      }
      files_[id] = std::make_unique<StoredFile>(std::move(store).value());
    }
    FileStore* store = mutable_file(id);
    const std::uint64_t n_items = r.u64();
    if (!r.ok() || store == nullptr || n_items > store->item_count()) {
      return Status(Errc::kDecodeError, "delta image: bad patch");
    }
    for (std::uint64_t k = 0; k < n_items; ++k) {
      const std::uint64_t item = r.u64();
      const std::uint64_t plain_size = r.u64();
      Bytes ct = r.bytes();
      if (!r.ok()) {
        return Status(Errc::kDecodeError, "delta image: truncated patch");
      }
      if (auto st = store->modify(item, std::move(ct), plain_size); !st) {
        return st;
      }
    }
  }
  const std::uint8_t tables = r.u8();
  if (!r.ok()) {
    return Status(Errc::kDecodeError, "delta image: truncated");
  }
  return tables != 0 ? load_tables(r) : Status::ok();
}

// ---- wire dispatcher --------------------------------------------------------

namespace {
using proto::error_frame;
using proto::status_frame;

/// Malformed request payload: keep the decoder's detail in the reply
/// (prefixed with the message kind so the client knows which decode
/// failed) and count it.
Bytes decode_error_frame(MsgType t, const Error& e) {
  static obs::Counter& decode_errors = obs::Registry::instance().counter(
      "fgad_server_rpc_decode_errors_total");
  decode_errors.inc();
  return error_frame(
      Error(e.code, std::string(proto::msg_type_name(t)) + ": " + e.message));
}

/// One audit-log line per deletion-relevant RPC (delete/insert/re-key/
/// modify/drop), carrying the wire request id when the client sent one.
void audit_rpc(const char* op, std::uint64_t file_id, std::uint64_t item,
               std::size_t path_len, std::size_t cut_size,
               const Status& outcome) {
  obs::AuditLog::Entry e;
  e.op = op;
  e.request_id = obs::current_request_id();
  e.file_id = file_id;
  e.item = item;
  e.path_len = path_len;
  e.cut_size = cut_size;
  // When the durability layer bracketed this apply, stamp the line with
  // the fencing term and commit LSN so the deletion's evidence names one
  // primary incarnation (DESIGN.md §19).
  e.term = obs::AuditLog::commit_term();
  e.lsn = obs::AuditLog::commit_lsn();
  obs::AuditLog::instance().record(e, outcome);
}

/// fgad_server_rpc_<type>_total. The registry finds a counter by name under
/// its one mutex, which every request would share, so each type's counter
/// is looked up once and kept in a slot per type value.
obs::Counter& rpc_type_counter(MsgType t) {
  constexpr std::size_t kSlots = [] {
    std::size_t max = 0;
#define FGAD_MAX_TYPE(e, value, name, traits) \
  max = std::max<std::size_t>(max, value);
    FGAD_MSG_TYPES(FGAD_MAX_TYPE)
#undef FGAD_MAX_TYPE
    return max + 1;
  }();
  static std::array<std::atomic<obs::Counter*>, kSlots> slots{};
  const auto lookup = [t] {
    return &obs::Registry::instance().counter(
        std::string("fgad_server_rpc_") + proto::msg_type_name(t) + "_total");
  };
  const auto v = static_cast<std::size_t>(t);
  if (v >= kSlots) {
    return *lookup();  // an unassigned value: "unknown"
  }
  obs::Counter* c = slots[v].load(std::memory_order_acquire);
  if (c == nullptr) {
    c = lookup();
    slots[v].store(c, std::memory_order_release);
  }
  return *c;
}

/// Non-zero CostLedger buckets as wire timing entries (kind = CostKind
/// ordinal), the payload of a kTaggedEnvelopeV2 response trailer.
std::vector<proto::TimingEntry> timings_of(
    const obs::CostLedger::Breakdown& b) {
  std::vector<proto::TimingEntry> out;
  for (std::size_t i = 0; i < b.ns.size(); ++i) {
    if (b.ns[i] != 0) {
      out.push_back({static_cast<std::uint8_t>(i), b.ns[i]});
    }
  }
  return out;
}

// Streaming responses (FetchItems, KvGetRange) stop adding entries once
// their payload reaches this soft budget and set `more` instead, keeping
// every response frame far below net::kMaxFrameSize regardless of how
// large the stored file is (DESIGN.md §11). Clients already page on `more`.
constexpr std::size_t kSoftResponseBudget = 64u << 20;  // 64 MiB

}  // namespace

Bytes CloudServer::handle(BytesView request) {
  static obs::Counter& rpcs =
      obs::Registry::instance().counter("fgad_server_rpcs_total");
  static obs::Counter& errors =
      obs::Registry::instance().counter("fgad_server_rpc_errors_total");
  static obs::Histogram& handle_ns =
      obs::Registry::instance().histogram("fgad_server_handle_ns");
  obs::ScopedTimer timer(handle_ns);
  rpcs.inc();

  // A tagged request adopts the client's request id for the duration of
  // the handler (audit lines, slow-op warnings) and is answered with a
  // response tagged with the same id. Untagged requests are handled
  // byte-identically to the pre-tagging protocol.
  const auto tag = proto::open_tagged(request);
  const std::uint64_t rid = tag ? tag->request_id : 0;
  const BytesView inner = tag ? tag->inner : request;
  const auto inner_type = proto::peek_type(inner);
  const std::uint64_t type_ord =
      inner_type ? static_cast<std::uint64_t>(*inner_type) : 0;
  obs::FlightRecorder::instance().record(obs::FrEvent::kRpcStart, rid,
                                         type_ord);
  Bytes resp;
  if (tag) {
    obs::RequestScope scope(rid);
    // With --trace-capture on, collect this handler's span tree and
    // park it in the TraceStore under the client's rid, where
    // GET /trace.json?rid=... can fetch it for Perfetto. When an outer
    // layer (DurableServer) already opened a capture for this rid —
    // so its WAL/fsync spans share the timeline — this layer only
    // contributes spans and leaves ownership (put + stop) to it. A V2
    // tag carries the client's RPC span id; depth-0 spans here parent
    // under it so the stitched document forms one tree.
    const bool own_trace = rid != 0 &&
                           obs::TraceStore::instance().capture_enabled() &&
                           !obs::trace_active();
    if (own_trace) {
      obs::trace_begin(rid, tag->span_id);
    }
    {
      obs::Span rpc_span(inner_type ? proto::msg_type_name(*inner_type)
                                    : "decode-error");
      obs::ScopedCost apply_cost(obs::CostKind::kApply);
      resp = dispatch(inner);
    }
    if (own_trace) {
      obs::TraceStore::instance().put(rid, obs::trace_render_chrome_json());
      obs::trace_stop();
    }
  } else {
    resp = dispatch(inner);
  }
  if (proto::peek_type(resp) == proto::MsgType::kError) {
    errors.inc();
  }
  obs::FlightRecorder::instance().record(obs::FrEvent::kRpcEnd, rid, type_ord,
                                         timer.elapsed_ns());
  if (inner_type) {
    obs::Logger::instance().slow_op(proto::msg_type_name(*inner_type),
                                    timer.elapsed_ns(), rid);
  }
  if (!tag) {
    return resp;
  }
  if (!tag->v2) {
    return proto::seal_tagged(rid, resp);
  }
  // V2 responses echo the client's span ids and carry the server-timing
  // trailer: whatever the CostLedger accumulated for this rid so far
  // (apply; plus wal_append when the durability layer staged it before
  // dispatching here). The durability layer reseals afterwards to fold
  // in fsync/replication waits that happen after this return.
  return proto::seal_tagged_v2(rid, tag->span_id, tag->parent_span_id,
                               timings_of(obs::CostLedger::instance().take(rid)),
                               resp);
}

Bytes CloudServer::dispatch(BytesView request) {
  auto env = proto::open_message(request);
  if (!env) {
    static obs::Counter& decode_errors = obs::Registry::instance().counter(
        "fgad_server_rpc_decode_errors_total");
    decode_errors.inc();
    return error_frame(env.error());
  }
  rpc_type_counter(env.value().type).inc();
  proto::Reader r(env.value().payload);

  switch (env.value().type) {
    case MsgType::kOutsourceReq: {
      auto req = proto::OutsourceReq::from(r);
      if (!req) return decode_error_frame(env.value().type, req.error());
      proto::Reader tr(req.value().tree_blob);
      auto tree = core::ModulationTree::deserialize(
          tr, core::ModulationTree::Config{crypto::HashAlg::kSha1,
                                           opts_.track_duplicates});
      if (!tree) return decode_error_frame(env.value().type, tree.error());
      if (auto st = tr.finish(); !st) {
        return decode_error_frame(env.value().type, st.error());
      }
      std::vector<FileStore::IngestItem> items;
      items.reserve(req.value().items.size());
      for (auto& it : req.value().items) {
        items.push_back(FileStore::IngestItem{
            it.item_id, std::move(it.ciphertext), it.plain_size});
      }
      const std::size_t n_items = items.size();
      Status st = outsource(req.value().file_id, std::move(tree).value(),
                            std::move(items));
      audit_rpc("outsource", req.value().file_id, n_items, 0, 0, st);
      return status_frame(st, MsgType::kOutsourceResp);
    }

    case MsgType::kAccessReq: {
      auto req = proto::AccessReq::from(r);
      if (!req) return decode_error_frame(env.value().type, req.error());
      static obs::Histogram& access_ns =
          obs::Registry::instance().histogram("fgad_server_access_ns");
      obs::ScopedTimer timer(access_ns);
      auto info = access(req.value().file_id, req.value().ref);
      if (!info) return error_frame(info.error());
      proto::AccessResp resp{std::move(info).value()};
      return resp.to_frame();
    }

    case MsgType::kModifyReq: {
      auto req = proto::ModifyReq::from(r);
      if (!req) return decode_error_frame(env.value().type, req.error());
      Status st = modify(req.value().file_id, req.value().item_id,
                         std::move(req.value().ciphertext),
                         req.value().plain_size);
      audit_rpc("modify", req.value().file_id, req.value().item_id, 0, 0, st);
      return status_frame(st, MsgType::kModifyResp);
    }

    case MsgType::kDeleteBeginReq: {
      auto req = proto::DeleteBeginReq::from(r);
      if (!req) return decode_error_frame(env.value().type, req.error());
      static obs::Histogram& delete_begin_ns =
          obs::Registry::instance().histogram("fgad_server_delete_begin_ns");
      obs::ScopedTimer timer(delete_begin_ns);
      auto info = delete_begin(req.value().file_id, req.value().ref);
      audit_rpc("delete_begin", req.value().file_id,
                info ? info.value().item_id : req.value().ref.value,
                info ? info.value().path.nodes.size() : 0,
                info ? info.value().cut.size() : 0, info.status());
      if (!info) return error_frame(info.error());
      proto::DeleteBeginResp resp{std::move(info).value()};
      return resp.to_frame();
    }

    case MsgType::kDeleteCommitReq: {
      auto req = proto::DeleteCommitReq::from(r);
      if (!req) return decode_error_frame(env.value().type, req.error());
      static obs::Counter& deletes =
          obs::Registry::instance().counter("fgad_server_deletes_total");
      static obs::Histogram& delete_commit_ns =
          obs::Registry::instance().histogram("fgad_server_delete_commit_ns");
      obs::ScopedTimer timer(delete_commit_ns);
      const core::DeleteCommit& commit = req.value().commit;
      Status st = delete_commit(req.value().file_id, commit);
      // The commit IS the re-key: one delta per cut node, path one longer.
      audit_rpc("delete_commit", req.value().file_id, commit.leaf,
                commit.deltas.size() + 1, commit.deltas.size(), st);
      if (st) deletes.inc();
      return status_frame(st, MsgType::kDeleteCommitResp);
    }

    case MsgType::kDeleteManyBeginReq: {
      auto req = proto::DeleteManyBeginReq::from(r);
      if (!req) return decode_error_frame(env.value().type, req.error());
      static obs::Histogram& begin_ns = obs::Registry::instance().histogram(
          "fgad_server_delete_many_begin_ns");
      obs::ScopedTimer timer(begin_ns);
      auto info = delete_many_begin(req.value().file_id, req.value().refs);
      audit_rpc("delete_many_begin", req.value().file_id,
                req.value().refs.size(),
                info ? info.value().targets.size() : 0,
                info ? info.value().cut.size() : 0, info.status());
      if (!info) return error_frame(info.error());
      proto::DeleteManyBeginResp resp{std::move(info).value()};
      return resp.to_frame();
    }

    case MsgType::kDeleteManyCommitReq: {
      auto req = proto::DeleteManyCommitReq::from(r);
      if (!req) return decode_error_frame(env.value().type, req.error());
      static obs::Counter& bulk_deletes = obs::Registry::instance().counter(
          "fgad_server_bulk_deletes_total");
      static obs::Counter& bulk_items = obs::Registry::instance().counter(
          "fgad_server_bulk_deleted_items_total");
      static obs::Histogram& commit_ns = obs::Registry::instance().histogram(
          "fgad_server_delete_many_commit_ns");
      obs::ScopedTimer timer(commit_ns);
      const core::DeleteManyCommit& commit = req.value().commit;
      Status st = delete_many_commit(req.value().file_id, commit);
      // One merged cut, one key rotation, m items (DESIGN.md §16).
      audit_rpc("delete_many_commit", req.value().file_id,
                commit.leaves.size(), commit.relocs.size(),
                commit.deltas.size(), st);
      if (st) {
        bulk_deletes.inc();
        bulk_items.inc(commit.leaves.size());
      }
      return status_frame(st, MsgType::kDeleteManyCommitResp);
    }

    case MsgType::kInsertBeginReq: {
      auto req = proto::InsertBeginReq::from(r);
      if (!req) return decode_error_frame(env.value().type, req.error());
      auto info = insert_begin(req.value().file_id);
      audit_rpc("insert_begin", req.value().file_id, 0,
                info ? info.value().q_path.nodes.size() : 0, 0,
                info.status());
      if (!info) return error_frame(info.error());
      proto::InsertBeginResp resp{std::move(info).value()};
      return resp.to_frame();
    }

    case MsgType::kInsertCommitReq: {
      auto req = proto::InsertCommitReq::from(r);
      if (!req) return decode_error_frame(env.value().type, req.error());
      static obs::Counter& inserts =
          obs::Registry::instance().counter("fgad_server_inserts_total");
      static obs::Histogram& insert_commit_ns =
          obs::Registry::instance().histogram("fgad_server_insert_commit_ns");
      obs::ScopedTimer timer(insert_commit_ns);
      Status st = insert_commit(req.value().file_id, req.value().commit);
      audit_rpc("insert_commit", req.value().file_id,
                req.value().commit.item_id, 0, 0, st);
      if (st) inserts.inc();
      return status_frame(st, MsgType::kInsertCommitResp);
    }

    case MsgType::kFetchTreeReq: {
      auto req = proto::FetchTreeReq::from(r);
      if (!req) return decode_error_frame(env.value().type, req.error());
      auto blob = fetch_tree(req.value().file_id);
      if (!blob) return error_frame(blob.error());
      proto::FetchTreeResp resp{std::move(blob).value()};
      return resp.to_frame();
    }

    case MsgType::kFetchItemsReq: {
      auto req = proto::FetchItemsReq::from(r);
      if (!req) return decode_error_frame(env.value().type, req.error());
      auto file = lock_file(req.value().file_id);
      if (!file) return error_frame(file.error());
      const ItemStore& items = file.value()->items();
      proto::FetchItemsResp resp;
      auto slot = items.slot_at(req.value().start_ordinal);
      std::uint32_t cur = slot ? *slot : ItemStore::kNoSlot;
      const std::uint32_t limit = req.value().max_count == 0
                                      ? ~std::uint32_t{0}
                                      : req.value().max_count;
      std::size_t resp_bytes = 0;
      while (cur != ItemStore::kNoSlot && resp.items.size() < limit &&
             resp_bytes < kSoftResponseBudget) {
        const ItemStore::Record& rec = items.at(cur);
        resp_bytes += rec.ciphertext.size() + 32;
        resp.items.push_back(
            proto::FetchItemsResp::Entry{rec.item_id, rec.leaf, rec.ciphertext});
        cur = items.next_of(cur);
      }
      resp.more = cur != ItemStore::kNoSlot;
      return resp.to_frame();
    }

    case MsgType::kListItemsReq: {
      auto req = proto::ListItemsReq::from(r);
      if (!req) return decode_error_frame(env.value().type, req.error());
      auto file = lock_file(req.value().file_id);
      if (!file) return error_frame(file.error());
      proto::ListItemsResp resp;
      resp.ids = file.value()->items().ids_in_order();
      return resp.to_frame();
    }

    case MsgType::kDropFileReq: {
      auto req = proto::DropFileReq::from(r);
      if (!req) return decode_error_frame(env.value().type, req.error());
      Status st = drop_file(req.value().file_id);
      audit_rpc("drop_file", req.value().file_id, 0, 0, 0, st);
      return status_frame(st, MsgType::kDropFileResp);
    }

    case MsgType::kStatReq: {
      auto req = proto::StatReq::from(r);
      if (!req) return decode_error_frame(env.value().type, req.error());
      auto file = lock_file(req.value().file_id);
      if (!file) return error_frame(file.error());
      proto::StatResp resp;
      resp.n_items = file.value()->item_count();
      resp.node_count = file.value()->tree().node_count();
      resp.tree_bytes = file.value()->tree_bytes();
      return resp.to_frame();
    }

    case MsgType::kAuditReq: {
      auto req = proto::AuditReq::from(r);
      if (!req) return decode_error_frame(env.value().type, req.error());
      static obs::Counter& audits =
          obs::Registry::instance().counter("fgad_server_audits_total");
      static obs::Histogram& audit_ns =
          obs::Registry::instance().histogram("fgad_server_audit_ns");
      obs::ScopedTimer timer(audit_ns);
      audits.inc();
      auto resp = audit(req.value().file_id, req.value());
      if (!resp) return error_frame(resp.error());
      return resp.value().to_frame();
    }

    case MsgType::kKvPutReq: {
      auto req = proto::KvPutReq::from(r);
      if (!req) return decode_error_frame(env.value().type, req.error());
      kv_put(req.value().table, req.value().key, std::move(req.value().value));
      return proto::empty_frame(MsgType::kKvPutResp);
    }

    case MsgType::kKvGetReq: {
      auto req = proto::KvGetReq::from(r);
      if (!req) return decode_error_frame(env.value().type, req.error());
      auto v = kv_get(req.value().table, req.value().key);
      proto::KvGetResp resp;
      resp.found = v.is_ok();
      if (v) {
        resp.value = std::move(v).value();
      }
      return resp.to_frame();
    }

    case MsgType::kKvDeleteReq: {
      auto req = proto::KvDeleteReq::from(r);
      if (!req) return decode_error_frame(env.value().type, req.error());
      return status_frame(kv_delete(req.value().table, req.value().key),
                          MsgType::kKvDeleteResp);
    }

    case MsgType::kKvGetRangeReq: {
      auto req = proto::KvGetRangeReq::from(r);
      if (!req) return decode_error_frame(env.value().type, req.error());
      proto::KvGetRangeResp resp;
      std::lock_guard<std::mutex> lock(tables_mu_);
      const auto t = tables_.find(req.value().table);
      if (t != tables_.end()) {
        auto it = t->second.lower_bound(req.value().start_key);
        const std::uint32_t limit = req.value().max_count == 0
                                        ? ~std::uint32_t{0}
                                        : req.value().max_count;
        std::size_t resp_bytes = 0;
        while (it != t->second.end() && resp.entries.size() < limit &&
               resp_bytes < kSoftResponseBudget) {
          resp_bytes += it->second.size() + 16;
          resp.entries.push_back(
              proto::KvGetRangeResp::Entry{it->first, it->second});
          ++it;
        }
        resp.more = it != t->second.end();
      }
      return resp.to_frame();
    }

    case MsgType::kKvPutBatchReq: {
      auto req = proto::KvPutBatchReq::from(r);
      if (!req) return decode_error_frame(env.value().type, req.error());
      for (auto& e : req.value().entries) {
        kv_put(req.value().table, e.key, std::move(e.value));
      }
      return proto::empty_frame(MsgType::kKvPutBatchResp);
    }

    case MsgType::kReplAppend:
    case MsgType::kReplAck:
    case MsgType::kReplSnapshot:
    case MsgType::kReplHeartbeat:
      return error_frame(Error(
          Errc::kUnsupported,
          "server: replication requires a durable server (see DurableServer)"));

    default:
      return error_frame(
          Error(Errc::kUnsupported,
                "server: unknown message type " +
                    std::to_string(static_cast<unsigned>(env.value().type))));
  }
}

}  // namespace fgad::cloud
