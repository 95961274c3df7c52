#include "proto/messages.h"

#include "proto/schema.h"

namespace fgad::proto {

namespace {
Error decode_error(const char* what) {
  return Error(Errc::kDecodeError, what);
}

// One row per message type: its name and traits.
enum : std::uint8_t { kIdempotent = 1, kMutating = 2, kReplication = 4 };
struct TypeInfo {
  MsgType type;
  const char* name;
  std::uint8_t traits;
};
constexpr TypeInfo kTypes[] = {
#define FGAD_MSG_ROW(e, value, name, traits) {MsgType::e, #name, traits},
    FGAD_MSG_TYPES(FGAD_MSG_ROW)
#undef FGAD_MSG_ROW
};

const TypeInfo& type_info(MsgType t) {
  for (const TypeInfo& info : kTypes) {
    if (info.type == t) {
      return info;
    }
  }
  static constexpr TypeInfo kUnknown{MsgType::kError, "unknown", 0};
  return kUnknown;
}
}  // namespace

Bytes seal_message(MsgType type, BytesView payload) {
  Writer w;
  w.u16(static_cast<std::uint16_t>(type));
  w.raw(payload);
  return std::move(w).take();
}

const char* msg_type_name(MsgType t) { return type_info(t).name; }

bool is_idempotent(MsgType t) {
  return (type_info(t).traits & kIdempotent) != 0;
}

bool is_mutating(MsgType t) { return (type_info(t).traits & kMutating) != 0; }

bool is_replication(MsgType t) {
  return (type_info(t).traits & kReplication) != 0;
}

Bytes seal_tagged(std::uint64_t request_id, BytesView inner_frame) {
  Writer w;
  w.u16(static_cast<std::uint16_t>(MsgType::kTaggedEnvelope));
  w.u64(request_id);
  w.raw(inner_frame);
  return std::move(w).take();
}

Bytes seal_tagged_v2(std::uint64_t request_id, std::uint64_t span_id,
                     std::uint64_t parent_span_id,
                     const std::vector<TimingEntry>& timings,
                     BytesView inner_frame) {
  Writer w;
  w.u16(static_cast<std::uint16_t>(MsgType::kTaggedEnvelopeV2));
  w.u64(request_id);
  w.u64(span_id);
  w.u64(parent_span_id);
  w.u8(static_cast<std::uint8_t>(
      timings.size() > 255 ? 255 : timings.size()));
  std::size_t n = 0;
  for (const TimingEntry& t : timings) {
    if (n++ == 255) {
      break;
    }
    w.u8(t.kind);
    w.u64(t.ns);
  }
  w.raw(inner_frame);
  return std::move(w).take();
}

namespace {
std::uint64_t read_le64(BytesView b, std::size_t off) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(b[off + i]) << (8 * i);
  }
  return v;
}
}  // namespace

std::optional<TaggedInfo> open_tagged(BytesView framed) {
  // u16 tag type + u64 request id is the shortest shared prefix.
  if (framed.size() < 2 + 8 + 2) {
    return std::nullopt;
  }
  const auto t = static_cast<std::uint16_t>(
      framed[0] | static_cast<std::uint16_t>(framed[1]) << 8);
  TaggedInfo info;
  if (static_cast<MsgType>(t) == MsgType::kTaggedEnvelope) {
    info.request_id = read_le64(framed, 2);
    info.inner = framed.subspan(10);
    return info;
  }
  if (static_cast<MsgType>(t) != MsgType::kTaggedEnvelopeV2) {
    return std::nullopt;
  }
  // u16 | rid u64 | span u64 | parent u64 | u8 count | count×9 | inner.
  if (framed.size() < 2 + 8 + 8 + 8 + 1 + 2) {
    return std::nullopt;
  }
  info.v2 = true;
  info.request_id = read_le64(framed, 2);
  info.span_id = read_le64(framed, 10);
  info.parent_span_id = read_le64(framed, 18);
  const std::size_t count = framed[26];
  std::size_t off = 27;
  if (framed.size() < off + count * 9 + 2) {
    return std::nullopt;
  }
  info.timings.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    info.timings.push_back(
        TimingEntry{framed[off], read_le64(framed, off + 1)});
    off += 9;
  }
  info.inner = framed.subspan(off);
  return info;
}

std::optional<std::pair<std::uint64_t, BytesView>> split_tagged(
    BytesView framed) {
  if (auto info = open_tagged(framed)) {
    return std::make_pair(info->request_id, info->inner);
  }
  return std::nullopt;
}

std::optional<MsgType> peek_type(BytesView framed) {
  if (auto tag = split_tagged(framed)) {
    framed = tag->second;
  }
  if (framed.size() < 2) {
    return std::nullopt;
  }
  const auto t = static_cast<std::uint16_t>(
      framed[0] | static_cast<std::uint16_t>(framed[1]) << 8);
  if (static_cast<MsgType>(t) == MsgType::kTaggedEnvelope ||
      static_cast<MsgType>(t) == MsgType::kTaggedEnvelopeV2) {
    return std::nullopt;  // nested tags are invalid
  }
  return static_cast<MsgType>(t);
}

bool retryable_request(BytesView framed) {
  const auto t = peek_type(framed);
  if (!t.has_value()) {
    return false;
  }
  if (is_idempotent(*t)) {
    return true;
  }
  // A tagged mutation carries its request id as an idempotency token: the
  // durable server dedups it, so a resend of the identical frame is
  // applied at most once and replays the original response.
  return is_mutating(*t) && split_tagged(framed).has_value();
}

Result<Envelope> open_message(BytesView framed) {
  Reader r(framed);
  std::uint16_t t = r.u16();
  if (!r.ok()) {
    return decode_error("message too short");
  }
  Envelope env;
  if (static_cast<MsgType>(t) == MsgType::kTaggedEnvelope ||
      static_cast<MsgType>(t) == MsgType::kTaggedEnvelopeV2) {
    const auto info = open_tagged(framed);
    if (!info.has_value()) {
      return decode_error("tagged envelope: truncated");
    }
    Reader inner(info->inner);
    t = inner.u16();
    if (!inner.ok()) {
      return decode_error("tagged envelope: truncated");
    }
    if (static_cast<MsgType>(t) == MsgType::kTaggedEnvelope ||
        static_cast<MsgType>(t) == MsgType::kTaggedEnvelopeV2) {
      return decode_error("tagged envelope: nested tag");
    }
    env.request_id = info->request_id;
    env.type = static_cast<MsgType>(t);
    env.payload = inner.raw(inner.remaining());
    return env;
  }
  env.type = static_cast<MsgType>(t);
  env.payload = r.raw(r.remaining());
  return env;
}

Result<Bytes> response_payload(Envelope env, MsgType expect) {
  if (env.type == MsgType::kError) {
    Reader r(env.payload);
    auto err = ErrorMsg::from(r);
    if (!err) {
      return decode_error("malformed error response");
    }
    return Error(err.value().code, std::move(err.value().message));
  }
  if (env.type != expect) {
    return decode_error("unexpected response type");
  }
  return std::move(env.payload);
}

Bytes empty_frame(MsgType type) {
  return seal_message(type, BytesView());
}

Bytes error_frame(const Error& e) {
  return ErrorMsg{e.code, e.message}.to_frame();
}

Bytes status_frame(const Status& st, MsgType ok_type) {
  return st ? empty_frame(ok_type) : error_frame(st.error());
}

void put(Writer& w, const core::PathView& p) {
  w.u32(static_cast<std::uint32_t>(p.nodes.size()));
  for (core::NodeId v : p.nodes) {
    w.u64(v);
  }
  for (const auto& m : p.links) {
    w.md(m);
  }
}

void get(Reader& r, core::PathView& p) {
  const std::uint32_t n = r.u32();
  // Each node encodes to >= 8 bytes; bound the claim by what is present so
  // hostile counts cannot trigger huge allocations.
  if (!r.ok() || n == 0 || n > (1u << 26) || n > r.remaining() / 8 + 1) {
    r.fail();
    return;
  }
  p.nodes.resize(n);
  for (core::NodeId& v : p.nodes) {
    v = r.u64();
  }
  p.links.resize(n - 1);
  for (crypto::Md& m : p.links) {
    m = r.md();
  }
}

// ---- field lists ------------------------------------------------------------
//
// Count caps: 2^26 for tree-shaped lists (paths, cuts, deltas), 2^32 for
// per-item lists, 2^22 for audit batches.

namespace {
constexpr std::uint64_t kTree = 1ull << 26;
constexpr std::uint64_t kItems = 1ull << 32;
constexpr std::uint64_t kAudit = 1ull << 22;
using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
}  // namespace

FGAD_FIELDS(core::CutEntry, &S::node, &S::link, when(&S::is_leaf, &S::leaf_mod))
FGAD_FIELDS(core::AccessInfo, &S::path, &S::leaf_mod, &S::item_id,
            &S::ciphertext)
FGAD_FIELDS(core::DeleteInfo, &S::path, &S::leaf_mod, list<u32>(&S::cut, kTree),
            &S::item_id, &S::ciphertext,
            when(&S::has_balance, &S::t_path, &S::t_leaf_mod, &S::s_link,
                 &S::s_leaf_mod))
FGAD_FIELDS(core::DeleteCommit, &S::leaf, list<u32>(&S::deltas, kTree),
            when(&S::has_balance, &S::promoted_leaf_mod,
                 when(&S::has_step2, &S::t_new_link, &S::t_new_leaf_mod)))
FGAD_FIELDS(core::DeleteManyInfo::Target, &S::path, &S::leaf_mod, &S::item_id,
            &S::ciphertext)
FGAD_FIELDS(core::DeleteManyInfo::Mover, &S::path, &S::leaf_mod)
FGAD_FIELDS(core::DeleteManyInfo, &S::node_count,
            list<u32>(&S::targets, kTree, kNonEmpty), list<u32>(&S::cut, kTree),
            list<u32>(&S::hole_paths, kTree), list<u32>(&S::movers, kTree))
FGAD_FIELDS(core::DeleteManyCommit::Reloc, &S::new_leaf_mod,
            when(&S::has_new_link, &S::new_link))
FGAD_FIELDS(core::DeleteManyCommit, list<u32>(&S::leaves, kTree, kNonEmpty),
            list<u32>(&S::deltas, kTree), list<u32>(&S::relocs, kTree))
FGAD_FIELDS(core::InsertInfo,
            either(&S::empty_tree, std::tuple(),
                   std::tuple(&S::q_path, &S::q_leaf_mod)))
FGAD_FIELDS(core::InsertCommit,
            either(&S::empty_tree, std::tuple(&S::root_leaf_mod),
                   std::tuple(&S::q, &S::left_link, &S::right_link,
                              &S::moved_leaf_mod, &S::new_leaf_mod)),
            &S::item_id, &S::ciphertext, &S::plain_size, &S::after_item_id)
FGAD_FIELDS(OutsourceReq::Item, &S::item_id, &S::ciphertext, &S::plain_size)
FGAD_FIELDS(FetchItemsResp::Entry, &S::item_id, &S::leaf, &S::ciphertext)
FGAD_FIELDS(AuditResp::Entry, &S::item_id, &S::leaf,
            when(&S::has_ciphertext, &S::ciphertext), &S::leaf_hash,
            list<u8>(&S::siblings, 255))
FGAD_FIELDS(KvGetRangeResp::Entry, &S::key, &S::value)
FGAD_FIELDS(ReplRecord, &S::lsn, &S::request)

FGAD_MESSAGE(ErrorMsg, kError, as_enum<u16>(&S::code), &S::message)
FGAD_MESSAGE(OutsourceReq, kOutsourceReq, &S::file_id, &S::tree_blob,
             list<u64>(&S::items, kItems))
FGAD_MESSAGE(AccessReq, kAccessReq, &S::file_id, &S::ref)
FGAD_MESSAGE(AccessResp, kAccessResp, &S::info)
FGAD_MESSAGE(ModifyReq, kModifyReq, &S::file_id, &S::item_id, &S::ciphertext,
             &S::plain_size)
FGAD_MESSAGE(InsertBeginReq, kInsertBeginReq, &S::file_id)
FGAD_MESSAGE(InsertBeginResp, kInsertBeginResp, &S::info)
FGAD_MESSAGE(InsertCommitReq, kInsertCommitReq, &S::file_id, &S::commit)
FGAD_MESSAGE(DeleteBeginReq, kDeleteBeginReq, &S::file_id, &S::ref)
FGAD_MESSAGE(DeleteBeginResp, kDeleteBeginResp, &S::info)
FGAD_MESSAGE(DeleteCommitReq, kDeleteCommitReq, &S::file_id, &S::commit)
FGAD_MESSAGE(DeleteManyBeginReq, kDeleteManyBeginReq, &S::file_id,
             list<u32>(&S::refs, kTree, kNonEmpty))
FGAD_MESSAGE(DeleteManyBeginResp, kDeleteManyBeginResp, &S::info)
FGAD_MESSAGE(DeleteManyCommitReq, kDeleteManyCommitReq, &S::file_id,
             &S::commit)
FGAD_MESSAGE(FetchTreeReq, kFetchTreeReq, &S::file_id)
FGAD_MESSAGE(FetchTreeResp, kFetchTreeResp, &S::tree_blob)
FGAD_MESSAGE(FetchItemsReq, kFetchItemsReq, &S::file_id, &S::start_ordinal,
             &S::max_count)
FGAD_MESSAGE(FetchItemsResp, kFetchItemsResp, list<u64>(&S::items, kItems),
             &S::more)
FGAD_MESSAGE(ListItemsReq, kListItemsReq, &S::file_id)
FGAD_MESSAGE(ListItemsResp, kListItemsResp, list<u64>(&S::ids, kItems))
FGAD_MESSAGE(DropFileReq, kDropFileReq, &S::file_id)
FGAD_MESSAGE(StatReq, kStatReq, &S::file_id)
FGAD_MESSAGE(StatResp, kStatResp, &S::n_items, &S::node_count, &S::tree_bytes)
FGAD_MESSAGE(AuditReq, kAuditReq, &S::file_id, &S::by_leaf,
             &S::include_ciphertext, list<u32>(&S::targets, kAudit))
// Entries are bounded at 20 bytes each rather than their minimum of 19: a
// real entry carries a 20- or 32-byte leaf hash, far above either bound.
FGAD_MESSAGE(AuditResp, kAuditResp, &S::root,
             list<u32>(&S::entries, kAudit, /*nonempty=*/false,
                       /*min_elem=*/20))
FGAD_MESSAGE(KvPutReq, kKvPutReq, &S::table, &S::key, &S::value)
FGAD_MESSAGE(KvGetReq, kKvGetReq, &S::table, &S::key)
FGAD_MESSAGE(KvGetResp, kKvGetResp, &S::found, &S::value)
FGAD_MESSAGE(KvDeleteReq, kKvDeleteReq, &S::table, &S::key)
FGAD_MESSAGE(KvGetRangeReq, kKvGetRangeReq, &S::table, &S::start_key,
             &S::max_count)
FGAD_MESSAGE(KvGetRangeResp, kKvGetRangeResp, list<u64>(&S::entries, kItems),
             &S::more)
FGAD_MESSAGE(KvPutBatchReq, kKvPutBatchReq, &S::table,
             list<u64>(&S::entries, kItems))
FGAD_MESSAGE(ReplAppend, kReplAppend, &S::term, &S::prev_lsn,
             list<u64>(&S::records, kItems))
FGAD_MESSAGE(ReplAck, kReplAck, &S::term, &S::last_lsn,
             as_enum<u8>(&S::code, ReplAck::Code::kNeedSnapshot))
FGAD_MESSAGE(ReplSnapshot, kReplSnapshot, &S::term, &S::last_lsn, &S::image,
             &S::dedup)
FGAD_MESSAGE(ReplHeartbeat, kReplHeartbeat, &S::term, &S::last_lsn)

}  // namespace fgad::proto
