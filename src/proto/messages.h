// Protocol messages between the client and the cloud server.
//
// Transport-agnostic: a message is (type, payload) sealed into one framed
// byte string. Multi-round operations follow the paper's exchanges:
//
//   delete:  DeleteBeginReq -> DeleteBeginResp{MT(k) + balancing branch}
//            DeleteCommitReq{deltas + balancing mods} -> DeleteCommitResp
//   insert:  InsertBeginReq -> InsertBeginResp{P(q)}
//            InsertCommitReq{new mods + ciphertext} -> InsertCommitResp
//   access:  AccessReq -> AccessResp{P(k) + ciphertext}
//   modify:  ModifyReq{re-encrypted ciphertext} -> ModifyResp
//
// The Kv* family is a plain blob table used by the baseline solutions of
// Section III (they have no modulation tree; the server is just storage).
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/views.h"
#include "proto/wire.h"

namespace fgad::proto {

// Every message type, once: X(enumerator, wire value, name, traits). The
// traits mark read-only requests that are safe to resend after a transport
// failure (kIdempotent, DESIGN.md §11), requests that mutate server state,
// which the durability layer WAL-logs and deduplicates (kMutating,
// DESIGN.md §13), and the replication stream (kReplication).
//
//   1-28    the paper's exchanges; 25-28 are merged-cut bulk deletion (m
//           items of one file, one fresh master key, one delta bundle, one
//           commit round trip; DESIGN.md §16)
//   30-39   the Kv blob table of the Section III baselines
//   60-73   the local key proxy (Section V: a proxy holds the control key
//           and acts on users' behalf); structs in fskeys/proxy.h
//   80-81   integrity (PDP/PoR substrate): membership-proof queries
//   90-91   the tagged envelopes below
//   100-103 primary–backup WAL replication (DESIGN.md §18), only on the
//           server-to-server link; a plain CloudServer rejects them
//
// kTaggedEnvelope (DESIGN.md §12) wraps any other frame with a
// client-generated request id for cross-party log/trace correlation:
// u16 kTaggedEnvelope | u64 request_id | inner frame (u16 type + payload).
// kTaggedEnvelopeV2 (DESIGN.md §19) also carries the sender's span context
// and, on responses, a server-timing trailer: u16 kTaggedEnvelopeV2 | u64
// request_id | u64 span_id | u64 parent_span_id | u8 n_timing | n_timing ×
// (u8 kind | u64 ns) | inner frame. Requests set n_timing = 0; a server
// response echoes the request id, sets span_id to the request's span_id,
// and appends one timing entry per cost-ledger bucket (obs::CostKind).
// Untagged and V1-tagged traffic is untouched on the wire, so peers that
// never tag see byte-identical frames.
#define FGAD_MSG_TYPES(X)                                        \
  X(kError, 0, error, 0)                                         \
  X(kOutsourceReq, 1, outsource_req, kMutating)                  \
  X(kOutsourceResp, 2, outsource_resp, 0)                        \
  X(kAccessReq, 3, access_req, kIdempotent)                      \
  X(kAccessResp, 4, access_resp, 0)                              \
  X(kModifyReq, 5, modify_req, kMutating)                        \
  X(kModifyResp, 6, modify_resp, 0)                              \
  X(kInsertBeginReq, 7, insert_begin_req, 0)                     \
  X(kInsertBeginResp, 8, insert_begin_resp, 0)                   \
  X(kInsertCommitReq, 9, insert_commit_req, kMutating)           \
  X(kInsertCommitResp, 10, insert_commit_resp, 0)                \
  X(kDeleteBeginReq, 11, delete_begin_req, 0)                    \
  X(kDeleteBeginResp, 12, delete_begin_resp, 0)                  \
  X(kDeleteCommitReq, 13, delete_commit_req, kMutating)          \
  X(kDeleteCommitResp, 14, delete_commit_resp, 0)                \
  X(kFetchTreeReq, 15, fetch_tree_req, kIdempotent)              \
  X(kFetchTreeResp, 16, fetch_tree_resp, 0)                      \
  X(kFetchItemsReq, 17, fetch_items_req, kIdempotent)            \
  X(kFetchItemsResp, 18, fetch_items_resp, 0)                    \
  X(kListItemsReq, 19, list_items_req, kIdempotent)              \
  X(kListItemsResp, 20, list_items_resp, 0)                      \
  X(kDropFileReq, 21, drop_file_req, kMutating)                  \
  X(kDropFileResp, 22, drop_file_resp, 0)                        \
  X(kStatReq, 23, stat_req, kIdempotent)                         \
  X(kStatResp, 24, stat_resp, 0)                                 \
  X(kDeleteManyBeginReq, 25, delete_many_begin_req, 0)           \
  X(kDeleteManyBeginResp, 26, delete_many_begin_resp, 0)         \
  X(kDeleteManyCommitReq, 27, delete_many_commit_req, kMutating) \
  X(kDeleteManyCommitResp, 28, delete_many_commit_resp, 0)       \
  X(kKvPutReq, 30, kv_put_req, kMutating)                        \
  X(kKvPutResp, 31, kv_put_resp, 0)                              \
  X(kKvGetReq, 32, kv_get_req, kIdempotent)                      \
  X(kKvGetResp, 33, kv_get_resp, 0)                              \
  X(kKvDeleteReq, 34, kv_delete_req, kMutating)                  \
  X(kKvDeleteResp, 35, kv_delete_resp, 0)                        \
  X(kKvGetRangeReq, 36, kv_get_range_req, kIdempotent)           \
  X(kKvGetRangeResp, 37, kv_get_range_resp, 0)                   \
  X(kKvPutBatchReq, 38, kv_put_batch_req, kMutating)             \
  X(kKvPutBatchResp, 39, kv_put_batch_resp, 0)                   \
  X(kPxCreateFileReq, 60, px_create_file_req, 0)                 \
  X(kPxCreateFileResp, 61, px_create_file_resp, 0)               \
  X(kPxAccessReq, 62, px_access_req, kIdempotent)                \
  X(kPxAccessResp, 63, px_access_resp, 0)                        \
  X(kPxInsertReq, 64, px_insert_req, 0)                          \
  X(kPxInsertResp, 65, px_insert_resp, 0)                        \
  X(kPxEraseReq, 66, px_erase_req, 0)                            \
  X(kPxEraseResp, 67, px_erase_resp, 0)                          \
  X(kPxModifyReq, 68, px_modify_req, 0)                          \
  X(kPxModifyResp, 69, px_modify_resp, 0)                        \
  X(kPxDeleteFileReq, 70, px_delete_file_req, 0)                 \
  X(kPxDeleteFileResp, 71, px_delete_file_resp, 0)               \
  X(kPxListFilesReq, 72, px_list_files_req, kIdempotent)         \
  X(kPxListFilesResp, 73, px_list_files_resp, 0)                 \
  X(kAuditReq, 80, audit_req, kIdempotent)                       \
  X(kAuditResp, 81, audit_resp, 0)                               \
  X(kTaggedEnvelope, 90, tagged_envelope, 0)                     \
  X(kTaggedEnvelopeV2, 91, tagged_envelope_v2, 0)                \
  X(kReplAppend, 100, repl_append, kReplication)                 \
  X(kReplAck, 101, repl_ack, kReplication)                       \
  X(kReplSnapshot, 102, repl_snapshot, kReplication)             \
  X(kReplHeartbeat, 103, repl_heartbeat, kReplication)

enum class MsgType : std::uint16_t {
#define FGAD_MSG_ENUM(e, value, name, traits) e = value,
  FGAD_MSG_TYPES(FGAD_MSG_ENUM)
#undef FGAD_MSG_ENUM
};

/// Frames a payload with its message type (u16 prefix).
Bytes seal_message(MsgType type, BytesView payload);

/// Wraps an already-sealed frame in a kTaggedEnvelope carrying
/// `request_id` (see MsgType::kTaggedEnvelope).
Bytes seal_tagged(std::uint64_t request_id, BytesView inner_frame);

/// One server-timing trailer entry on a kTaggedEnvelopeV2 response.
/// `kind` is a stable wire code (obs::CostKind ordinal), `ns` the
/// attributed nanoseconds.
struct TimingEntry {
  std::uint8_t kind = 0;
  std::uint64_t ns = 0;
};

/// Fully decoded kTaggedEnvelope / kTaggedEnvelopeV2 header. V1 frames
/// decode with zero span ids and no timings.
struct TaggedInfo {
  std::uint64_t request_id = 0;
  std::uint64_t span_id = 0;         // sender's active span (0 = none)
  std::uint64_t parent_span_id = 0;  // its parent (0 = root)
  bool v2 = false;                   // arrived as kTaggedEnvelopeV2
  std::vector<TimingEntry> timings;  // responses only; empty on requests
  BytesView inner;
};

/// Wraps an already-sealed frame in a kTaggedEnvelopeV2 carrying the
/// request id, the sender's span context, and (for responses) a
/// server-timing trailer.
Bytes seal_tagged_v2(std::uint64_t request_id, std::uint64_t span_id,
                     std::uint64_t parent_span_id,
                     const std::vector<TimingEntry>& timings,
                     BytesView inner_frame);

/// Decodes either tagged envelope version; nullopt for untagged frames,
/// truncated headers, or a V2 header whose timing table overruns the
/// frame.
std::optional<TaggedInfo> open_tagged(BytesView framed);

/// If `framed` is a tagged envelope (either version), returns
/// {request_id, inner frame view}; nullopt for untagged or too-short
/// frames.
std::optional<std::pair<std::uint64_t, BytesView>> split_tagged(
    BytesView framed);

/// Peeks the message type of a sealed frame, looking through one tagged
/// envelope; nullopt on frames too short to carry a type.
std::optional<MsgType> peek_type(BytesView framed);

/// Human-readable snake_case name of a message type ("access_req", ...);
/// "unknown" for unassigned values.
const char* msg_type_name(MsgType t);

/// True for read-only request types that are safe to resend after a
/// transport failure (access, audit, fetches, stats, kv reads) even
/// without an idempotency token (DESIGN.md §11).
bool is_idempotent(MsgType t);

/// True for request types that mutate server state (outsource, modify,
/// insert/delete commits, drop, kv writes). These are the RPCs the
/// durability layer WAL-logs and deduplicates (DESIGN.md §13).
bool is_mutating(MsgType t);

/// True for the primary-to-follower replication messages (DESIGN.md §18).
bool is_replication(MsgType t);

/// Retry predicate over a sealed request frame (peeks the u16 type);
/// false on malformed frames. Read-only requests always retry. A mutating
/// request retries only when it is wrapped in a tagged envelope: the
/// request id doubles as an idempotency token — a durable server
/// (cloud::DurableServer) replays the cached response instead of applying
/// the mutation twice, so resending after a timeout, reset, or server
/// crash converges to exactly-once application (DESIGN.md §13). Untagged
/// mutations keep the old never-resend behavior.
bool retryable_request(BytesView framed);

struct Envelope {
  MsgType type;
  Bytes payload;
  /// Present when the frame arrived wrapped in a kTaggedEnvelope;
  /// open_message unwraps the tag transparently.
  std::optional<std::uint64_t> request_id;
};
Result<Envelope> open_message(BytesView framed);

/// The payload of a response expected to be of type `expect`. A kError
/// response yields the Error it carries; any other type is a kDecodeError.
Result<Bytes> response_payload(Envelope env, MsgType expect);

// ---- messages --------------------------------------------------------------

struct ErrorMsg {
  Errc code = Errc::kIoError;
  std::string message;
  Bytes to_frame() const;
  static Result<ErrorMsg> from(Reader& r);
};

/// Item addressing (paper Section IV-C): by unique record id r, by ordinal
/// position in file order, or by byte offset into the plaintext file (the
/// server scans the items, accumulating their stored plaintext sizes, until
/// the offset falls inside one — footnote 2 of the paper).
enum class RefKind : std::uint8_t {
  kId = 0,
  kOrdinal = 1,
  kByteOffset = 2,
};

struct ItemRef {
  RefKind kind = RefKind::kId;
  std::uint64_t value = 0;

  static ItemRef id(std::uint64_t v) { return ItemRef{RefKind::kId, v}; }
  static ItemRef ordinal(std::uint64_t v) {
    return ItemRef{RefKind::kOrdinal, v};
  }
  static ItemRef byte_offset(std::uint64_t v) {
    return ItemRef{RefKind::kByteOffset, v};
  }
};

struct OutsourceReq {
  std::uint64_t file_id = 0;
  Bytes tree_blob;  // serialized ModulationTree (leaf item_slot = item index)
  struct Item {
    std::uint64_t item_id;
    Bytes ciphertext;
    std::uint64_t plain_size;
  };
  std::vector<Item> items;
  Bytes to_frame() const;
  static Result<OutsourceReq> from(Reader& r);
};

struct AccessReq {
  std::uint64_t file_id = 0;
  ItemRef ref;
  Bytes to_frame() const;
  static Result<AccessReq> from(Reader& r);
};

struct AccessResp {
  core::AccessInfo info;
  Bytes to_frame() const;
  static Result<AccessResp> from(Reader& r);
};

struct ModifyReq {
  std::uint64_t file_id = 0;
  std::uint64_t item_id = 0;
  Bytes ciphertext;
  std::uint64_t plain_size = 0;
  Bytes to_frame() const;
  static Result<ModifyReq> from(Reader& r);
};

struct InsertBeginReq {
  std::uint64_t file_id = 0;
  Bytes to_frame() const;
  static Result<InsertBeginReq> from(Reader& r);
};

struct InsertBeginResp {
  core::InsertInfo info;
  Bytes to_frame() const;
  static Result<InsertBeginResp> from(Reader& r);
};

struct InsertCommitReq {
  std::uint64_t file_id = 0;
  core::InsertCommit commit;
  Bytes to_frame() const;
  static Result<InsertCommitReq> from(Reader& r);
};

struct DeleteBeginReq {
  std::uint64_t file_id = 0;
  ItemRef ref;
  Bytes to_frame() const;
  static Result<DeleteBeginReq> from(Reader& r);
};

struct DeleteBeginResp {
  core::DeleteInfo info;
  Bytes to_frame() const;
  static Result<DeleteBeginResp> from(Reader& r);
};

struct DeleteCommitReq {
  std::uint64_t file_id = 0;
  core::DeleteCommit commit;
  Bytes to_frame() const;
  static Result<DeleteCommitReq> from(Reader& r);
};

struct DeleteManyBeginReq {
  std::uint64_t file_id = 0;
  std::vector<ItemRef> refs;  // >= 1, must resolve to distinct items
  Bytes to_frame() const;
  static Result<DeleteManyBeginReq> from(Reader& r);
};

struct DeleteManyBeginResp {
  core::DeleteManyInfo info;
  Bytes to_frame() const;
  static Result<DeleteManyBeginResp> from(Reader& r);
};

struct DeleteManyCommitReq {
  std::uint64_t file_id = 0;
  core::DeleteManyCommit commit;
  Bytes to_frame() const;
  static Result<DeleteManyCommitReq> from(Reader& r);
};

struct FetchTreeReq {
  std::uint64_t file_id = 0;
  Bytes to_frame() const;
  static Result<FetchTreeReq> from(Reader& r);
};

struct FetchTreeResp {
  Bytes tree_blob;
  Bytes to_frame() const;
  static Result<FetchTreeResp> from(Reader& r);
};

struct FetchItemsReq {
  std::uint64_t file_id = 0;
  std::uint64_t start_ordinal = 0;
  std::uint32_t max_count = 0;  // 0 = all
  Bytes to_frame() const;
  static Result<FetchItemsReq> from(Reader& r);
};

struct FetchItemsResp {
  struct Entry {
    std::uint64_t item_id;
    core::NodeId leaf;
    Bytes ciphertext;
  };
  std::vector<Entry> items;
  bool more = false;
  Bytes to_frame() const;
  static Result<FetchItemsResp> from(Reader& r);
};

struct ListItemsReq {
  std::uint64_t file_id = 0;
  Bytes to_frame() const;
  static Result<ListItemsReq> from(Reader& r);
};

struct ListItemsResp {
  std::vector<std::uint64_t> ids;  // file order
  Bytes to_frame() const;
  static Result<ListItemsResp> from(Reader& r);
};

struct DropFileReq {
  std::uint64_t file_id = 0;
  Bytes to_frame() const;
  static Result<DropFileReq> from(Reader& r);
};

struct StatReq {
  std::uint64_t file_id = 0;
  Bytes to_frame() const;
  static Result<StatReq> from(Reader& r);
};

struct StatResp {
  std::uint64_t n_items = 0;
  std::uint64_t node_count = 0;
  std::uint64_t tree_bytes = 0;
  Bytes to_frame() const;
  static Result<StatResp> from(Reader& r);
};

// ---- integrity audits --------------------------------------------------------

struct AuditReq {
  std::uint64_t file_id = 0;
  bool by_leaf = false;  // targets are leaf node ids instead of item ids
  bool include_ciphertext = false;
  std::vector<std::uint64_t> targets;
  Bytes to_frame() const;
  static Result<AuditReq> from(Reader& r);
};

struct AuditResp {
  crypto::Md root;  // the server's claimed root (informational)
  struct Entry {
    std::uint64_t item_id = 0;
    std::uint64_t leaf = 0;
    bool has_ciphertext = false;
    Bytes ciphertext;
    crypto::Md leaf_hash;
    std::vector<crypto::Md> siblings;  // bottom-up membership proof
  };
  std::vector<Entry> entries;
  Bytes to_frame() const;
  static Result<AuditResp> from(Reader& r);
};

// ---- Kv blob table (baseline substrate) -----------------------------------

struct KvPutReq {
  std::uint64_t table = 0;
  std::uint64_t key = 0;
  Bytes value;
  Bytes to_frame() const;
  static Result<KvPutReq> from(Reader& r);
};

struct KvGetReq {
  std::uint64_t table = 0;
  std::uint64_t key = 0;
  Bytes to_frame() const;
  static Result<KvGetReq> from(Reader& r);
};

struct KvGetResp {
  bool found = false;
  Bytes value;
  Bytes to_frame() const;
  static Result<KvGetResp> from(Reader& r);
};

struct KvDeleteReq {
  std::uint64_t table = 0;
  std::uint64_t key = 0;
  Bytes to_frame() const;
  static Result<KvDeleteReq> from(Reader& r);
};

struct KvGetRangeReq {
  std::uint64_t table = 0;
  std::uint64_t start_key = 0;
  std::uint32_t max_count = 0;
  Bytes to_frame() const;
  static Result<KvGetRangeReq> from(Reader& r);
};

struct KvGetRangeResp {
  struct Entry {
    std::uint64_t key;
    Bytes value;
  };
  std::vector<Entry> entries;
  bool more = false;
  Bytes to_frame() const;
  static Result<KvGetRangeResp> from(Reader& r);
};

struct KvPutBatchReq {
  std::uint64_t table = 0;
  std::vector<KvGetRangeResp::Entry> entries;
  Bytes to_frame() const;
  static Result<KvPutBatchReq> from(Reader& r);
};

// ---- primary–backup replication (DESIGN.md §18) ---------------------------
//
// The primary streams its WAL to the follower as ReplAppend batches; every
// replication request is answered by a ReplAck (or an ErrorMsg carrying
// kStaleTerm when fencing rejects the sender). ReplSnapshot ships a full
// checkpoint image when the follower is too far behind for log shipping.

/// One WAL record: the LSN the primary assigned plus the original client
/// request frame (tagged envelope included, so the follower's RidDedup
/// table stays byte-identical to the primary's).
struct ReplRecord {
  std::uint64_t lsn = 0;
  Bytes request;
};

struct ReplAppend {
  std::uint64_t term = 0;      // sender's fencing term
  std::uint64_t prev_lsn = 0;  // lsn immediately before records[0]
  std::vector<ReplRecord> records;
  Bytes to_frame() const;
  static Result<ReplAppend> from(Reader& r);
};

struct ReplAck {
  /// Follower asks for a full checkpoint ship when log records alone
  /// cannot bridge the gap between its last LSN and the primary's stream.
  enum class Code : std::uint8_t { kOk = 0, kNeedSnapshot = 1 };
  std::uint64_t term = 0;      // receiver's fencing term
  std::uint64_t last_lsn = 0;  // receiver's highest durable lsn
  Code code = Code::kOk;
  Bytes to_frame() const;
  static Result<ReplAck> from(Reader& r);
};

struct ReplSnapshot {
  std::uint64_t term = 0;
  std::uint64_t last_lsn = 0;  // lsn the image is consistent through
  Bytes image;                 // CloudServer::save bytes
  Bytes dedup;                 // RidDedup::serialize bytes
  Bytes to_frame() const;
  static Result<ReplSnapshot> from(Reader& r);
};

struct ReplHeartbeat {
  std::uint64_t term = 0;
  std::uint64_t last_lsn = 0;  // sender's highest assigned lsn
  Bytes to_frame() const;
  static Result<ReplHeartbeat> from(Reader& r);
};

/// Empty-payload response frame for the given type.
Bytes empty_frame(MsgType type);

/// An ErrorMsg frame carrying `e`.
Bytes error_frame(const Error& e);

/// empty_frame(ok_type) when `st` is OK, else the error_frame of `st`.
Bytes status_frame(const Status& st, MsgType ok_type);

}  // namespace fgad::proto
