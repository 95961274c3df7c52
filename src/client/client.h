// The client — the first party of the two-party scheme.
//
// Holds the master key of each outsourced file (and nothing else that
// grows with file size), performs every cryptographic step of the protocol
// (key derivation, MT(k) verification, delta computation, sealing/opening
// items), and talks to the cloud through an RpcChannel.
//
// Security behaviours implemented here, per the paper:
//   * master keys live in self-wiping MasterKey objects; a deletion rotates
//     the key only after the server confirms the commit, and the old key is
//     cleansed in place;
//   * every server response is verified (path distinctness, geometry,
//     ciphertext hash, counter echo) before the client acts on it;
//   * the client re-runs an operation with fresh randomness when the server
//     reports a duplicate modulator;
//   * a global counter r makes every sealed record unique.
//
// compute_timer() accumulates pure client-side computation time — the
// paper's "computation overhead" metric (Figure 6, Tables II-III).
#pragma once

#include <functional>

#include "common/stopwatch.h"
#include "core/batch_derive.h"
#include "core/client_math.h"
#include "core/item_codec.h"
#include "core/outsource.h"
#include "core/prefix_cache.h"
#include "crypto/secure_buffer.h"
#include "net/transport.h"
#include "proto/messages.h"

namespace fgad::client {

class Client {
 public:
  struct Options {
    crypto::HashAlg alg = crypto::HashAlg::kSha1;
    // Duplicate-modulator re-run bound: 1 initial attempt plus up to
    // max_retries re-runs with fresh randomness (0 = try exactly once).
    int max_retries = 8;
    // Worker threads for whole-file derivation / sealing / unsealing:
    // 0 = hardware_concurrency, 1 = the seed's sequential pass. Results
    // are byte-identical at every setting.
    std::size_t threads = 0;
    // Wrap every mutating RPC in a tagged envelope with a fresh request
    // id even when no trace is active. Against a durable server
    // (cloud::DurableServer) the id doubles as an idempotency token, so
    // net::FailoverChannel may resend deletions/insertions after transport
    // failures with exactly-once semantics (DESIGN.md §13). Off by
    // default: untagged traffic stays byte-identical to the seed wire
    // protocol.
    bool tag_mutations = false;
  };

  Client(net::RpcChannel& channel, crypto::RandomSource& rnd)
      : Client(channel, rnd, Options()) {}
  Client(net::RpcChannel& channel, crypto::RandomSource& rnd, Options opts);

  /// Client-held state for one outsourced file: its id, master key, and
  /// the path-prefix cache bound to the current key epoch, so repeated
  /// single-item access/modify costs O(1) hashes amortized instead of
  /// O(log n). The cache is mutable so read-style operations (access) can
  /// warm it; the client invalidates it on re-key and on structural
  /// mutations.
  ///
  /// `poisoned` is set when a key-rotating commit's outcome is unknown
  /// (the transport failed after the request may have been sent): the
  /// handle then holds BOTH candidate keys — `key` (pre-rotation) and
  /// `pending_key` (the fresh key the lost commit would have installed) —
  /// and every operation except drop_file fails fast with kIndeterminate
  /// until resync() determines which epoch the server is in.
  struct FileHandle {
    std::uint64_t id = 0;
    crypto::MasterKey key;
    mutable core::PrefixCache cache;
    bool poisoned = false;
    crypto::MasterKey pending_key;
  };

  // ---- operations ---------------------------------------------------------

  /// Encrypts `n_items` items (supplied by `item_at`) under a fresh master
  /// key, builds the modulation tree, and ships everything to the cloud.
  Result<FileHandle> outsource(std::uint64_t file_id, std::size_t n_items,
                               const std::function<Bytes(std::size_t)>& item_at);
  Result<FileHandle> outsource(std::uint64_t file_id,
                               std::span<const Bytes> items);

  /// Fetches and decrypts one item.
  Result<Bytes> access(const FileHandle& fh, proto::ItemRef ref);

  /// Replaces an item's content (same data key, fresh IV), Section IV-E.
  Status modify(const FileHandle& fh, std::uint64_t item_id,
                BytesView new_content);

  /// Bulk upload: pipelined modify of many items of one file. Both
  /// phases (access fetch, re-sealed upload) go through the channel's
  /// batched path, so against a TcpChannel + reactor server all frames
  /// of a phase are in flight at once and the server's group committer
  /// amortizes one fsync over the batch. Item ids must be distinct
  /// (modify does not touch the tree, so items are independent).
  Status modify_batch(
      const FileHandle& fh,
      std::span<const std::pair<std::uint64_t, Bytes>> updates);

  /// Inserts a new item; returns its unique id r. `after_item_id` positions
  /// it in file order (kAppend = end of file).
  Result<std::uint64_t> insert(
      const FileHandle& fh, BytesView content,
      std::uint64_t after_item_id = core::InsertCommit::kAppend);

  /// Fine-grained assured deletion of one item (Sections IV-C/IV-D): picks
  /// a fresh master key, sends the modulator deltas, and rotates the handle
  /// key — securely destroying the old one — once the server commits.
  Status erase_item(FileHandle& fh, proto::ItemRef ref);

  /// Merged-cut bulk deletion of many items of ONE file (DESIGN.md §16):
  /// a single begin/commit exchange deletes every referenced item under
  /// one fresh master key. The deltas cover the union of the targets'
  /// sibling cuts — |cut| ≤ m·ceil(log2(n/m)) — so m deletions cost one
  /// round trip and ONE key rotation instead of m. Refs must resolve to
  /// distinct items. If the server keeps reporting modulator collisions
  /// past the retry bound, the items are deleted sequentially via
  /// erase_item (each rotating its own key).
  Status erase_items(FileHandle& fh, std::span<const proto::ItemRef> refs);

  /// Batched assured deletion: refs of DISTINCT files pipeline their
  /// begin and commit phases over the channel's batched path; refs that
  /// share a file are grouped and deleted through the merged-cut bulk
  /// path (erase_items), one group at a time. `files[i]` is the handle
  /// for `refs[i]`; a key is rotated if and only if that file's commit
  /// succeeded. Per-file duplicate-modulator rejections fall back to the
  /// sequential erase_item retry loop; the first other failure is
  /// returned after every file has been attempted. If the pipelined
  /// commit phase fails wholesale in transport, every staged handle is
  /// poisoned (see FileHandle) and kIndeterminate is returned.
  Status erase_batch(std::span<FileHandle* const> files,
                     std::span<const proto::ItemRef> refs);

  /// Recovers a poisoned handle: asks the server which key epoch it is
  /// in (by test-decrypting a surviving item, or by observing the file
  /// emptied) and adopts the matching key, clearing the poison. A
  /// transport failure leaves the handle poisoned; retry when the
  /// server is reachable.
  Status resync(FileHandle& fh);

  /// Whole-file access (Table III): fetches the modulation tree and all
  /// ciphertexts, derives every data key in one pass, and decrypts.
  struct FetchedFile {
    std::vector<std::pair<std::uint64_t, Bytes>> items;  // (id, plaintext)
    std::size_t tree_bytes = 0;      // communication overhead numerator
    std::size_t file_bytes = 0;      // total ciphertext payload
    double key_derive_seconds = 0;   // computation overhead numerator
    double decrypt_seconds = 0;      // computation overhead denominator
  };
  Result<FetchedFile> fetch_all(const FileHandle& fh);

  /// Server-side size statistics for one file (item count, tree nodes,
  /// serialized tree bytes) — backs `fgad_cli stats`.
  Result<proto::StatResp> stat(std::uint64_t file_id);

  /// Item ids in file order.
  Result<std::vector<std::uint64_t>> list_items(const FileHandle& fh);

  /// Makes the entire file inaccessible (drops it server-side; the caller
  /// destroys the handle, wiping the master key).
  Status drop_file(FileHandle& fh);

  // ---- metrics & internals --------------------------------------------------

  CumulativeTimer& compute_timer() { return compute_timer_; }
  std::uint64_t counter() const { return counter_; }
  void set_counter(std::uint64_t c) { counter_ = c; }

  /// Server-timing trailer of the most recent traced RPC's V2 response:
  /// the server's per-request cost breakdown (kind = obs::CostKind
  /// ordinal, value = nanoseconds). Empty until a traced RPC returns one.
  const std::vector<proto::TimingEntry>& last_server_timing() const {
    return last_server_timing_;
  }

  const core::ClientMath& math() const { return math_; }
  const core::ItemCodec& codec() const { return codec_; }
  const core::BatchDeriver& deriver() const { return batch_; }

 private:
  Result<Bytes> call(BytesView frame, proto::MsgType expect);

  /// Fail-fast guard: kIndeterminate while `fh` is poisoned.
  Status check_handle(const FileHandle& fh) const;

  /// A deletion verified against the server's begin response, ready to
  /// send: the fresh master key K' and the commit frame that installs it.
  struct ErasePlan {
    crypto::MasterKey fresh;
    Bytes commit;
  };

  /// Plans one deletion: draws K' (again on an F(K',M_k) collision),
  /// computes the deltas, and accepts the response only if MT(k) opens
  /// the target to a record echoing its item id (Theorem 2's wrong-leaf
  /// defence).
  Result<ErasePlan> plan_erase(const FileHandle& fh,
                               const core::DeleteInfo& info);
  /// The same for a merged-cut bundle (DESIGN.md §16): one K' for every
  /// target, and every target must open.
  Result<ErasePlan> plan_erase_many(const FileHandle& fh,
                                    const core::DeleteManyInfo& info);

  /// Applies a key-rotating commit's outcome to `fh`; the only code that
  /// moves a fresh key into a handle or poisons one. Committed: K' becomes
  /// the key and K is destroyed. Outcome unknown (the transport died with
  /// the commit in flight, or the response was unreadable): the handle
  /// keeps both keys, is poisoned, and kIndeterminate is returned. Any
  /// other error means the commit did not apply: K stays and the error
  /// is returned (kDuplicateModulator asks for a re-plan).
  Status settle(FileHandle& fh, crypto::MasterKey&& fresh,
                const Status& outcome);

  /// Pipelined batch of `call`s: tags each mutating frame with its own
  /// request id, ships all frames through RpcChannel::roundtrip_batch,
  /// and validates each response (rid echo, type) independently. A
  /// transport-level failure fails the whole batch; per-request error
  /// frames come back as per-slot errors so callers can fall back
  /// per-item (duplicate modulators).
  Result<std::vector<Result<Bytes>>> call_batch(std::vector<Bytes> frames,
                                                proto::MsgType expect);

  /// One item opened under the handle's key: its data key and plaintext.
  struct OpenedItem {
    crypto::Md key;
    Bytes plaintext;
  };

  /// Verifies one access response (path shape, decrypt, counter echo).
  /// The data key comes through the prefix cache; if it does not open the
  /// item, the cache may be stale, so it is dropped and the key
  /// re-derived from the master key before the server is blamed.
  Result<OpenedItem> open_item(const FileHandle& fh,
                               const core::AccessInfo& info);

  /// Verifies one AccessResp payload and re-seals `new_content` under the
  /// item's data key: the crypto half of modify(), shared with
  /// modify_batch().
  Result<proto::ModifyReq> build_modify(const FileHandle& fh,
                                        std::uint64_t item_id,
                                        BytesView access_payload,
                                        BytesView new_content);

  net::RpcChannel& channel_;
  crypto::RandomSource& rnd_;
  Options opts_;
  core::ClientMath math_;
  core::ItemCodec codec_;
  core::Outsourcer outsourcer_;
  core::BatchDeriver batch_;
  std::uint64_t counter_ = 0;
  CumulativeTimer compute_timer_;
  std::vector<proto::TimingEntry> last_server_timing_;
};

}  // namespace fgad::client
