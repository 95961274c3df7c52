// One outsourced file on the cloud server: modulation tree + item store.
//
// FileStore glues the two server-side structures together and keeps their
// cross-references consistent: the tree's leaves point at item slots, item
// records point back at their leaves, and every tree mutation's LeafMove
// notifications are applied to the store. It also implements the three item
// addressing modes of the paper (record id, ordinal, plaintext byte offset)
// and whole-file persistence.
#pragma once

#include <optional>
#include <unordered_set>
#include <utility>

#include "cloud/item_store.h"
#include "common/thread_pool.h"
#include "core/tree.h"
#include "integrity/merkle.h"
#include "proto/messages.h"

namespace fgad::cloud {

class FileStore {
 public:
  /// `pool` (optional, non-owning, typically the CloudServer's) parallelizes
  /// the bulk integrity-tree leaf hashing on ingest/reload; each worker uses
  /// its own Hasher. Results are identical with or without it.
  FileStore(crypto::HashAlg alg, bool track_duplicates,
            bool enable_integrity = true, ThreadPool* pool = nullptr)
      : tree_(core::ModulationTree::Config{alg, track_duplicates}),
        pool_(pool) {
    if (enable_integrity) {
      integrity_.emplace(alg);
    }
  }

  const core::ModulationTree& tree() const { return tree_; }
  const ItemStore& items() const { return items_; }
  std::size_t item_count() const { return items_.size(); }

  struct IngestItem {
    std::uint64_t item_id;
    Bytes ciphertext;
    std::uint64_t plain_size;
  };

  /// Installs a freshly outsourced file. The tree's leaf item_slot values
  /// must be item indices 0..n-1 (as produced by core::Outsourcer); the
  /// store must be empty.
  Status ingest(core::ModulationTree tree, std::vector<IngestItem> items);

  /// Resolves an item reference (id / ordinal / byte offset).
  Result<std::uint32_t> resolve(const proto::ItemRef& ref) const;

  Result<core::AccessInfo> access(std::uint32_t slot) const;

  Status modify(std::uint64_t item_id, Bytes ciphertext,
                std::uint64_t plain_size);

  Result<core::DeleteInfo> delete_begin(std::uint32_t slot) const;
  Status delete_commit(const core::DeleteCommit& commit);

  /// Merged-cut bulk deletion (DESIGN.md §16). `slots` must be valid and
  /// resolve to distinct items; the returned info's targets are ordered by
  /// leaf node id ascending.
  Result<core::DeleteManyInfo> delete_many_begin(
      std::span<const std::uint32_t> slots) const;
  Status delete_many_commit(const core::DeleteManyCommit& commit);

  core::InsertInfo insert_begin() const { return tree_.insert_info(); }
  Status insert_commit(const core::InsertCommit& commit);

  Bytes serialized_tree() const;
  std::uint64_t tree_bytes() const { return tree_.serialized_size(); }

  /// Whole-file persistence: tree + items (in file order).
  void serialize(proto::Writer& w) const;
  static Result<FileStore> deserialize(proto::Reader& r, bool track_duplicates,
                                       bool enable_integrity = true,
                                       ThreadPool* pool = nullptr);
  /// Exact size of what serialize() writes.
  std::uint64_t serialized_size() const;

  // ---- change tracking for delta checkpoints (DESIGN.md §13) ---------------

  /// Restarts change tracking: later changes are counted from now.
  void mark_clean();
  /// True when the tree or the item set changed since mark_clean(), or the
  /// store is new: a delta then carries the whole file.
  bool structurally_changed() const { return structural_; }
  /// Ids of the items modify() replaced since mark_clean(); empty while
  /// structurally_changed().
  const std::unordered_set<std::uint64_t>& modified_items() const {
    return modified_;
  }
  bool changed() const { return structural_ || !modified_.empty(); }
  /// Bytes the changes since mark_clean() add to a delta image, at most:
  /// serialized_size() when structurally changed, else the modified items.
  std::uint64_t delta_size() const;

  // ---- integrity (PDP/PoR substrate) ---------------------------------------

  bool integrity_enabled() const { return integrity_.has_value(); }
  /// Current hash-tree root (zero digest when integrity is off/empty).
  crypto::Md integrity_root() const;
  /// Builds one audit response entry for the item in `slot`.
  Result<proto::AuditResp::Entry> audit_entry(std::uint32_t slot,
                                              bool include_ciphertext) const;

 private:
  void integrity_rebuild();
  void integrity_refresh_leaf(std::uint32_t slot);
  /// Called before any change to the tree or the item set.
  void mark_structural();

  core::ModulationTree tree_;
  ItemStore items_;
  std::optional<integrity::HashTree> integrity_;
  ThreadPool* pool_ = nullptr;

  bool structural_ = true;
  std::unordered_set<std::uint64_t> modified_;
  std::uint64_t patch_bytes_ = 0;  // modified_ as delta patch entries
};

}  // namespace fgad::cloud
