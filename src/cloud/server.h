// The cloud server: multi-file storage plus the wire-protocol dispatcher.
//
// CloudServer is the second party of the paper's two-party system. It holds
// modulation trees and ciphertexts (it never sees a key or a plaintext),
// answers the protocol requests of proto/messages.h, and additionally
// offers a plain blob table (kv_*) used by the Section III baseline
// solutions, which have no tree.
//
// Adversarial testing: the threat model gives the attacker full server
// control, so the server exposes tamper hooks that mutate outgoing
// responses — tests use them to verify the client rejects wrong-leaf MT(k'),
// cloned paths, and corrupted ciphertexts (Theorem 2, case ii).
//
// Locking (DESIGN.md §15): the file map has a reader-writer lock, each
// stored file a mutex of its own, and the blob tables one more. Only
// outsource and drop_file take the map lock exclusively; every other file
// request takes it shared and then locks the one file it names, so requests
// on different files run in parallel. The order is map lock, then file
// lock; DurableServer's mutex, when there is one, comes before both.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <unordered_map>

#include "cloud/file_store.h"
#include "common/shared_mutex.h"
#include "common/thread_pool.h"
#include "proto/messages.h"

namespace fgad::cloud {

/// What changed since a base image, gathered one snapshot at a time by
/// CloudServer::fold_changes (DESIGN.md §13). It holds its own copies, so a
/// delta checkpoint is serialized from it off the dispatch lock while the
/// server keeps mutating, and a snapshot copies only what changed since
/// the previous one.
class DeltaImage {
 public:
  void clear();
  /// Exact size of what serialize() writes.
  std::uint64_t size() const;
  /// Writes the image CloudServer::apply_delta reads.
  void serialize(proto::Writer& w) const;

 private:
  friend class CloudServer;
  // A file entry besides its whole image and patch entries: id, whole
  // flag, patch count.
  static constexpr std::uint64_t kFileEntryBytes = 8 + 1 + 8;

  struct File {
    Bytes whole;  // FileStore::serialize output; empty = the base's file
    // Item id -> (plain size, ciphertext) modify() left, applied on top.
    std::map<std::uint64_t, std::pair<std::uint64_t, Bytes>> patch;
    std::uint64_t bytes = 0;  // serialized size of this entry
  };

  std::set<std::uint64_t> dropped_;
  std::map<std::uint64_t, File> files_;
  std::optional<Bytes> tables_;  // save_tables output
};

class CloudServer {
 public:
  struct Options {
    bool track_duplicates = true;
    bool enable_integrity = true;  // maintain hash trees + serve audits
    // Worker threads for bulk server-side work (integrity-tree hashing on
    // ingest/reload): 0 = hardware_concurrency, 1 = fully sequential.
    // Output state is identical at every setting.
    std::size_t threads = 0;
  };

  CloudServer() : CloudServer(Options{}) {}
  explicit CloudServer(Options opts);

  // ---- native file API ---------------------------------------------------
  //
  // Thread-safe, like the blob tables below: each call locks what it
  // touches. The tamper hooks run with the file locked. has_file, file,
  // mutable_file, file_ids and the persistence and delta calls take no
  // lock; their callers keep mutations out (DurableServer holds its mutex).

  /// Installs an outsourced file (tree + sealed items).
  Status outsource(std::uint64_t file_id, core::ModulationTree tree,
                   std::vector<FileStore::IngestItem> items);

  Result<core::AccessInfo> access(std::uint64_t file_id,
                                  const proto::ItemRef& ref) const;
  Status modify(std::uint64_t file_id, std::uint64_t item_id, Bytes ct,
                std::uint64_t plain_size);

  Result<core::DeleteInfo> delete_begin(std::uint64_t file_id,
                                        const proto::ItemRef& ref) const;
  Status delete_commit(std::uint64_t file_id, const core::DeleteCommit& c);

  /// Merged-cut bulk deletion: one begin/commit exchange deletes every
  /// referenced item of one file under a single key rotation.
  Result<core::DeleteManyInfo> delete_many_begin(
      std::uint64_t file_id, const std::vector<proto::ItemRef>& refs) const;
  Status delete_many_commit(std::uint64_t file_id,
                            const core::DeleteManyCommit& c);

  Result<core::InsertInfo> insert_begin(std::uint64_t file_id) const;
  Status insert_commit(std::uint64_t file_id, const core::InsertCommit& c);

  Result<Bytes> fetch_tree(std::uint64_t file_id) const;
  Status drop_file(std::uint64_t file_id);

  /// Integrity audit: membership proofs for the requested items/leaves.
  Result<proto::AuditResp> audit(std::uint64_t file_id,
                                 const proto::AuditReq& req) const;

  bool has_file(std::uint64_t file_id) const {
    return files_.count(file_id) != 0;
  }
  const FileStore* file(std::uint64_t file_id) const;
  FileStore* mutable_file(std::uint64_t file_id);
  /// Ids of every stored file, sorted ascending (fsck, tooling).
  std::vector<std::uint64_t> file_ids() const;

  // ---- blob tables (baseline substrate) -----------------------------------

  void kv_put(std::uint64_t table, std::uint64_t key, Bytes value);
  Result<Bytes> kv_get(std::uint64_t table, std::uint64_t key) const;
  Status kv_delete(std::uint64_t table, std::uint64_t key);
  std::size_t kv_size(std::uint64_t table) const;

  // ---- persistence -----------------------------------------------------------

  /// Serializes every file and blob table (crash/restart durability).
  void save(proto::Writer& w) const;
  /// Restores a server image produced by save().
  static Result<std::unique_ptr<CloudServer>> load(proto::Reader& r,
                                                   Options opts);

  // ---- delta images (DESIGN.md §13) ----------------------------------------

  /// Makes the current state the base that deltas are taken against.
  void mark_clean();
  /// Bytes fold_changes() would add to a DeltaImage now, at most.
  std::uint64_t pending_delta_size() const;
  /// Copies every change since the last fold_changes() or mark_clean()
  /// into `delta` and restarts change tracking: a tombstone per dropped
  /// file, every file created or structurally changed whole, the items
  /// modify() replaced in every other file, and the blob tables if any
  /// changed.
  void fold_changes(DeltaImage& delta);
  /// Applies a serialized DeltaImage onto the base it was taken against.
  Status apply_delta(proto::Reader& r);

  // ---- wire dispatcher -----------------------------------------------------

  /// Handles one framed request and produces the framed response.
  /// Thread-safe: the reactor calls it from every io worker at once, and
  /// requests on different files do not wait for each other.
  Bytes handle(BytesView request);

  // ---- adversarial hooks ---------------------------------------------------

  std::function<void(core::DeleteInfo&)> tamper_delete_info;
  std::function<void(core::DeleteManyInfo&)> tamper_delete_many_info;
  std::function<void(core::AccessInfo&)> tamper_access_info;
  std::function<void(core::InsertInfo&)> tamper_insert_info;

 private:
  /// A stored file and the mutex that orders the requests naming it. The
  /// map owns it through a pointer, so drop_file can unlink it under the
  /// map lock and free it after.
  struct StoredFile {
    explicit StoredFile(FileStore s) : store(std::move(s)) {}
    FileStore store;
    std::mutex mu;
  };

  /// A stored file held for one request: the map lock shared, so the file
  /// cannot be dropped meanwhile, and the file's own mutex.
  class LockedFile {
   public:
    FileStore* operator->() const { return &file_->store; }
    FileStore& operator*() const { return file_->store; }

   private:
    friend class CloudServer;
    LockedFile(std::shared_lock<WriterPreferringMutex> map, StoredFile& file)
        : map_(std::move(map)), lock_(file.mu), file_(&file) {}
    std::shared_lock<WriterPreferringMutex> map_;
    std::unique_lock<std::mutex> lock_;
    StoredFile* file_;
  };

  /// Locks `file_id` for one request; kNotFound when no such file exists.
  Result<LockedFile> lock_file(std::uint64_t file_id) const;
  Bytes dispatch(BytesView request);
  void save_tables(proto::Writer& w) const;
  Status load_tables(proto::Reader& r);

  Options opts_ = {};
  std::unique_ptr<ThreadPool> pool_;  // null when opts_.threads resolves to 1

  mutable WriterPreferringMutex files_mu_;  // guards the map, not the files
  std::unordered_map<std::uint64_t, std::unique_ptr<StoredFile>> files_;
  // Since mark_clean() or the last fold_changes(): files dropped (and not
  // re-created). A new server counts everything as changed.
  std::set<std::uint64_t> dropped_;

  mutable std::mutex tables_mu_;
  // Ordered by key so range fetches stream the file in order.
  std::unordered_map<std::uint64_t, std::map<std::uint64_t, Bytes>> tables_;
  bool tables_changed_ = true;  // since mark_clean() or fold_changes()
};

}  // namespace fgad::cloud
