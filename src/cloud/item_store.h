// Server-side ciphertext storage for one outsourced file.
//
// The paper stores each encrypted item with "a doubly linked list ... to
// keep an order amongst the encrypted data items" and "pointers ... to map
// between the leaf nodes and the corresponding ciphertexts". ItemStore is
// that structure: slot-allocated records forming an intrusive doubly linked
// list (file order), an id -> slot hash map (record-ID addressing), and a
// leaf back-pointer per record that the ModulationTree's balancing moves
// keep up to date.
//
// Ordinal (byte-offset-style) addressing walks the list, matching the
// paper's note that the server "may sequentially scan the encrypted items".
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "core/node_id.h"

namespace fgad::cloud {

class ItemStore {
 public:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  struct Record {
    std::uint64_t item_id = 0;
    Bytes ciphertext;
    core::NodeId leaf = core::kNoNode;
    // Plaintext size, stored alongside the ciphertext so the server can
    // resolve byte-offset addressing with variable item sizes (paper,
    // Section IV-C footnote 2).
    std::uint64_t plain_size = 0;

   private:
    friend class ItemStore;
    std::uint32_t prev = kNoSlot;
    std::uint32_t next = kNoSlot;
    bool live = false;
  };

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Appends a record at the end of the file order. Fails on duplicate id.
  Result<std::uint32_t> insert_back(std::uint64_t item_id, Bytes ciphertext,
                                    core::NodeId leaf,
                                    std::uint64_t plain_size = 0);

  /// Inserts immediately after the record with id `after_id`.
  Result<std::uint32_t> insert_after(std::uint64_t after_id,
                                     std::uint64_t item_id, Bytes ciphertext,
                                     core::NodeId leaf,
                                     std::uint64_t plain_size = 0);

  /// Removes a record by slot; its ciphertext bytes are released.
  Status erase(std::uint32_t slot);

  /// Slot lookup by item id.
  std::optional<std::uint32_t> find(std::uint64_t item_id) const;

  /// Slot lookup by ordinal position (0-based file order); walks the list.
  std::optional<std::uint32_t> slot_at(std::uint64_t ordinal) const;

  /// Slot lookup by plaintext byte offset: scans in file order accumulating
  /// each record's stored plaintext size until the offset falls inside one.
  std::optional<std::uint32_t> slot_at_offset(std::uint64_t offset) const;

  /// Total plaintext bytes across the file (the addressable range).
  std::uint64_t plaintext_bytes() const { return plain_bytes_; }

  /// One past the highest slot ever allocated (live or free).
  std::size_t slot_count() const { return slots_.size(); }

  bool valid(std::uint32_t slot) const {
    return slot < slots_.size() && slots_[slot].live;
  }
  const Record& at(std::uint32_t slot) const { return slots_[slot]; }

  void set_leaf(std::uint32_t slot, core::NodeId leaf) {
    slots_[slot].leaf = leaf;
  }
  void set_ciphertext(std::uint32_t slot, Bytes ct, std::uint64_t plain_size) {
    ct_bytes_ -= slots_[slot].ciphertext.size();
    ct_bytes_ += ct.size();
    plain_bytes_ -= slots_[slot].plain_size;
    plain_bytes_ += plain_size;
    slots_[slot].ciphertext = std::move(ct);
    slots_[slot].plain_size = plain_size;
  }

  /// First slot in file order (kNoSlot when empty).
  std::uint32_t first() const { return head_; }
  /// Next slot in file order (kNoSlot at the end).
  std::uint32_t next_of(std::uint32_t slot) const { return slots_[slot].next; }

  /// Item ids in file order.
  std::vector<std::uint64_t> ids_in_order() const;

  /// Total stored ciphertext bytes (server-side footprint diagnostics).
  std::uint64_t ciphertext_bytes() const { return ct_bytes_; }

 private:
  std::uint32_t alloc(std::uint64_t item_id, Bytes ciphertext,
                      core::NodeId leaf, std::uint64_t plain_size);

  std::vector<Record> slots_;
  std::vector<std::uint32_t> free_;
  std::unordered_map<std::uint64_t, std::uint32_t> by_id_;
  std::uint32_t head_ = kNoSlot;
  std::uint32_t tail_ = kNoSlot;
  std::size_t size_ = 0;
  std::uint64_t ct_bytes_ = 0;
  std::uint64_t plain_bytes_ = 0;
};

}  // namespace fgad::cloud
