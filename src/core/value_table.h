// Counted set of the modulator values a tree holds (duplicate tracking).
//
// One contiguous open-addressing table: a slot is a few 32-bit words (hash
// tag, copy count, the value's bytes), so an entry costs no allocation of
// its own. It is sized a little over half full, grows past 4/5 full and
// shrinks below 1/4. Robin Hood probing keeps probe runs short, and a
// removal shifts the run after it back one slot instead of leaving a
// tombstone, so churn cannot lengthen the runs. Membership is decided on
// the full value, never on the hash alone.
//
// Each value carries a count: a tree may hold one value twice (an
// outsourced tree is accepted as sent), and the value stays reported
// until its last copy leaves.
//
// The hash is SipHash-1-3 over every byte of the value, keyed by a random
// per-process key: commit modulators are chosen by the client, and under
// an unkeyed hash one client could pile its values into one probe run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "crypto/digest.h"

namespace fgad::core {

class ValueTable {
 public:
  /// An empty table for values `width` bytes wide (at most
  /// crypto::Md::kCapacity).
  explicit ValueTable(std::size_t width);

  /// Drops every value and sizes the table for `n` values, so adding that
  /// many allocates nothing more.
  void reset(std::size_t n);

  /// Adds one copy of `m`. Throws std::invalid_argument when `m` is not
  /// `width` bytes wide.
  void add(const crypto::Md& m) { add(m, hash(m)); }
  /// Removes one copy of `m`; a value the table does not hold is ignored.
  void remove(const crypto::Md& m) { remove(m, hash(m)); }
  /// True while the table holds at least one copy of `m`.
  bool contains(const crypto::Md& m) const;

  /// The table's hash of `m`. A caller about to add or remove many values
  /// hashes them all first and prefetches each one's slot, so the loads
  /// overlap instead of waiting one after another; add and remove then
  /// take the hash instead of computing it again.
  std::uint32_t hash(const crypto::Md& m) const;
  void prefetch(std::uint32_t hash) const;
  void add(const crypto::Md& m, std::uint32_t hash);
  void remove(const crypto::Md& m, std::uint32_t hash);

  /// Distinct values held.
  std::size_t size() const { return size_; }
  /// Bytes the table has allocated.
  std::size_t memory_bytes() const {
    return words_.capacity() * sizeof(std::uint32_t);
  }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};

  std::size_t home(std::uint32_t tag) const;
  std::size_t distance(std::size_t slot, std::uint32_t tag) const;
  std::uint32_t* slot(std::size_t i) { return words_.data() + i * stride_; }
  const std::uint32_t* slot(std::size_t i) const {
    return words_.data() + i * stride_;
  }
  /// Slot holding `m` (whose tag is `tag`), or kNone.
  std::size_t find(const crypto::Md& m, std::uint32_t tag) const;
  /// Places an entry (`stride_` words) whose value is not in the table.
  void place(const std::uint32_t* entry);
  void rehash(std::size_t slots);

  std::size_t width_;
  std::size_t stride_;  // words per slot: tag, count, value bytes
  std::size_t slots_ = 0;
  std::size_t size_ = 0;
  std::vector<std::uint32_t> words_;  // count 0 marks a free slot
};

}  // namespace fgad::core
