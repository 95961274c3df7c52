#include "core/value_table.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <span>
#include <stdexcept>

#include "crypto/random.h"
#include "crypto/siphash.h"

namespace fgad::core {

namespace {

constexpr std::size_t kMinSlots = 8;
constexpr std::size_t kMaxStride = 2 + crypto::Md::kCapacity / 4;

/// Slots for `n` values at 6/11 full. Probe runs lengthen steeply with
/// the load; a little over half full keeps a delete's table work near its
/// two loads per value, and a slot of 28 bytes (SHA-1) or 40 (SHA-256)
/// still costs less per value than a node of a node-based set (about 78).
std::size_t slots_for(std::size_t n) {
  return std::max(kMinSlots, n + 5 * n / 6 + 1);
}

const std::array<std::uint64_t, 2>& process_key() {
  static const std::array<std::uint64_t, 2> key = [] {
    std::array<std::uint64_t, 2> k{};
    crypto::SystemRandom().fill(std::span<std::uint8_t>(
        reinterpret_cast<std::uint8_t*>(k.data()), sizeof(k)));
    return k;
  }();
  return key;
}

}  // namespace

ValueTable::ValueTable(std::size_t width)
    : width_(width), stride_(2 + (width + 3) / 4) {
  if (width > crypto::Md::kCapacity) {
    throw std::invalid_argument("ValueTable: value wider than capacity");
  }
}

void ValueTable::reset(std::size_t n) {
  words_ = {};
  slots_ = 0;
  size_ = 0;
  rehash(n == 0 ? 0 : slots_for(n));
}

std::uint32_t ValueTable::hash(const crypto::Md& m) const {
  const auto& key = process_key();
  const std::uint64_t h =
      crypto::siphash<1, 3>(key[0], key[1], m.data(), width_);
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

std::size_t ValueTable::home(std::uint32_t tag) const {
  return static_cast<std::size_t>((std::uint64_t{tag} * slots_) >> 32);
}

std::size_t ValueTable::distance(std::size_t i, std::uint32_t tag) const {
  const std::size_t h = home(tag);
  return i >= h ? i - h : i + slots_ - h;
}

std::size_t ValueTable::find(const crypto::Md& m, std::uint32_t tag) const {
  if (size_ == 0) {
    return kNone;
  }
  std::size_t i = home(tag);
  for (std::size_t d = 0;; ++d) {
    const std::uint32_t* s = slot(i);
    // Robin Hood order: past a free slot or an entry nearer its home than
    // `m` would be, `m` is not in the run.
    if (s[1] == 0 || distance(i, s[0]) < d) {
      return kNone;
    }
    if (s[0] == tag && std::memcmp(s + 2, m.data(), width_) == 0) {
      return i;
    }
    i = i + 1 == slots_ ? 0 : i + 1;
  }
}

bool ValueTable::contains(const crypto::Md& m) const {
  return m.size() == width_ && find(m, hash(m)) != kNone;
}

void ValueTable::prefetch(std::uint32_t tag) const {
  if (slots_ != 0) {
    __builtin_prefetch(slot(home(tag)));
  }
}

void ValueTable::add(const crypto::Md& m, std::uint32_t tag) {
  if (m.size() != width_) {
    throw std::invalid_argument("ValueTable::add: wrong value width");
  }
  if (const std::size_t i = find(m, tag); i != kNone) {
    ++slot(i)[1];
    return;
  }
  if (5 * (size_ + 1) > 4 * slots_) {
    rehash(slots_for(size_ + 1));
  }
  std::array<std::uint32_t, kMaxStride> entry{};
  entry[0] = tag;
  entry[1] = 1;
  std::memcpy(entry.data() + 2, m.data(), width_);
  place(entry.data());
  ++size_;
}

void ValueTable::place(const std::uint32_t* entry) {
  std::array<std::uint32_t, kMaxStride> cur{};
  std::copy_n(entry, stride_, cur.begin());
  std::size_t i = home(cur[0]);
  for (std::size_t d = 0;; ++d) {
    std::uint32_t* s = slot(i);
    if (s[1] == 0) {
      std::copy_n(cur.begin(), stride_, s);
      return;
    }
    // Take the slot from an entry nearer its home and carry that one on.
    if (const std::size_t sd = distance(i, s[0]); sd < d) {
      std::swap_ranges(cur.begin(), cur.begin() + stride_, s);
      d = sd;
    }
    i = i + 1 == slots_ ? 0 : i + 1;
  }
}

void ValueTable::remove(const crypto::Md& m, std::uint32_t tag) {
  if (m.size() != width_) {
    return;
  }
  std::size_t i = find(m, tag);
  if (i == kNone || --slot(i)[1] != 0) {
    return;
  }
  // Backward shift: pull each following entry that is off its home one
  // slot back, up to a free slot or an entry at its home.
  for (;;) {
    const std::size_t j = i + 1 == slots_ ? 0 : i + 1;
    const std::uint32_t* s = slot(j);
    if (s[1] == 0 || distance(j, s[0]) == 0) {
      break;
    }
    std::copy_n(s, stride_, slot(i));
    i = j;
  }
  std::fill_n(slot(i), stride_, 0u);
  --size_;
  if (4 * size_ < slots_ && slots_ > kMinSlots) {
    rehash(size_ == 0 ? 0 : slots_for(size_));
  }
}

void ValueTable::rehash(std::size_t slots) {
  // home() maps a 32-bit tag onto the slots.
  if (slots > (std::size_t{1} << 32)) {
    throw std::length_error("ValueTable: too many values");
  }
  std::vector<std::uint32_t> old(slots * stride_);
  old.swap(words_);
  const std::size_t old_slots = slots_;
  slots_ = slots;
  for (std::size_t i = 0; i < old_slots; ++i) {
    const std::uint32_t* s = old.data() + i * stride_;
    if (s[1] != 0) {
      place(s);
    }
  }
}

}  // namespace fgad::core
