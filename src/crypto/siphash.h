// SipHash (Aumasson and Bernstein): a keyed 64-bit hash of a byte string.
//
// Hash tables over values an outside party chooses (commit modulators) key
// their hash with a secret, so no one who does not know the key can pile
// values into one probe run. SipHash is the standard choice for that job;
// the tables use SipHash-1-3, tests check the structure against the
// reference vectors of SipHash-2-4.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fgad::crypto {

namespace siphash_detail {

inline std::uint64_t rotl(std::uint64_t x, int b) {
  return (x << b) | (x >> (64 - b));
}

inline std::uint64_t load_le64(const std::uint8_t* p, std::size_t n) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

}  // namespace siphash_detail

/// SipHash-C-D of `n` bytes at `in` under the 128-bit key (k0, k1).
template <int C, int D>
std::uint64_t siphash(std::uint64_t k0, std::uint64_t k1,
                      const std::uint8_t* in, std::size_t n) {
  using siphash_detail::load_le64;
  using siphash_detail::rotl;
  std::uint64_t v0 = 0x736f6d6570736575ULL ^ k0;
  std::uint64_t v1 = 0x646f72616e646f6dULL ^ k1;
  std::uint64_t v2 = 0x6c7967656e657261ULL ^ k0;
  std::uint64_t v3 = 0x7465646279746573ULL ^ k1;
  const auto rounds = [&](int count) {
    for (int i = 0; i < count; ++i) {
      v0 += v1;
      v1 = rotl(v1, 13);
      v1 ^= v0;
      v0 = rotl(v0, 32);
      v2 += v3;
      v3 = rotl(v3, 16);
      v3 ^= v2;
      v0 += v3;
      v3 = rotl(v3, 21);
      v3 ^= v0;
      v2 += v1;
      v1 = rotl(v1, 17);
      v1 ^= v2;
      v2 = rotl(v2, 32);
    }
  };
  const std::size_t full = n - n % 8;
  for (std::size_t i = 0; i < full; i += 8) {
    const std::uint64_t m = load_le64(in + i, 8);
    v3 ^= m;
    rounds(C);
    v0 ^= m;
  }
  const std::uint64_t last =
      (static_cast<std::uint64_t>(n) << 56) | load_le64(in + full, n % 8);
  v3 ^= last;
  rounds(C);
  v0 ^= last;
  v2 ^= 0xff;
  rounds(D);
  return v0 ^ v1 ^ v2 ^ v3;
}

}  // namespace fgad::crypto
