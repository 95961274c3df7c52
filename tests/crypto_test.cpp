// Crypto substrate: digests, hashing (with known vectors), AES, PRF,
// secure buffers, random sources.
#include <gtest/gtest.h>

#include "crypto/aes.h"
#include "crypto/digest.h"
#include "crypto/hasher.h"
#include "crypto/prf.h"
#include "crypto/random.h"
#include "crypto/secure_buffer.h"
#include "crypto/siphash.h"

namespace fgad::crypto {
namespace {

TEST(Digest, Sizes) {
  EXPECT_EQ(digest_size(HashAlg::kSha1), 20u);
  EXPECT_EQ(digest_size(HashAlg::kSha256), 32u);
  EXPECT_STREQ(hash_alg_name(HashAlg::kSha1), "SHA-1");
  EXPECT_STREQ(hash_alg_name(HashAlg::kSha256), "SHA-256");
}

TEST(Md, ConstructAndCompare) {
  const Md a(to_bytes("0123456789abcdefghij"));
  EXPECT_EQ(a.size(), 20u);
  const Md b(to_bytes("0123456789abcdefghij"));
  EXPECT_EQ(a, b);
  const Md c(to_bytes("0123456789abcdefghiX"));
  EXPECT_NE(a, c);
  EXPECT_TRUE(c < a || a < c);
}

TEST(Md, EmptyAndZero) {
  const Md empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
  const Md z = Md::zero(20);
  EXPECT_EQ(z.size(), 20u);
  for (auto byte : z.bytes()) {
    EXPECT_EQ(byte, 0);
  }
  EXPECT_NE(empty, z);  // differing sizes are not equal
}

TEST(Md, XorIsInvolution) {
  DeterministicRandom rnd(1);
  const Md a = rnd.random_md(20);
  const Md b = rnd.random_md(20);
  Md x = a;
  x ^= b;
  EXPECT_NE(x, a);
  x ^= b;
  EXPECT_EQ(x, a);
}

TEST(Md, XorSizeMismatchThrows) {
  Md a = Md::zero(20);
  const Md b = Md::zero(32);
  EXPECT_THROW(a ^= b, std::invalid_argument);
}

TEST(Md, CapacityEnforced) {
  const Bytes too_big(33, 1);
  EXPECT_THROW(Md m(too_big), std::invalid_argument);
  EXPECT_THROW(Md::zero(33), std::invalid_argument);
}

TEST(Md, HasherDistinguishes) {
  DeterministicRandom rnd(2);
  Md::Hasher h;
  const Md a = rnd.random_md(20);
  const Md b = rnd.random_md(20);
  EXPECT_NE(h(a), h(b));  // overwhelmingly likely
  EXPECT_EQ(h(a), h(a));
}

// SipHash-2-4 reference vectors (key 00..0f, input 00..n-1). The
// duplicate table runs the same code with 1 and 3 rounds.
TEST(SipHash, ReferenceVectors) {
  std::uint8_t in[16];
  for (int i = 0; i < 16; ++i) in[i] = static_cast<std::uint8_t>(i);
  const std::uint64_t k0 = 0x0706050403020100ULL;
  const std::uint64_t k1 = 0x0f0e0d0c0b0a0908ULL;
  EXPECT_EQ((crypto::siphash<2, 4>(k0, k1, in, 0)), 0x726fdb47dd0e0e31ULL);
  EXPECT_EQ((crypto::siphash<2, 4>(k0, k1, in, 15)), 0xa129ca6149be45e5ULL);
}

TEST(Md, CleanseZeroizes) {
  Md a(to_bytes("secretsecretsecreets"));
  a.cleanse();
  for (auto byte : a.bytes()) {
    EXPECT_EQ(byte, 0);
  }
  EXPECT_EQ(a.size(), 20u);  // width preserved, contents gone
}

TEST(Hasher, Sha1KnownVector) {
  // SHA-1("abc") = a9993e364706816aba3e25717850c26c9cd0d89d
  Hasher h(HashAlg::kSha1);
  EXPECT_EQ(h.hash(to_bytes("abc")).hex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Hasher, Sha256KnownVector) {
  // SHA-256("abc")
  Hasher h(HashAlg::kSha256);
  EXPECT_EQ(h.hash(to_bytes("abc")).hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Hasher, EmptyInput) {
  Hasher h(HashAlg::kSha1);
  EXPECT_EQ(h.hash({}).hex(), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Hasher, Hash2EqualsConcatenation) {
  Hasher h(HashAlg::kSha256);
  const Bytes a = to_bytes("hello ");
  const Bytes b = to_bytes("world");
  EXPECT_EQ(h.hash2(a, b), h.hash(to_bytes("hello world")));
}

TEST(Hasher, ContextReuseIsConsistent) {
  Hasher h(HashAlg::kSha1);
  const Md first = h.hash(to_bytes("x"));
  h.hash(to_bytes("something else"));
  EXPECT_EQ(h.hash(to_bytes("x")), first);
}

TEST(Aes, EncryptDecryptRoundtrip) {
  AesCbc aes;
  std::array<std::uint8_t, kAesKeySize> key{};
  key.fill(0x42);
  const Bytes iv(kAesBlockSize, 0x07);
  for (std::size_t n : {0u, 1u, 15u, 16u, 17u, 100u, 4096u}) {
    const Bytes pt(n, 0x5a);
    const Bytes ct = aes.encrypt(key, iv, pt);
    EXPECT_EQ(ct.size(), AesCbc::ciphertext_size(n));
    auto back = aes.decrypt(key, iv, ct);
    ASSERT_TRUE(back.is_ok()) << "n=" << n;
    EXPECT_EQ(back.value(), pt);
  }
}

TEST(Aes, WrongKeyFails) {
  AesCbc aes;
  std::array<std::uint8_t, kAesKeySize> key{};
  key.fill(1);
  const Bytes iv(kAesBlockSize, 2);
  const Bytes ct = aes.encrypt(key, iv, to_bytes("some plaintext data"));
  key.fill(3);
  auto out = aes.decrypt(key, iv, ct);
  // Wrong key: either padding fails or garbage comes back; CBC guarantees
  // the *first* block is garbage, so equality would be miraculous.
  if (out.is_ok()) {
    EXPECT_NE(out.value(), to_bytes("some plaintext data"));
  }
}

TEST(Aes, TruncatedCiphertextFails) {
  AesCbc aes;
  std::array<std::uint8_t, kAesKeySize> key{};
  const Bytes iv(kAesBlockSize, 0);
  EXPECT_FALSE(aes.decrypt(key, iv, Bytes{}).is_ok());
  EXPECT_FALSE(aes.decrypt(key, iv, Bytes(15, 0)).is_ok());
}

TEST(Aes, KeyFromChainOutput) {
  DeterministicRandom rnd(3);
  const Md chain_out = rnd.random_md(20);
  const auto key = aes_key_from(chain_out);
  EXPECT_TRUE(std::equal(key.begin(), key.end(), chain_out.bytes().begin()));
  EXPECT_THROW(aes_key_from(Md::zero(8)), std::invalid_argument);
}

TEST(Prf, DeterministicPerIndex) {
  const Bytes key = to_bytes("0123456789abcdef");
  Prf prf(HashAlg::kSha1, key);
  EXPECT_EQ(prf.derive(0), prf.derive(0));
  EXPECT_NE(prf.derive(0), prf.derive(1));
  EXPECT_EQ(prf.derive(7).size(), 20u);
}

TEST(Prf, KeySeparation) {
  Prf a(HashAlg::kSha1, to_bytes("key-a-key-a-key-a"));
  Prf b(HashAlg::kSha1, to_bytes("key-b-key-b-key-b"));
  EXPECT_NE(a.derive(5), b.derive(5));
}

TEST(Prf, Sha256Width) {
  Prf prf(HashAlg::kSha256, to_bytes("k"));
  EXPECT_EQ(prf.derive(1).size(), 32u);
}

TEST(SecureBuffer, WipeClears) {
  SecureBuffer buf(to_bytes("top-secret"));
  EXPECT_EQ(buf.size(), 10u);
  buf.wipe();
  EXPECT_TRUE(buf.empty());
}

TEST(SecureBuffer, MoveTransfersAndClearsSource) {
  SecureBuffer a(to_bytes("payload"));
  SecureBuffer b = std::move(a);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(to_string(b.view()), "payload");
}

TEST(MasterKey, GenerateAndRotate) {
  DeterministicRandom rnd(4);
  MasterKey k = MasterKey::generate(rnd, 20);
  EXPECT_FALSE(k.empty());
  const Md before = k.value();
  k.rotate(rnd.random_md(20));
  EXPECT_NE(k.value(), before);
}

TEST(MasterKey, EraseWipes) {
  DeterministicRandom rnd(5);
  MasterKey k = MasterKey::generate(rnd, 20);
  k.erase();
  EXPECT_TRUE(k.empty());
}

TEST(MasterKey, MoveClearsSource) {
  DeterministicRandom rnd(6);
  MasterKey a = MasterKey::generate(rnd, 20);
  const Md v = a.value();
  MasterKey b = std::move(a);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(b.value(), v);
}

TEST(MasterKey, CloneDuplicates) {
  DeterministicRandom rnd(7);
  MasterKey a = MasterKey::generate(rnd, 20);
  MasterKey b = a.clone();
  EXPECT_EQ(a.value(), b.value());
}

TEST(Random, SystemRandomProducesEntropy) {
  SystemRandom rnd;
  const Md a = rnd.random_md(20);
  const Md b = rnd.random_md(20);
  EXPECT_NE(a, b);
  EXPECT_NE(rnd.random_u64(), rnd.random_u64());
}

TEST(Random, DeterministicRandomReproducible) {
  DeterministicRandom a(11);
  DeterministicRandom b(11);
  EXPECT_EQ(a.random_md(20), b.random_md(20));
  EXPECT_EQ(a.random_u64(), b.random_u64());
}

}  // namespace
}  // namespace fgad::crypto
