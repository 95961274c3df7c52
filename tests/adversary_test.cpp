// Adversarial server behaviour (threat model: attacker fully controls the
// server). The client must reject every manipulated response — Theorem 2,
// case ii, plus ciphertext tampering and self-inconsistent messages.
#include <gtest/gtest.h>

#include "client/client.h"
#include "cloud/server.h"
#include "net/transport.h"
#include "support/harness.h"

namespace fgad {
namespace {

using client::Client;
using cloud::CloudServer;
using crypto::SystemRandom;
using test::payload_for;

class AdversaryTest : public ::testing::Test {
 protected:
  AdversaryTest()
      : channel_([this](BytesView req) { return server_.handle(req); }),
        client_(channel_, rnd_) {}

  void outsource(std::size_t n) {
    auto fh = client_.outsource(1, n,
                                [](std::size_t i) { return payload_for(i); });
    ASSERT_TRUE(fh.is_ok());
    fh_ = std::move(fh).value();
  }

  CloudServer server_{cloud::CloudServer::Options{
      /*track_duplicates=*/false}};  // a malicious server runs no checks
  SystemRandom rnd_;
  net::DirectChannel channel_;
  Client client_;
  Client::FileHandle fh_;
};

// The server answers a delete for item k with MT(k') of a different leaf
// (trying to trick the client into deleting k' while keeping k derivable).
// The returned path cannot decrypt the target ciphertext -> reject.
TEST_F(AdversaryTest, WrongLeafDeleteInfoRejected) {
  outsource(16);
  server_.tamper_delete_info = [this](core::DeleteInfo& info) {
    // Keep the victim's ciphertext/id but substitute another leaf's MT.
    const auto* file = server_.file(1);
    auto slot = file->items().find(9);
    ASSERT_TRUE(slot.has_value());
    auto other = file->delete_begin(*slot);
    ASSERT_TRUE(other.is_ok());
    const Bytes ct = info.ciphertext;
    const std::uint64_t id = info.item_id;
    info = std::move(other).value();
    info.ciphertext = ct;
    info.item_id = id;
  };
  const crypto::Md key_before = fh_.key.value();
  const Status st = client_.erase_item(fh_, proto::ItemRef::id(3));
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), Errc::kTamperDetected);
  // The pipelined batch path runs the same check.
  Client::FileHandle* handles[] = {&fh_};
  const proto::ItemRef refs[] = {proto::ItemRef::id(3)};
  EXPECT_EQ(client_.erase_batch(handles, refs).code(), Errc::kTamperDetected);
  // Nothing was deleted.
  EXPECT_EQ(fh_.key.value(), key_before);
  EXPECT_EQ(server_.file(1)->item_count(), 16u);
  server_.tamper_delete_info = nullptr;
  EXPECT_TRUE(client_.access(fh_, proto::ItemRef::id(3)).is_ok());
  EXPECT_TRUE(client_.access(fh_, proto::ItemRef::id(9)).is_ok());
}

// Figure 7's attack: the server clones path modulators onto a sibling
// branch so the deleted key would stay derivable. The clone necessarily
// duplicates a modulator inside MT(k); the client must notice.
TEST_F(AdversaryTest, ClonedPathModulatorsRejected) {
  outsource(16);
  server_.tamper_delete_info = [](core::DeleteInfo& info) {
    ASSERT_GE(info.cut.size(), 2u);
    info.cut[1].link = info.path.links[1];  // duplicate on sibling edge
  };
  const Status st = client_.erase_item(fh_, proto::ItemRef::id(5));
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), Errc::kDuplicateModulator);
}

// Duplicates hidden in the balancing branch are caught too (our check spans
// the entire response, strictly stronger than the paper's MT(k)-only rule).
TEST_F(AdversaryTest, DuplicateInBalancingBranchRejected) {
  outsource(16);
  server_.tamper_delete_info = [](core::DeleteInfo& info) {
    if (info.has_balance && !info.t_path.links.empty()) {
      info.s_leaf_mod = info.t_path.links[0];
    }
  };
  const Status st = client_.erase_item(fh_, proto::ItemRef::id(2));
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), Errc::kDuplicateModulator);
}

// A node reported twice with conflicting modulators (path vs balancing
// branch) is a self-inconsistent response.
TEST_F(AdversaryTest, ConflictingNodeValuesRejected) {
  outsource(16);
  SystemRandom rnd;
  server_.tamper_delete_info = [&rnd](core::DeleteInfo& info) {
    // t's path shares its prefix with P(k) when k is deep-right; force a
    // conflict by rewriting a shared-prefix link only in t_path.
    if (info.has_balance && !info.t_path.links.empty() &&
        info.t_path.nodes[1] == info.path.nodes[1]) {
      info.t_path.links[0] = rnd.random_md(20);
    } else if (info.has_balance) {
      // Otherwise conflict the t-leaf itself if it also appears in the cut.
      info.t_leaf_mod = rnd.random_md(20);
    }
  };
  // Delete the last leaf's neighbour so P(k) and P(t) share their prefix.
  const Status st = client_.erase_item(fh_, proto::ItemRef::id(15));
  EXPECT_FALSE(st.is_ok());
}

// Corrupted ciphertext in the delete response.
TEST_F(AdversaryTest, CorruptedCiphertextRejected) {
  outsource(8);
  server_.tamper_delete_info = [](core::DeleteInfo& info) {
    info.ciphertext[info.ciphertext.size() / 2] ^= 0x40;
  };
  const Status st = client_.erase_item(fh_, proto::ItemRef::id(1));
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), Errc::kTamperDetected);
}

// Wrong item id echoed (counter mismatch).
TEST_F(AdversaryTest, CounterMismatchRejected) {
  outsource(8);
  server_.tamper_delete_info = [this](core::DeleteInfo& info) {
    const auto* file = server_.file(1);
    auto slot = file->items().find(2);
    ASSERT_TRUE(slot.has_value());
    // Swap in another item's ciphertext wholesale (id still the victim's):
    // the record decrypts fine but carries the wrong counter.
    info.ciphertext = file->items().at(*slot).ciphertext;
    auto other = file->delete_begin(*slot);
    ASSERT_TRUE(other.is_ok());
    info.path = other.value().path;
    info.leaf_mod = other.value().leaf_mod;
    info.cut = other.value().cut;
  };
  const Status st = client_.erase_item(fh_, proto::ItemRef::id(6));
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), Errc::kTamperDetected);
}

// Access-path tampering: a modified link modulator breaks decryption.
TEST_F(AdversaryTest, AccessPathTamperRejected) {
  outsource(8);
  SystemRandom rnd;
  server_.tamper_access_info = [&rnd](core::AccessInfo& info) {
    if (!info.path.links.empty()) {
      info.path.links[0] = rnd.random_md(20);
    }
  };
  const crypto::Md key_before = fh_.key.value();
  const auto got = client_.access(fh_, proto::ItemRef::id(3));
  EXPECT_FALSE(got.is_ok());
  EXPECT_EQ(got.code(), Errc::kIntegrityMismatch);
  // modify fetches the item through the same check before re-sealing.
  EXPECT_EQ(client_.modify(fh_, 3, to_bytes("x")).code(),
            Errc::kIntegrityMismatch);
  EXPECT_EQ(fh_.key.value(), key_before);
  server_.tamper_access_info = nullptr;
  EXPECT_EQ(client_.access(fh_, proto::ItemRef::id(3)).value(),
            payload_for(3));
}

// Access ciphertext substitution: right path, wrong item.
TEST_F(AdversaryTest, AccessSubstitutionRejected) {
  outsource(8);
  server_.tamper_access_info = [this](core::AccessInfo& info) {
    const auto* file = server_.file(1);
    auto slot = file->items().find((info.item_id + 1) % 8);
    ASSERT_TRUE(slot.has_value());
    info.ciphertext = file->items().at(*slot).ciphertext;
  };
  const auto got = client_.access(fh_, proto::ItemRef::id(0));
  EXPECT_FALSE(got.is_ok());
}

// Malformed path geometry in an insert response.
TEST_F(AdversaryTest, MalformedInsertInfoRejected) {
  outsource(4);
  server_.tamper_insert_info = [](core::InsertInfo& info) {
    ASSERT_GT(info.q_path.nodes.size(), 1u);
    info.q_path.nodes.front() = 1;  // path no longer starts at the root
  };
  const auto got = client_.insert(fh_, to_bytes("x"));
  EXPECT_FALSE(got.is_ok());
  EXPECT_EQ(got.code(), Errc::kTamperDetected);
}

// Malformed delete path geometry.
TEST_F(AdversaryTest, MalformedDeletePathRejected) {
  outsource(8);
  server_.tamper_delete_info = [](core::DeleteInfo& info) {
    info.path.nodes[0] = 1;  // not rooted
  };
  const Status st = client_.erase_item(fh_, proto::ItemRef::id(1));
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), Errc::kTamperDetected);
}

// Cut geometry violation: cut nodes must be the path siblings.
TEST_F(AdversaryTest, WrongCutGeometryRejected) {
  outsource(8);
  server_.tamper_delete_info = [](core::DeleteInfo& info) {
    info.cut[0].node = info.path.nodes[1];  // not the sibling
  };
  const Status st = client_.erase_item(fh_, proto::ItemRef::id(1));
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), Errc::kTamperDetected);
}

// After any rejected tampering attempt, the honest state still works.
TEST_F(AdversaryTest, RejectionLeavesFileUsable) {
  outsource(8);
  server_.tamper_delete_info = [](core::DeleteInfo& info) {
    info.ciphertext[0] ^= 1;
  };
  EXPECT_FALSE(client_.erase_item(fh_, proto::ItemRef::id(1)).is_ok());
  server_.tamper_delete_info = nullptr;
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(client_.access(fh_, proto::ItemRef::id(i)).is_ok()) << i;
  }
  EXPECT_TRUE(client_.erase_item(fh_, proto::ItemRef::id(1)).is_ok());
}

}  // namespace
}  // namespace fgad
