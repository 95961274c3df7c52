// Wire codec and protocol message round-trips, including malformed-input
// rejection and the decode edge cases of DESIGN.md §11: for every message
// type, a valid payload decodes, every strict prefix is rejected, a trailing
// byte is rejected, and hostile length claims fail without huge allocations.
#include <gtest/gtest.h>

#include "cloud/server.h"
#include "crypto/random.h"
#include "net/tcp.h"
#include "proto/messages.h"
#include "support/message_fixtures.h"

namespace fgad::proto {
namespace {

using core::CutEntry;
using core::DeleteCommit;
using core::DeleteInfo;
using core::InsertCommit;
using core::InsertInfo;
using core::PathView;
using crypto::DeterministicRandom;
using crypto::Md;

TEST(Wire, IntegerRoundtrip) {
  Writer w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_TRUE(r.finish());
}

TEST(Wire, BytesAndStrings) {
  Writer w;
  w.bytes(to_bytes("payload"));
  w.str("name");
  w.bytes({});
  Reader r(w.data());
  EXPECT_EQ(to_string(r.bytes()), "payload");
  EXPECT_EQ(r.str(), "name");
  EXPECT_TRUE(r.bytes().empty());
  EXPECT_TRUE(r.finish());
}

TEST(Wire, MdRoundtrip) {
  DeterministicRandom rnd(1);
  Writer w;
  const Md a = rnd.random_md(20);
  const Md b = rnd.random_md(32);
  w.md(a);
  w.md(b);
  w.md(Md());
  Reader r(w.data());
  EXPECT_EQ(r.md(), a);
  EXPECT_EQ(r.md(), b);
  EXPECT_EQ(r.md(), Md());
  EXPECT_TRUE(r.finish());
}

TEST(Wire, TruncationDetected) {
  Writer w;
  w.u64(7);
  for (std::size_t keep = 0; keep < 8; ++keep) {
    Reader r(BytesView(w.data().data(), keep));
    r.u64();
    EXPECT_FALSE(r.ok()) << keep;
    EXPECT_FALSE(r.finish());
  }
}

TEST(Wire, TrailingBytesDetected) {
  Writer w;
  w.u32(1);
  w.u8(0);
  Reader r(w.data());
  r.u32();
  EXPECT_FALSE(r.finish());  // one byte left over
}

TEST(Wire, OversizedMdRejected) {
  Bytes raw = {200};  // declares a 200-byte digest
  raw.resize(201, 0);
  Reader r(raw);
  r.md();
  EXPECT_FALSE(r.ok());
}

TEST(Messages, EnvelopeRoundtrip) {
  const Bytes frame = seal_message(MsgType::kStatReq, to_bytes("body"));
  auto env = open_message(frame);
  ASSERT_TRUE(env.is_ok());
  EXPECT_EQ(env.value().type, MsgType::kStatReq);
  EXPECT_EQ(to_string(env.value().payload), "body");
  EXPECT_FALSE(open_message(Bytes{0x01}).is_ok());  // too short
}

PathView sample_path(DeterministicRandom& rnd) {
  PathView p;
  p.nodes = {0, 2, 5, 12};
  p.links = {rnd.random_md(20), rnd.random_md(20), rnd.random_md(20)};
  return p;
}

/// Seals `m`, opens the frame and decodes its payload back into an M.
template <typename M>
Result<M> roundtrip(const M& m) {
  auto env = open_message(m.to_frame());
  if (!env) return env.error();
  Reader r(env.value().payload);
  return M::from(r);
}

TEST(Messages, PathRoundtrip) {
  DeterministicRandom rnd(2);
  AccessResp m;
  m.info.path = sample_path(rnd);
  auto back = roundtrip(m);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().info.path.nodes, m.info.path.nodes);
  EXPECT_EQ(back.value().info.path.links, m.info.path.links);
}

TEST(Messages, DeleteInfoRoundtrip) {
  DeterministicRandom rnd(3);
  DeleteInfo info;
  info.path = sample_path(rnd);
  info.leaf_mod = rnd.random_md(20);
  for (int i = 0; i < 3; ++i) {
    CutEntry e;
    e.node = core::sibling_of(info.path.nodes[i + 1]);
    e.link = rnd.random_md(20);
    e.is_leaf = (i == 2);
    if (e.is_leaf) e.leaf_mod = rnd.random_md(20);
    info.cut.push_back(e);
  }
  info.item_id = 99;
  info.ciphertext = to_bytes("ciphertext-bytes");
  info.has_balance = true;
  info.t_path = sample_path(rnd);
  info.t_leaf_mod = rnd.random_md(20);
  info.s_link = rnd.random_md(20);
  info.s_leaf_mod = rnd.random_md(20);

  auto back = roundtrip(DeleteBeginResp{info});
  ASSERT_TRUE(back.is_ok());
  const DeleteInfo& d = back.value().info;
  EXPECT_EQ(d.path.nodes, info.path.nodes);
  EXPECT_EQ(d.leaf_mod, info.leaf_mod);
  ASSERT_EQ(d.cut.size(), info.cut.size());
  EXPECT_EQ(d.cut[2].leaf_mod, info.cut[2].leaf_mod);
  EXPECT_EQ(d.item_id, 99u);
  EXPECT_EQ(d.ciphertext, info.ciphertext);
  EXPECT_TRUE(d.has_balance);
  EXPECT_EQ(d.t_path.nodes, info.t_path.nodes);
  EXPECT_EQ(d.s_leaf_mod, info.s_leaf_mod);
}

TEST(Messages, DeleteCommitRoundtrip) {
  DeterministicRandom rnd(4);
  DeleteCommit c;
  c.leaf = 12;
  c.deltas = {rnd.random_md(20), rnd.random_md(20)};
  c.has_balance = true;
  c.promoted_leaf_mod = rnd.random_md(20);
  c.has_step2 = true;
  c.t_new_link = rnd.random_md(20);
  c.t_new_leaf_mod = rnd.random_md(20);

  auto back = roundtrip(DeleteCommitReq{4, c});
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().commit.leaf, 12u);
  EXPECT_EQ(back.value().commit.deltas, c.deltas);
  EXPECT_EQ(back.value().commit.t_new_leaf_mod, c.t_new_leaf_mod);
}

TEST(Messages, InsertRoundtrips) {
  DeterministicRandom rnd(5);
  InsertInfo info;
  info.q_path = sample_path(rnd);
  info.q_leaf_mod = rnd.random_md(20);
  auto back = roundtrip(InsertBeginResp{info});
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().info.q_leaf_mod, info.q_leaf_mod);

  InsertCommit c;
  c.q = 5;
  c.left_link = rnd.random_md(20);
  c.right_link = rnd.random_md(20);
  c.moved_leaf_mod = rnd.random_md(20);
  c.new_leaf_mod = rnd.random_md(20);
  c.item_id = 1234;
  c.ciphertext = to_bytes("ct");
  c.after_item_id = 7;
  auto back2 = roundtrip(InsertCommitReq{4, c});
  ASSERT_TRUE(back2.is_ok());
  EXPECT_EQ(back2.value().commit.q, 5u);
  EXPECT_EQ(back2.value().commit.after_item_id, 7u);
  EXPECT_EQ(back2.value().commit.new_leaf_mod, c.new_leaf_mod);
}

TEST(Messages, RequestFramesRoundtrip) {
  {
    OutsourceReq m;
    m.file_id = 3;
    m.tree_blob = to_bytes("tree");
    m.items.push_back({11, to_bytes("aa"), 2});
    m.items.push_back({12, to_bytes("bb"), 2});
    auto env = open_message(m.to_frame());
    ASSERT_TRUE(env.is_ok());
    ASSERT_EQ(env.value().type, MsgType::kOutsourceReq);
    Reader r(env.value().payload);
    auto back = OutsourceReq::from(r);
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(back.value().items.size(), 2u);
    EXPECT_EQ(back.value().items[1].item_id, 12u);
  }
  {
    AccessReq m;
    m.file_id = 9;
    m.ref = ItemRef::ordinal(4);
    auto env = open_message(m.to_frame());
    Reader r(env.value().payload);
    auto back = AccessReq::from(r);
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(back.value().ref.kind, RefKind::kOrdinal);
    EXPECT_EQ(back.value().ref.value, 4u);
  }
  {
    ErrorMsg m;
    m.code = Errc::kTamperDetected;
    m.message = "nope";
    auto env = open_message(m.to_frame());
    ASSERT_EQ(env.value().type, MsgType::kError);
    Reader r(env.value().payload);
    auto back = ErrorMsg::from(r);
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(back.value().code, Errc::kTamperDetected);
    EXPECT_EQ(back.value().message, "nope");
  }
}

TEST(Messages, KvFramesRoundtrip) {
  {
    KvPutBatchReq m;
    m.table = 1;
    m.entries.push_back({5, to_bytes("v5")});
    m.entries.push_back({6, to_bytes("v6")});
    auto env = open_message(m.to_frame());
    Reader r(env.value().payload);
    auto back = KvPutBatchReq::from(r);
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(back.value().entries[1].key, 6u);
  }
  {
    KvGetRangeResp m;
    m.entries.push_back({1, to_bytes("a")});
    m.more = true;
    auto env = open_message(m.to_frame());
    Reader r(env.value().payload);
    auto back = KvGetRangeResp::from(r);
    ASSERT_TRUE(back.is_ok());
    EXPECT_TRUE(back.value().more);
  }
}

TEST(Messages, FetchItemsRoundtrip) {
  FetchItemsResp m;
  m.items.push_back({7, 15, to_bytes("ct7")});
  m.more = false;
  auto env = open_message(m.to_frame());
  Reader r(env.value().payload);
  auto back = FetchItemsResp::from(r);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().items[0].leaf, 15u);
}

TEST(Messages, MalformedPayloadRejected) {
  // A DeleteCommit frame whose payload is cut short must fail to decode.
  DeterministicRandom rnd(6);
  DeleteCommit c;
  c.leaf = 3;
  c.deltas = {rnd.random_md(20)};
  auto env = open_message(DeleteCommitReq{4, c}.to_frame());
  ASSERT_TRUE(env.is_ok());
  const Bytes& payload = env.value().payload;
  for (std::size_t keep = 0; keep + 1 < payload.size(); keep += 5) {
    Reader r(BytesView(payload.data(), keep));
    EXPECT_FALSE(DeleteCommitReq::from(r).is_ok()) << keep;
  }
}

TEST(Messages, HostileCountsRejected) {
  // A path claiming 2^30 nodes must be rejected before allocation.
  Writer w;
  w.u32(1u << 30);  // AccessResp::info.path node count
  Reader r(w.data());
  EXPECT_FALSE(AccessResp::from(r).is_ok());
}

// ---- decode edge cases, every message type (DESIGN.md §11) -----------------

/// Asserts the decode contract for one message: the genuine payload decodes
/// and consumes everything; every strict prefix fails (truncation is never
/// silently tolerated); one trailing byte fails (no frame smuggling).
template <typename M>
void check_decode_edges(const char* name, const M& m) {
  auto env = open_message(m.to_frame());
  ASSERT_TRUE(env.is_ok()) << name;
  const Bytes& payload = env.value().payload;
  const auto decodes = [](BytesView p) {
    Reader r(p);
    const auto back = M::from(r);
    return back.is_ok() && static_cast<bool>(r.finish());
  };
  EXPECT_TRUE(decodes(payload)) << name;
  for (std::size_t keep = 0; keep < payload.size(); ++keep) {
    EXPECT_FALSE(decodes(BytesView(payload.data(), keep)))
        << name << ": prefix of " << keep << "/" << payload.size();
  }
  Bytes trailing = payload;
  trailing.push_back(0);
  EXPECT_FALSE(decodes(trailing)) << name << ": trailing byte";
}

TEST(MessagesEdge, EveryMessageRejectsTruncationAndTrailingBytes) {
  test::for_each_message([](const std::string& name, const auto& m) {
    check_decode_edges(name.c_str(), m);
  });
}

TEST(MessagesEdge, HostileLengthClaimsFailWithoutAllocation) {
  // A few-byte payload claiming a multi-GiB field must be rejected up
  // front (count bounded by bytes actually present), not alloc-and-crash.
  {
    Writer w;
    w.u32(0xFFFFFFF0u);  // FetchTreeResp::tree_blob length
    Reader r(w.data());
    EXPECT_FALSE(FetchTreeResp::from(r).is_ok());
  }
  {
    Writer w;
    w.u64(0xFFFFFFFFFFull);  // ListItemsResp id count
    Reader r(w.data());
    EXPECT_FALSE(ListItemsResp::from(r).is_ok());
  }
  {
    Writer w;
    w.u64(1);                // file_id
    w.bytes(to_bytes("t"));  // tree_blob
    w.u64(0xFFFFFFFFull);    // OutsourceReq item count
    Reader r(w.data());
    EXPECT_FALSE(OutsourceReq::from(r).is_ok());
  }
  {
    Writer w;
    w.u64(2);  // file_id
    w.u8(0);   // by_leaf
    w.u8(0);   // include_ciphertext
    w.u32(0xFFFFFFF0u);  // AuditReq target count
    Reader r(w.data());
    EXPECT_FALSE(AuditReq::from(r).is_ok());
  }
  {
    Writer w;
    w.u64(0xFFFFFFFFull);  // KvGetRangeResp entry count
    Reader r(w.data());
    EXPECT_FALSE(KvGetRangeResp::from(r).is_ok());
  }
  {
    Writer w;
    w.u64(0xFFFFFFFFull);  // FetchItemsResp entry count
    Reader r(w.data());
    EXPECT_FALSE(FetchItemsResp::from(r).is_ok());
  }
}

TEST(MessagesEdge, MalformedFramesOverRealTcpGetErrorReplies) {
  // End-to-end: garbage frames through a real TCP server must produce a
  // decodable error reply on the same connection — never a hang, crash, or
  // corrupted stream. (Frames the transport itself rejects — oversized
  // length headers — are covered in net_test.)
  fgad::cloud::CloudServer server;
  auto tcp = fgad::net::TcpServer::create(
      0, [&server](BytesView req) { return server.handle(req); });
  ASSERT_TRUE(tcp.is_ok());
  auto ch = fgad::net::TcpChannel::connect("127.0.0.1", tcp.value()->port());
  ASSERT_TRUE(ch.is_ok());

  const auto expect_error_reply = [&](Bytes frame, const char* what) {
    auto resp = ch.value()->roundtrip(frame);
    ASSERT_TRUE(resp.is_ok()) << what << ": " << resp.status().to_string();
    auto env = open_message(resp.value());
    ASSERT_TRUE(env.is_ok()) << what;
    ASSERT_EQ(env.value().type, MsgType::kError) << what;
    Reader r(env.value().payload);
    EXPECT_TRUE(ErrorMsg::from(r).is_ok()) << what;
  };

  // Unknown message type.
  expect_error_reply(seal_message(static_cast<MsgType>(999), to_bytes("x")),
                     "unknown type");
  // Valid type, truncated payload.
  AccessReq access;
  access.file_id = 1;
  access.ref = ItemRef::id(0);
  Bytes truncated = access.to_frame();
  truncated.resize(truncated.size() - 3);
  expect_error_reply(std::move(truncated), "truncated payload");
  // Valid type, trailing garbage.
  Bytes trailing = access.to_frame();
  trailing.push_back(0xee);
  expect_error_reply(std::move(trailing), "trailing byte");
  // Sub-u16 frame: too short to even carry a message type.
  expect_error_reply(Bytes{0x07}, "one-byte frame");

  // The same connection still serves well-formed requests afterwards.
  StatReq stat;
  stat.file_id = 42;
  auto resp = ch.value()->roundtrip(stat.to_frame());
  ASSERT_TRUE(resp.is_ok());
  auto env = open_message(resp.value());
  ASSERT_TRUE(env.is_ok());  // kError "no such file" — but framing is intact
  tcp.value()->stop();
}

}  // namespace
}  // namespace fgad::proto
