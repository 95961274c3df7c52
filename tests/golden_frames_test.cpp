// Golden frames: the exact bytes of every wire message, frozen as hex.
//
// Every message struct (tests/support/message_fixtures.h, one instance per
// arm of each top-level optional group), the key proxy's request and
// response frames, and the untagged, V1 and V2 envelopes are compared byte
// for byte with frames captured from the hand-written codec the field-list
// codec replaced. The paper's communication overhead (Figure 5, Table II) is
// the size of these frames, so no refactor may move a byte. A deliberate
// layout change updates the hex here in the same commit; a mismatch prints
// the new frame (DESIGN.md §11).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cloud/server.h"
#include "fskeys/proxy.h"
#include "support/message_fixtures.h"

namespace fgad {
namespace {

const std::map<std::string, std::string> kMessageGoldens = {
    {"ErrorMsg", "00000500070000006d697373696e67"},
    {"OutsourceReq",
     "01000300000000000000040000007472656502000000000000000b0000000000"
     "00000400000063742d6104000000000000000c00000000000000040000006374"
     "2d620400000000000000"},
    {"AccessReq", "03000900000000000000026400000000000000"},
    {"AccessResp",
     "0400030000000000000000000000020000000000000005000000000000000401"
     "a5025a0402a5035a040aa50b5a1100000000000000060000007365616c6564"},
    {"ModifyReq",
     "050001000000000000000200000000000000060000006e65772d637406000000"
     "00000000"},
    {"InsertBeginReq", "07000400000000000000"},
    {"InsertBeginResp",
     "0800000300000000000000000000000200000000000000050000000000000004"
     "14a5155a0415a5165a041ea51f5a"},
    {"InsertBeginResp/empty_tree", "080001"},
    {"InsertCommitReq",
     "090004000000000000000005000000000000000428a5295a0429a52a5a042aa5"
     "2b5a042ba52c5a4d000000000000000200000063740200000000000000070000"
     "0000000000"},
    {"InsertCommitReq/empty_tree",
     "0900040000000000000001042ca52d5a4e000000000000000500000066697273"
     "740500000000000000ffffffffffffffff"},
    {"DeleteBeginReq", "0b000400000000000000010200000000000000"},
    {"DeleteBeginResp",
     "0c00030000000000000000000000020000000000000005000000000000000432"
     "a5335a0433a5345a0434a5355a0200000001000000000000000435a5365a0006"
     "000000000000000437a5385a010438a5395a1500000000000000090000007461"
     "726765742d637401030000000000000000000000020000000000000005000000"
     "000000000439a53a5a043aa53b5a043ba53c5a043ca53d5a043da53e5a"},
    {"DeleteBeginResp/no_balance",
     "0c00010000000000000000000000043ea53f5a00000000160000000000000007"
     "0000006f6e6c792d637400"},
    {"DeleteCommitReq",
     "0d0004000000000000000c00000000000000020000000446a5475a0447a5485a"
     "010448a5495a010449a54a5a044aa54b5a"},
    {"DeleteCommitReq/no_step2",
     "0d0004000000000000000c00000000000000020000000446a5475a0447a5485a"
     "010448a5495a00"},
    {"DeleteCommitReq/no_balance",
     "0d00040000000000000000000000000000000000000000"},
    {"DeleteManyBeginReq",
     "1900040000000000000003000000000100000000000000010200000000000000"
     "020300000000000000"},
    {"DeleteManyBeginResp",
     "1a00070000000000000002000000030000000000000000000000020000000000"
     "000005000000000000000450a5515a0451a5525a0452a5535a1f000000000000"
     "0002000000743103000000000000000000000002000000000000000500000000"
     "0000000453a5545a0454a5555a0455a5565a2000000000000000020000007432"
     "0200000001000000000000000456a5575a0006000000000000000457a5585a01"
     "0458a5595a010000000300000000000000000000000200000000000000050000"
     "00000000000459a55a5a045aa55b5a0100000003000000000000000000000002"
     "000000000000000500000000000000045ba55c5a045ca55d5a045da55e5a"},
    {"DeleteManyCommitReq",
     "1b00040000000000000002000000050000000000000006000000000000000200"
     "00000464a5655a0465a5665a020000000466a5675a000467a5685a010468a569"
     "5a"},
    {"FetchTreeReq", "0f000800000000000000"},
    {"FetchTreeResp", "10000f00000073657269616c697a65642d74726565"},
    {"FetchItemsReq", "11000800000000000000030000000000000010000000"},
    {"FetchItemsResp",
     "1200020000000000000007000000000000000f00000000000000030000006374"
     "37080000000000000010000000000000000300000063743801"},
    {"ListItemsReq", "13000800000000000000"},
    {"ListItemsResp",
     "14000300000000000000040000000000000008000000000000000f0000000000"
     "0000"},
    {"DropFileReq", "15000800000000000000"},
    {"StatReq", "17000800000000000000"},
    {"StatResp", "18000a000000000000001300000000000000d204000000000000"},
    {"AuditReq",
     "5000080000000000000001010300000001000000000000000200000000000000"
     "0300000000000000"},
    {"AuditResp",
     "5100046ea56f5a02000000050000000000000009000000000000000103000000"
     "637435046fa5705a020470a5715a0471a5725a06000000000000000a00000000"
     "000000000472a5735a00"},
    {"KvPutReq", "1e00010000000000000002000000000000000100000076"},
    {"KvGetReq", "200001000000000000000200000000000000"},
    {"KvGetResp", "2100010100000076"},
    {"KvDeleteReq", "220001000000000000000200000000000000"},
    {"KvGetRangeReq", "2400010000000000000005000000000000000a000000"},
    {"KvGetRangeResp", "25000100000000000000050000000000000002000000763501"},
    {"KvPutBatchReq",
     "2600010000000000000002000000000000000500000000000000020000007635"
     "0600000000000000020000007636"},
    {"ReplAppend",
     "64000300000000000000290000000000000002000000000000002a0000000000"
     "0000070000006672616d652d612b00000000000000070000006672616d652d62"},
    {"ReplAck", "650003000000000000002b0000000000000001"},
    {"ReplSnapshot",
     "660003000000000000002b0000000000000010000000636865636b706f696e74"
     "2d696d6167650b00000064656475702d7461626c65"},
    {"ReplHeartbeat", "670003000000000000002b00000000000000"},
};

TEST(GoldenFrames, EveryMessageStructMatchesItsGolden) {
  std::size_t visited = 0;
  test::for_each_message([&](const std::string& name, const auto& m) {
    ++visited;
    const std::string hex = to_hex(m.to_frame());
    const auto it = kMessageGoldens.find(name);
    if (it == kMessageGoldens.end()) {
      ADD_FAILURE() << name << " has no golden; frame is " << hex;
      return;
    }
    EXPECT_EQ(hex, it->second) << name;
  });
  EXPECT_EQ(visited, kMessageGoldens.size());
}

// (message type name, frame hex) for one ProxyUser session below, requests
// and responses interleaved.
const std::vector<std::pair<std::string, std::string>> kProxyGoldens = {
    {"px_create_file_req",
     "3c000a0000000000000002000000000000000100000061020000006262"},
    {"px_create_file_resp", "3d00"},
    {"px_list_files_req", "4800"},
    {"px_list_files_resp", "49000100000000000000"},
    {"px_access_req", "3e000a00000000000000010100000000000000"},
    {"px_access_resp", "3f00020000006262"},
    {"px_insert_req", "40000a000000000000000100000063"},
    {"px_insert_resp", "41000300000000000000"},
    {"px_modify_req", "44000a000000000000000300000000000000020000006363"},
    {"px_modify_resp", "4500"},
    {"px_erase_req", "42000a00000000000000020000000000000000"},
    {"px_erase_resp", "4300"},
    {"px_delete_file_req", "46000a00000000000000"},
    {"px_delete_file_resp", "4700"},
};

TEST(GoldenFrames, KeyProxyRequestsAndResponses) {
  cloud::CloudServer server;
  net::DirectChannel cloud_ch(
      [&server](BytesView req) { return server.handle(req); });
  crypto::SystemRandom rnd;
  client::Client client(cloud_ch, rnd);
  fskeys::FileSystemClient fs(client, /*meta_file_id=*/1);
  ASSERT_TRUE(fs.init());
  fskeys::KeyProxy proxy(fs);
  std::vector<std::pair<std::string, std::string>> frames;
  const auto record = [&frames](BytesView frame) {
    frames.emplace_back(proto::msg_type_name(*proto::peek_type(frame)),
                        to_hex(frame));
  };
  net::DirectChannel user_ch([&](BytesView req) {
    record(req);
    Bytes resp = proxy.handle(req);
    record(resp);
    return resp;
  });
  fskeys::ProxyUser user(user_ch);

  const std::vector<Bytes> items = {to_bytes("a"), to_bytes("bb")};
  ASSERT_TRUE(user.create_file(10, items));
  ASSERT_EQ(user.file_count().value(), 1u);
  ASSERT_EQ(to_string(user.access(10, proto::ItemRef::ordinal(1)).value()),
            "bb");
  const auto id = user.insert(10, to_bytes("c"));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(user.modify(10, id.value(), to_bytes("cc")));
  ASSERT_TRUE(user.erase_item(10, proto::ItemRef::byte_offset(0)));
  ASSERT_TRUE(user.delete_file(10));

  ASSERT_EQ(frames.size(), kProxyGoldens.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i], kProxyGoldens[i]) << "frame " << i;
  }
}

TEST(GoldenFrames, UntaggedV1AndV2Envelopes) {
  const Bytes inner = proto::StatReq{7}.to_frame();
  const Bytes v1 = proto::seal_tagged(0x1122334455667788ull, inner);
  const Bytes v2_req =
      proto::seal_tagged_v2(0x1122334455667788ull, 0xa1, 0xb2, {}, inner);
  const Bytes v2_resp = proto::seal_tagged_v2(
      0x1122334455667788ull, 0xa1, 0, {{1, 1000}, {4, 250000}}, inner);
  EXPECT_EQ(to_hex(inner), "17000700000000000000");
  EXPECT_EQ(to_hex(v1), "5a00887766554433221117000700000000000000");
  EXPECT_EQ(to_hex(v2_req),
            "5b008877665544332211a100000000000000b200000000000000001700070000"
            "0000000000");
  EXPECT_EQ(to_hex(v2_resp),
            "5b008877665544332211a10000000000000000000000000000000201e8030000"
            "000000000490d003000000000017000700000000000000");

  for (const Bytes* framed : {&v1, &v2_req, &v2_resp}) {
    auto env = proto::open_message(*framed);
    ASSERT_TRUE(env.is_ok());
    EXPECT_EQ(env.value().type, proto::MsgType::kStatReq);
    EXPECT_EQ(env.value().request_id, 0x1122334455667788ull);
    EXPECT_EQ(env.value().payload, Bytes(inner.begin() + 2, inner.end()));
  }
  const auto info = proto::open_tagged(v2_resp);
  ASSERT_TRUE(info.has_value());
  EXPECT_TRUE(info->v2);
  EXPECT_EQ(info->span_id, 0xa1u);
  ASSERT_EQ(info->timings.size(), 2u);
  EXPECT_EQ(info->timings[1].kind, 4);
  EXPECT_EQ(info->timings[1].ns, 250000u);
}

}  // namespace
}  // namespace fgad
