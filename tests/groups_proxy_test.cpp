// Section V extensions: grouped control keys and the local key proxy.
#include <gtest/gtest.h>

#include "cloud/server.h"
#include "fskeys/groups.h"
#include "fskeys/proxy.h"
#include "net/inmemory.h"
#include "support/harness.h"

namespace fgad::fskeys {
namespace {

using cloud::CloudServer;
using crypto::SystemRandom;
using test::payload_for;

class GroupsTest : public ::testing::Test {
 protected:
  GroupsTest()
      : channel_([this](BytesView req) { return server_.handle(req); }),
        client_(channel_, rnd_),
        gfs_(client_) {}

  CloudServer server_;
  SystemRandom rnd_;
  net::DirectChannel channel_;
  client::Client client_;
  GroupedFileSystem gfs_;
};

TEST_F(GroupsTest, GroupsAreIndependent) {
  ASSERT_TRUE(gfs_.create_group(1, 100));  // e.g. /home
  ASSERT_TRUE(gfs_.create_group(2, 200));  // e.g. /var
  EXPECT_EQ(gfs_.group_count(), 2u);
  EXPECT_FALSE(gfs_.create_group(1, 300).is_ok());

  ASSERT_TRUE(gfs_.create_file(1, 10, 5,
                               [](std::size_t i) { return payload_for(i); }));
  ASSERT_TRUE(gfs_.create_file(2, 20, 5, [](std::size_t i) {
    return payload_for(100 + i);
  }));

  // Group-2's control key is untouched by group-1 deletions.
  const crypto::Md g2_before = gfs_.group(2).value()->control_key().value();
  const crypto::Md g1_before = gfs_.group(1).value()->control_key().value();
  ASSERT_TRUE(gfs_.erase_item(10, proto::ItemRef::ordinal(2)));
  EXPECT_NE(gfs_.group(1).value()->control_key().value(), g1_before);
  EXPECT_EQ(gfs_.group(2).value()->control_key().value(), g2_before);

  // Both groups still serve reads.
  EXPECT_EQ(gfs_.access(10, proto::ItemRef::ordinal(0)).value(),
            payload_for(0));
  EXPECT_EQ(gfs_.access(20, proto::ItemRef::ordinal(4)).value(),
            payload_for(104));
}

TEST_F(GroupsTest, FileRouting) {
  ASSERT_TRUE(gfs_.create_group(1, 100));
  ASSERT_TRUE(gfs_.create_group(2, 200));
  ASSERT_TRUE(gfs_.create_file(1, 10, 2,
                               [](std::size_t i) { return payload_for(i); }));
  EXPECT_EQ(gfs_.group_of(10).value(), 1u);
  EXPECT_EQ(gfs_.group_of(99).code(), Errc::kNotFound);
  EXPECT_EQ(gfs_.access(99, proto::ItemRef::ordinal(0)).code(),
            Errc::kNotFound);
  // Duplicate file id across groups is rejected.
  EXPECT_FALSE(gfs_.create_file(2, 10, 1,
                                [](std::size_t i) { return payload_for(i); })
                   .is_ok());
}

TEST_F(GroupsTest, InsertModifyDeleteThroughGroups) {
  ASSERT_TRUE(gfs_.create_group(1, 100));
  ASSERT_TRUE(gfs_.create_file(1, 10, 3,
                               [](std::size_t i) { return payload_for(i); }));
  auto id = gfs_.insert(10, to_bytes("added"));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(gfs_.modify(10, id.value(), to_bytes("edited")));
  EXPECT_EQ(to_string(gfs_.access(10, proto::ItemRef::id(id.value())).value()),
            "edited");
  ASSERT_TRUE(gfs_.delete_file(10));
  EXPECT_EQ(gfs_.access(10, proto::ItemRef::ordinal(0)).code(),
            Errc::kNotFound);
}

class ProxyTest : public ::testing::Test {
 protected:
  ProxyTest()
      : cloud_channel_([this](BytesView req) { return server_.handle(req); }),
        client_(cloud_channel_, rnd_),
        fs_(client_, /*meta_file_id=*/1),
        proxy_(fs_),
        user_channel_([this](BytesView req) { return proxy_.handle(req); }),
        user_(user_channel_) {
    EXPECT_TRUE(fs_.init());
  }

  CloudServer server_;
  SystemRandom rnd_;
  net::DirectChannel cloud_channel_;
  client::Client client_;
  FileSystemClient fs_;
  KeyProxy proxy_;
  net::DirectChannel user_channel_;
  ProxyUser user_;
};

TEST_F(ProxyTest, FullLifecycleThroughProxy) {
  std::vector<Bytes> items = {to_bytes("a"), to_bytes("b"), to_bytes("c")};
  ASSERT_TRUE(user_.create_file(10, items));
  EXPECT_EQ(user_.file_count().value(), 1u);

  EXPECT_EQ(to_string(user_.access(10, proto::ItemRef::ordinal(1)).value()),
            "b");

  auto id = user_.insert(10, to_bytes("d"));
  ASSERT_TRUE(id.is_ok());
  EXPECT_EQ(to_string(user_.access(10, proto::ItemRef::id(id.value())).value()),
            "d");

  ASSERT_TRUE(user_.modify(10, id.value(), to_bytes("dd")));
  EXPECT_EQ(to_string(user_.access(10, proto::ItemRef::id(id.value())).value()),
            "dd");

  // Assured deletion via the proxy: the control-key rotation happens inside
  // the proxy; the user never holds any key.
  const crypto::Md control_before = fs_.control_key().value();
  ASSERT_TRUE(user_.erase_item(10, proto::ItemRef::ordinal(0)));
  EXPECT_NE(fs_.control_key().value(), control_before);
  EXPECT_EQ(user_.access(10, proto::ItemRef::id(0)).code(), Errc::kNotFound);
  EXPECT_EQ(to_string(user_.access(10, proto::ItemRef::ordinal(0)).value()),
            "b");

  ASSERT_TRUE(user_.delete_file(10));
  EXPECT_EQ(user_.file_count().value(), 0u);
}

TEST_F(ProxyTest, ErrorsPropagate) {
  EXPECT_EQ(user_.access(42, proto::ItemRef::ordinal(0)).code(),
            Errc::kNotFound);
  EXPECT_EQ(user_.erase_item(42, proto::ItemRef::id(0)).code(),
            Errc::kNotFound);
  EXPECT_FALSE(user_.delete_file(42).is_ok());
}

TEST_F(ProxyTest, MalformedRequestsRejected) {
  auto env = proto::open_message(proxy_.handle(Bytes{0x01}));
  ASSERT_TRUE(env.is_ok());
  EXPECT_EQ(env.value().type, proto::MsgType::kError);

  const Bytes bogus =
      proto::seal_message(static_cast<proto::MsgType>(999), to_bytes("x"));
  env = proto::open_message(proxy_.handle(bogus));
  EXPECT_EQ(env.value().type, proto::MsgType::kError);

  // Truncated access request.
  proto::Writer w;
  w.u64(10);
  const Bytes truncated =
      proto::seal_message(proto::MsgType::kPxAccessReq, w.data());
  env = proto::open_message(proxy_.handle(truncated));
  EXPECT_EQ(env.value().type, proto::MsgType::kError);

  // An 18-byte create-file request claiming 2^32 - 1 items: the count is
  // bounded by the bytes present, so the reply is a decode error rather
  // than an allocation of ~100 GB.
  proto::Writer hostile;
  hostile.u64(7);            // file_id
  hostile.u64(0xFFFFFFFFu);  // item count, no items follow
  const Bytes frame =
      proto::seal_message(proto::MsgType::kPxCreateFileReq, hostile.data());
  ASSERT_EQ(frame.size(), 18u);
  env = proto::open_message(proxy_.handle(frame));
  ASSERT_EQ(env.value().type, proto::MsgType::kError);
  proto::Reader r(env.value().payload);
  auto err = proto::ErrorMsg::from(r);
  ASSERT_TRUE(err.is_ok());
  EXPECT_EQ(err.value().code, Errc::kDecodeError);
}

TEST_F(ProxyTest, TwoUsersOverPipes) {
  // Two user devices reach the proxy through threaded pipes — the deployment
  // shape the paper sketches (shared file system, one key holder).
  std::vector<Bytes> items = {to_bytes("shared-0"), to_bytes("shared-1")};
  ASSERT_TRUE(user_.create_file(10, items));

  net::Pipe pipe_a;
  net::Pipe pipe_b;
  // One pump each; the KeyProxy itself is driven sequentially per request.
  std::mutex proxy_mu;
  auto guarded = [this, &proxy_mu](BytesView req) {
    std::lock_guard<std::mutex> lock(proxy_mu);
    return proxy_.handle(req);
  };
  net::ServerPump pump_a(pipe_a, guarded);
  net::ServerPump pump_b(pipe_b, guarded);
  net::PipeChannel ch_a(pipe_a);
  net::PipeChannel ch_b(pipe_b);
  ProxyUser alice(ch_a);
  ProxyUser bob(ch_b);

  EXPECT_EQ(to_string(alice.access(10, proto::ItemRef::ordinal(0)).value()),
            "shared-0");
  EXPECT_EQ(to_string(bob.access(10, proto::ItemRef::ordinal(1)).value()),
            "shared-1");
  ASSERT_TRUE(alice.erase_item(10, proto::ItemRef::ordinal(0)));
  EXPECT_EQ(to_string(bob.access(10, proto::ItemRef::ordinal(0)).value()),
            "shared-1");
  pump_a.stop();
  pump_b.stop();
}

}  // namespace
}  // namespace fgad::fskeys
