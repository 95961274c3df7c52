// Decoder robustness fuzzing: random and mutated byte strings fed to every
// wire decoder, the server dispatcher, the proxy, and the persistence
// loaders must fail cleanly (no crash, no hang, no accidental success on
// garbage).
#include <gtest/gtest.h>

#include "cloud/server.h"
#include "fskeys/meta.h"
#include "fskeys/proxy.h"
#include "support/harness.h"
#include "support/message_fixtures.h"

namespace fgad {
namespace {

Bytes random_bytes(Xoshiro256& rng, std::size_t max_len) {
  Bytes b(rng.next_below(max_len + 1));
  rng.fill(b);
  return b;
}

/// A wire message's decoder and one valid payload for it.
struct Decoder {
  void (*decode)(BytesView payload);
  Bytes payload;
};

/// Every message decoder: the fixture structs of every proto message and
/// the proxy messages that carry a payload.
std::vector<Decoder> every_decoder() {
  std::vector<Decoder> out;
  const auto add = [&out](const auto& m) {
    using M = std::decay_t<decltype(m)>;
    const Bytes frame = m.to_frame();
    out.push_back({[](BytesView b) {
                     proto::Reader r(b);
                     (void)M::from(r);
                   },
                   Bytes(frame.begin() + 2, frame.end())});
  };
  test::for_each_message([&](const std::string&, const auto& m) { add(m); });
  add(fskeys::PxCreateFileReq{7, {to_bytes("a"), to_bytes("bb")}});
  add(fskeys::PxAccessReq{7, proto::ItemRef::ordinal(1)});
  add(fskeys::PxAccessResp{to_bytes("content")});
  add(fskeys::PxInsertReq{7, to_bytes("new")});
  add(fskeys::PxInsertResp{3});
  add(fskeys::PxEraseReq{7, proto::ItemRef::byte_offset(5)});
  add(fskeys::PxModifyReq{7, 3, to_bytes("edit")});
  add(fskeys::PxDeleteFileReq{7});
  add(fskeys::PxListFilesResp{2});
  return out;
}

/// Every assigned message type, read off msg_type_name's table.
std::vector<proto::MsgType> every_type() {
  std::vector<proto::MsgType> out;
  for (std::uint32_t t = 0; t <= 0xFFFF; ++t) {
    const auto type = static_cast<proto::MsgType>(t);
    if (std::string_view(proto::msg_type_name(type)) != "unknown") {
      out.push_back(type);
    }
  }
  return out;
}

TEST(DecodeFuzz, MessageDecodersSurviveRandomBytes) {
  const std::vector<Decoder> decoders = every_decoder();
  Xoshiro256 rng(1);
  for (int i = 0; i < 3000; ++i) {
    const Bytes junk = random_bytes(rng, 200);
    for (const Decoder& d : decoders) {
      d.decode(junk);
      // A real payload with a few bytes flipped reaches the deeper fields.
      Bytes mutant = d.payload;
      for (int f = 0; f < 3 && !mutant.empty(); ++f) {
        mutant[rng.next_below(mutant.size())] ^=
            static_cast<std::uint8_t>(1 + rng.next_below(255));
      }
      d.decode(mutant);
    }
  }
  SUCCEED();
}

TEST(DecodeFuzz, ServerDispatcherSurvivesRandomFrames) {
  cloud::CloudServer server;
  Xoshiro256 rng(2);
  for (int i = 0; i < 2000; ++i) {
    Bytes junk = random_bytes(rng, 120);
    const Bytes resp = server.handle(junk);
    // Every response must itself be a well-formed frame.
    EXPECT_TRUE(proto::open_message(resp).is_ok());
  }
}

TEST(DecodeFuzz, ServerSurvivesTypedGarbagePayloads) {
  cloud::CloudServer server;
  Xoshiro256 rng(3);
  // Every message type, each with random payloads; the server answers the
  // ones it does not serve (responses, proxy and replication messages)
  // with an error frame.
  const std::vector<proto::MsgType> types = every_type();
  for (int i = 0; i < 6000; ++i) {
    const auto type = types[i % types.size()];
    const Bytes frame = proto::seal_message(type, random_bytes(rng, 100));
    const Bytes resp = server.handle(frame);
    auto env = proto::open_message(resp);
    ASSERT_TRUE(env.is_ok());
  }
}

TEST(DecodeFuzz, ProxySurvivesRandomFrames) {
  cloud::CloudServer server;
  net::DirectChannel cloud_ch(
      [&server](BytesView req) { return server.handle(req); });
  crypto::SystemRandom rnd;
  client::Client client(cloud_ch, rnd);
  fskeys::FileSystemClient fs(client, 1);
  ASSERT_TRUE(fs.init());
  fskeys::KeyProxy proxy(fs);
  const std::vector<proto::MsgType> types = every_type();
  Xoshiro256 rng(4);
  for (int i = 0; i < 1000; ++i) {
    const Bytes resp = proxy.handle(random_bytes(rng, 100));
    EXPECT_TRUE(proto::open_message(resp).is_ok());
    const Bytes typed = proto::seal_message(types[i % types.size()],
                                            random_bytes(rng, 100));
    EXPECT_TRUE(proto::open_message(proxy.handle(typed)).is_ok());
  }
}

TEST(DecodeFuzz, MutatedValidFramesRejectedCleanly) {
  // Take real protocol frames and flip bytes: the server must answer every
  // mutant with a frame (error or success), never crash.
  cloud::CloudServer server;
  net::DirectChannel ch([&server](BytesView req) { return server.handle(req); });
  crypto::SystemRandom rnd;
  client::Client client(ch, rnd);
  auto fh = client.outsource(1, 8,
                             [](std::size_t i) { return test::payload_for(i); });
  ASSERT_TRUE(fh.is_ok());

  proto::AccessReq areq;
  areq.file_id = 1;
  areq.ref = proto::ItemRef::id(2);
  const Bytes base = areq.to_frame();
  Xoshiro256 rng(5);
  for (int i = 0; i < 1500; ++i) {
    Bytes mutant = base;
    const std::size_t flips = 1 + rng.next_below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutant[rng.next_below(mutant.size())] ^=
          static_cast<std::uint8_t>(1 + rng.next_below(255));
    }
    const Bytes resp = server.handle(mutant);
    EXPECT_TRUE(proto::open_message(resp).is_ok());
  }
}

TEST(DecodeFuzz, TreeDeserializerSurvivesMutants) {
  test::Harness h(crypto::HashAlg::kSha1, 6);
  h.outsource(20);
  proto::Writer w;
  h.store().tree().serialize(w);
  const Bytes base = w.data();
  Xoshiro256 rng(6);
  int accepted = 0;
  for (int i = 0; i < 800; ++i) {
    Bytes mutant = base;
    if (rng.next_below(4) == 0 && mutant.size() > 2) {
      mutant.resize(rng.next_below(mutant.size()));  // truncate
    } else {
      mutant[rng.next_below(mutant.size())] ^= 0xff;
    }
    proto::Reader r(mutant);
    auto tree = core::ModulationTree::deserialize(
        r, core::ModulationTree::Config{crypto::HashAlg::kSha1, false});
    if (tree.is_ok() && r.finish()) {
      ++accepted;  // flipped a modulator byte: structurally still valid
    }
  }
  // Structural mutations must be rejected; only content flips may pass.
  SUCCEED() << accepted << " content-only mutants accepted";
}

TEST(DecodeFuzz, ServerImageLoaderSurvivesMutants) {
  cloud::CloudServer server;
  crypto::SystemRandom rnd;
  net::DirectChannel ch([&server](BytesView req) { return server.handle(req); });
  client::Client client(ch, rnd);
  ASSERT_TRUE(client
                  .outsource(1, 6,
                             [](std::size_t i) { return test::payload_for(i); })
                  .is_ok());
  server.kv_put(2, 1, to_bytes("blob"));
  proto::Writer w;
  server.save(w);
  const Bytes base = w.data();
  Xoshiro256 rng(7);
  for (int i = 0; i < 400; ++i) {
    Bytes mutant = base;
    if (rng.next_below(3) == 0) {
      mutant.resize(rng.next_below(mutant.size()));
    } else {
      mutant[rng.next_below(mutant.size())] ^= 0x10;
    }
    proto::Reader r(mutant);
    (void)cloud::CloudServer::load(r, {});  // must not crash
  }
  SUCCEED();
}

}  // namespace
}  // namespace fgad
