// Protocol suite under injected network faults (DESIGN.md §11).
//
// FaultInjectingChannel sits behind the Transport seam, so the real client
// and server run unmodified while requests are dropped, connections reset
// mid-frame, and response frames truncated or bit-flipped. The properties
// asserted here are the transport-hardening contract:
//   * idempotent RPCs (access, fetches, audit) succeed transparently under
//     retry + redial, within a wall-clock bound;
//   * mutating RPCs (delete, insert) are NEVER resent — they surface the
//     typed transport error and leave server state untouched;
//   * corrupted response frames are detected (decode or integrity error),
//     never silently accepted;
//   * every operation terminates with ok or a typed error — no hangs.
// All fault randomness is seeded, so runs are deterministic.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "client/client.h"
#include "cloud/server.h"
#include "common/stopwatch.h"
#include "net/failover.h"
#include "net/fault.h"
#include "net/inmemory.h"
#include "net/tcp.h"
#include "proto/messages.h"
#include "support/harness.h"

namespace fgad {
namespace {

using client::Client;
using cloud::CloudServer;
using crypto::SystemRandom;
using test::payload_for;

/// The one endpoint of a single server; the dials below ignore it.
net::FailoverChannel::Resolver one_endpoint() {
  return net::static_endpoints({{"127.0.0.1", 0}});
}

/// Dial producing a fresh fault-injecting channel over an in-process
/// connection to `server`. Each dial gets a distinct seed so a redial
/// does not replay the previous connection's fault pattern.
net::FailoverChannel::Dial faulty_direct_dialer(
    CloudServer& server, net::FaultInjectingChannel::Options opts) {
  auto dial_count = std::make_shared<std::atomic<std::uint64_t>>(0);
  return [&server, opts, dial_count](const net::Endpoint&) mutable
             -> Result<std::unique_ptr<net::RpcChannel>> {
    auto direct = std::make_unique<net::DirectChannel>(
        [&server](BytesView req) { return server.handle(req); });
    net::FaultInjectingChannel::Options per_dial = opts;
    per_dial.seed = opts.seed + dial_count->fetch_add(1);
    return std::unique_ptr<net::RpcChannel>(
        std::make_unique<net::FaultInjectingChannel>(std::move(direct),
                                                     per_dial));
  };
}

net::FailoverChannel::Options retry_options(int max_attempts) {
  net::FailoverChannel::Options opts;
  opts.max_attempts = max_attempts;
  opts.base_backoff_ms = 1;
  opts.max_backoff_ms = 5;
  opts.retryable = [](BytesView frame) {
    return proto::retryable_request(frame);
  };
  return opts;
}

TEST(FaultInjection, FaultsAreDeterministicAndCounted) {
  net::DirectChannel inner([](BytesView req) {
    return Bytes(req.begin(), req.end());
  });

  // drop_request = 1: every roundtrip times out, server never sees it.
  {
    net::FaultInjectingChannel ch(inner, {.drop_request = 1.0});
    auto resp = ch.roundtrip(to_bytes("x"));
    ASSERT_FALSE(resp.is_ok());
    EXPECT_EQ(resp.error().code, Errc::kTimeout);
    EXPECT_EQ(ch.counters().dropped_requests, 1u);
  }
  // disconnect = 1: first roundtrip resets, channel stays dead until reset().
  {
    net::FaultInjectingChannel ch(inner, {.disconnect = 1.0});
    EXPECT_EQ(ch.roundtrip(to_bytes("x")).code(), Errc::kConnReset);
    EXPECT_TRUE(ch.dead());
    EXPECT_EQ(ch.roundtrip(to_bytes("x")).code(), Errc::kConnReset);
    ch.reset();
    EXPECT_FALSE(ch.dead());
    EXPECT_EQ(ch.roundtrip(to_bytes("x")).code(), Errc::kConnReset);  // redrawn
    EXPECT_EQ(ch.counters().disconnects, 2u);
  }
  // truncate = 1: responses come back shorter, never longer.
  {
    net::FaultInjectingChannel ch(inner, {.truncate_response = 1.0});
    const Bytes req = payload_for(0, 64);
    auto resp = ch.roundtrip(req);
    ASSERT_TRUE(resp.is_ok());
    EXPECT_LT(resp.value().size(), req.size());
    EXPECT_EQ(ch.counters().truncated, 1u);
  }
  // bitflip = 1: same length, exactly one bit differs.
  {
    net::FaultInjectingChannel ch(inner, {.bitflip_response = 1.0});
    const Bytes req = payload_for(0, 64);
    auto resp = ch.roundtrip(req);
    ASSERT_TRUE(resp.is_ok());
    ASSERT_EQ(resp.value().size(), req.size());
    int diff_bits = 0;
    for (std::size_t i = 0; i < req.size(); ++i) {
      diff_bits += __builtin_popcount(resp.value()[i] ^ req[i]);
    }
    EXPECT_EQ(diff_bits, 1);
  }
}

TEST(FaultInjection, IdempotentOpsSucceedUnderDropAndDisconnect) {
  CloudServer server;
  SystemRandom rnd;

  // Clean channel for setup (outsource is mutating, hence not auto-retried).
  net::DirectChannel clean([&server](BytesView req) {
    return server.handle(req);
  });
  Client setup(clean, rnd);
  std::vector<Bytes> items;
  for (int i = 0; i < 16; ++i) items.push_back(payload_for(i));
  auto fh = setup.outsource(1, items);
  ASSERT_TRUE(fh.is_ok());

  net::FaultInjectingChannel::Options faults;
  faults.drop_request = 0.2;
  faults.disconnect = 0.1;
  faults.seed = 7;
  net::FailoverChannel retry(one_endpoint(),
                             faulty_direct_dialer(server, faults),
                             retry_options(/*max_attempts=*/8));
  Client faulty(retry, rnd);

  Stopwatch sw;
  for (std::uint64_t i = 0; i < 16; ++i) {
    auto got = faulty.access(fh.value(), proto::ItemRef::id(i));
    ASSERT_TRUE(got.is_ok()) << "item " << i << ": "
                             << got.status().to_string();
    EXPECT_EQ(got.value(), items[i]);
  }
  auto listed = faulty.list_items(fh.value());
  ASSERT_TRUE(listed.is_ok());
  EXPECT_EQ(listed.value().size(), 16u);
  // ~30% fault rate over dozens of RPCs: redials must have happened, and
  // the loop must finish promptly (backoff is single-digit ms).
  EXPECT_GT(retry.dials(), 1u);
  EXPECT_GT(retry.resends(), 0u);
  EXPECT_LT(sw.elapsed_seconds(), 20.0);
}

TEST(FaultInjection, MutatingOpsAreNeverResent) {
  CloudServer server;
  SystemRandom rnd;
  net::DirectChannel clean([&server](BytesView req) {
    return server.handle(req);
  });
  Client setup(clean, rnd);
  std::vector<Bytes> items = {to_bytes("a"), to_bytes("b"), to_bytes("c")};
  auto fh = setup.outsource(1, items);
  ASSERT_TRUE(fh.is_ok());

  // Every request is dropped on this channel.
  net::FaultInjectingChannel::Options faults;
  faults.drop_request = 1.0;
  net::FailoverChannel retry(one_endpoint(),
                             faulty_direct_dialer(server, faults),
                             retry_options(/*max_attempts=*/3));
  Client faulty(retry, rnd);

  // Idempotent op: retried to exhaustion, then the typed give-up error.
  auto got = faulty.access(fh.value(), proto::ItemRef::id(0));
  ASSERT_FALSE(got.is_ok());
  EXPECT_EQ(got.error().code, Errc::kRetryExhausted);
  const std::uint64_t resends_after_access = retry.resends();
  EXPECT_EQ(resends_after_access, 2u);  // 3 attempts = 1 send + 2 resends

  // Mutating op: fails fast with the underlying transport error and is
  // never resent — an assured-deletion request must not be replayed blind.
  const crypto::Md key_before = fh.value().key.value();
  auto st = faulty.erase_item(fh.value(), proto::ItemRef::id(1));
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), Errc::kTimeout);
  EXPECT_EQ(retry.resends(), resends_after_access);
  // The failed delete must not have rotated the client's master key...
  EXPECT_EQ(fh.value().key.value(), key_before);
  // ...and the server still serves the item through a clean channel.
  auto still_there = setup.access(fh.value(), proto::ItemRef::id(1));
  ASSERT_TRUE(still_there.is_ok());
  EXPECT_EQ(still_there.value(), items[1]);
}

TEST(FaultInjection, CorruptedResponsesAreDetectedNotAccepted) {
  CloudServer server;
  SystemRandom rnd;
  net::DirectChannel clean([&server](BytesView req) {
    return server.handle(req);
  });
  Client setup(clean, rnd);
  std::vector<Bytes> items;
  for (int i = 0; i < 8; ++i) items.push_back(payload_for(i, 64));
  auto fh = setup.outsource(1, items);
  ASSERT_TRUE(fh.is_ok());

  // No retry layer: every corruption must surface to the caller.
  net::DirectChannel direct([&server](BytesView req) {
    return server.handle(req);
  });
  for (const bool truncate : {true, false}) {
    net::FaultInjectingChannel::Options faults;
    if (truncate) {
      faults.truncate_response = 1.0;
    } else {
      faults.bitflip_response = 1.0;
    }
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
      faults.seed = seed;
      net::FaultInjectingChannel ch(direct, faults);
      Client c(ch, rnd);
      auto got = c.access(fh.value(), proto::ItemRef::id(seed % 8));
      // A corrupted frame must never be returned as the item's plaintext:
      // either the decoder rejects it or MT(k) integrity catches it. (A
      // bit-flip that lands in the padding the codec discards can still
      // legitimately decode to the right plaintext.)
      if (got.is_ok()) {
        EXPECT_EQ(got.value(), items[seed % 8])
            << (truncate ? "truncate" : "bitflip") << " seed " << seed;
      }
    }
  }
}

TEST(FaultInjection, FullFaultMixOverRealTcpStaysBounded) {
  CloudServer server;
  SystemRandom rnd;
  auto tcp = net::TcpServer::create(
      0, [&server](BytesView req) { return server.handle(req); });
  ASSERT_TRUE(tcp.is_ok());
  const std::uint16_t port = tcp.value()->port();

  // Setup over a clean TCP connection.
  auto clean = net::TcpChannel::connect("127.0.0.1", port);
  ASSERT_TRUE(clean.is_ok());
  Client setup(*clean.value(), rnd);
  std::vector<Bytes> items;
  for (int i = 0; i < 12; ++i) items.push_back(payload_for(i));
  auto fh = setup.outsource(1, items);
  ASSERT_TRUE(fh.is_ok());

  // Dialer: real TCP connect, wrapped in the full fault mix.
  net::TcpChannel::Options tcp_opts;
  tcp_opts.io_timeout_ms = 2000;
  auto dial_count = std::make_shared<std::atomic<std::uint64_t>>(0);
  net::FailoverChannel::Dial dialer =
      [tcp_opts, dial_count](const net::Endpoint& ep)
      -> Result<std::unique_ptr<net::RpcChannel>> {
    auto ch = net::TcpChannel::connect(ep.host, ep.port, tcp_opts);
    if (!ch) return ch.error();
    net::FaultInjectingChannel::Options faults;
    faults.drop_request = 0.1;
    faults.disconnect = 0.1;
    faults.drop_response = 0.1;
    faults.truncate_response = 0.1;
    faults.bitflip_response = 0.1;
    faults.delay = 0.2;
    faults.delay_ms = 1;
    faults.seed = 100 + dial_count->fetch_add(1);
    return std::unique_ptr<net::RpcChannel>(
        std::make_unique<net::FaultInjectingChannel>(std::move(ch).value(),
                                                     faults));
  };
  net::FailoverChannel retry(net::static_endpoints({{"127.0.0.1", port}}),
                             dialer, retry_options(/*max_attempts=*/8));
  Client faulty(retry, rnd);

  // Every RPC must terminate promptly with ok or a typed error — and a
  // success must return the true plaintext, never a corrupted one.
  Stopwatch sw;
  int ok_count = 0;
  for (int round = 0; round < 30; ++round) {
    const std::uint64_t id = static_cast<std::uint64_t>(round) % 12;
    auto got = faulty.access(fh.value(), proto::ItemRef::id(id));
    if (got.is_ok()) {
      ++ok_count;
      EXPECT_EQ(got.value(), items[id]) << "round " << round;
    } else {
      EXPECT_NE(got.error().code, Errc::kOk) << got.status().to_string();
    }
  }
  // Retry absorbs transport faults; corruption (not retried — the frame
  // arrived) accounts for the rest. Most rounds must still succeed.
  EXPECT_GT(ok_count, 15);
  EXPECT_LT(sw.elapsed_seconds(), 30.0);

  tcp.value()->stop();
}

/// Routes delete-commit frames (single and bulk) through a fault layer
/// while every other frame takes the clean path — the deterministic way
/// to kill exactly the commit phase of a batched deletion.
class CommitFaultRouter final : public net::RpcChannel {
 public:
  CommitFaultRouter(net::RpcChannel& clean, net::RpcChannel& faulty)
      : clean_(clean), faulty_(faulty) {}

  Result<Bytes> roundtrip(BytesView frame) override {
    const auto type = proto::peek_type(frame);
    const bool commit =
        type && (*type == proto::MsgType::kDeleteCommitReq ||
                 *type == proto::MsgType::kDeleteManyCommitReq);
    return commit ? faulty_.roundtrip(frame) : clean_.roundtrip(frame);
  }

 private:
  net::RpcChannel& clean_;
  net::RpcChannel& faulty_;
};

TEST(FaultInjection, EraseBatchCommitDisconnectPoisonsAllStagedHandles) {
  // Satellite scenario: the pipelined commit batch of erase_batch dies in
  // transport. The client cannot know which commits (if any) the server
  // applied, so it must NOT silently keep the old keys — it poisons every
  // staged handle and reports kIndeterminate until resync() settles each.
  CloudServer server;
  SystemRandom rnd;
  net::DirectChannel clean(
      [&server](BytesView req) { return server.handle(req); });
  net::DirectChannel inner(
      [&server](BytesView req) { return server.handle(req); });
  // disconnect = 1: the connection dies BEFORE the server executes, so
  // in truth no commit landed — which resync() must discover.
  net::FaultInjectingChannel faulty(inner, {.disconnect = 1.0});
  CommitFaultRouter router(clean, faulty);
  Client client(router, rnd);

  std::vector<Bytes> items;
  for (int i = 0; i < 10; ++i) items.push_back(payload_for(i));
  auto fh1 = client.outsource(1, items);
  auto fh2 = client.outsource(2, items);
  ASSERT_TRUE(fh1.is_ok());
  ASSERT_TRUE(fh2.is_ok());
  auto ids2 = client.list_items(fh2.value());
  ASSERT_TRUE(ids2.is_ok());

  std::vector<Client::FileHandle*> handles{&fh1.value(), &fh2.value()};
  std::vector<proto::ItemRef> refs{proto::ItemRef::id(3),
                                   proto::ItemRef::id(ids2.value()[4])};
  EXPECT_EQ(client.erase_batch(handles, refs).code(), Errc::kIndeterminate);
  EXPECT_TRUE(fh1.value().poisoned);
  EXPECT_TRUE(fh2.value().poisoned);

  // Every operation fails fast on a poisoned handle...
  EXPECT_EQ(client.access(fh1.value(), proto::ItemRef::id(0)).code(),
            Errc::kIndeterminate);
  EXPECT_EQ(client.erase_item(fh2.value(), refs[1]).code(),
            Errc::kIndeterminate);
  // ...until resync determines the server never applied the commits and
  // re-adopts the OLD keys.
  ASSERT_TRUE(client.resync(fh1.value()));
  ASSERT_TRUE(client.resync(fh2.value()));
  EXPECT_FALSE(fh1.value().poisoned);
  EXPECT_FALSE(fh2.value().poisoned);
  EXPECT_EQ(client.access(fh1.value(), proto::ItemRef::id(3)).value(),
            items[3]);
  EXPECT_EQ(client.access(fh2.value(), proto::ItemRef::id(ids2.value()[4]))
                .value(),
            items[4]);
}

TEST(FaultInjection, EraseItemLostCommitResponseResyncsToNewKey) {
  // The opposite truth: drop_response executes the commit server-side and
  // loses only the ACK. Assuming "it failed" and keeping the old key
  // would permanently desynchronize the client; resync() must detect the
  // rotation and adopt the pending key.
  CloudServer server;
  SystemRandom rnd;
  net::DirectChannel clean(
      [&server](BytesView req) { return server.handle(req); });
  net::DirectChannel inner(
      [&server](BytesView req) { return server.handle(req); });
  net::FaultInjectingChannel faulty(inner, {.drop_response = 1.0});
  CommitFaultRouter router(clean, faulty);
  Client client(router, rnd);

  std::vector<Bytes> items;
  for (int i = 0; i < 10; ++i) items.push_back(payload_for(i));
  auto fh = client.outsource(1, items);
  ASSERT_TRUE(fh.is_ok());

  EXPECT_EQ(client.erase_item(fh.value(), proto::ItemRef::id(2)).code(),
            Errc::kIndeterminate);
  EXPECT_TRUE(fh.value().poisoned);
  ASSERT_TRUE(client.resync(fh.value()));
  EXPECT_FALSE(fh.value().poisoned);
  // The deletion DID land; survivors decrypt under the adopted new key.
  EXPECT_FALSE(client.access(fh.value(), proto::ItemRef::id(2)).is_ok());
  for (std::uint64_t id : {0u, 1u, 3u, 9u}) {
    EXPECT_EQ(client.access(fh.value(), proto::ItemRef::id(id)).value(),
              items[id]);
  }
  // The handle is usable again post-resync.
  ASSERT_TRUE(client.modify(fh.value(), 5, payload_for(55)));
  EXPECT_EQ(client.access(fh.value(), proto::ItemRef::id(5)).value(),
            payload_for(55));
}

TEST(FaultInjection, EraseItemsLostCommitOnEmptiedFileResyncs) {
  // Bulk-delete EVERY item with the commit ACK lost: resync has no
  // surviving item to probe and must conclude from the emptied file that
  // the pending key is live.
  CloudServer server;
  SystemRandom rnd;
  net::DirectChannel clean(
      [&server](BytesView req) { return server.handle(req); });
  net::DirectChannel inner(
      [&server](BytesView req) { return server.handle(req); });
  net::FaultInjectingChannel faulty(inner, {.drop_response = 1.0});
  CommitFaultRouter router(clean, faulty);
  Client client(router, rnd);

  std::vector<Bytes> items;
  for (int i = 0; i < 6; ++i) items.push_back(payload_for(i));
  auto fh = client.outsource(1, items);
  ASSERT_TRUE(fh.is_ok());

  std::vector<proto::ItemRef> all;
  for (std::uint64_t id = 0; id < 6; ++id) {
    all.push_back(proto::ItemRef::id(id));
  }
  EXPECT_EQ(client.erase_items(fh.value(), all).code(), Errc::kIndeterminate);
  EXPECT_TRUE(fh.value().poisoned);
  ASSERT_TRUE(client.resync(fh.value()));
  EXPECT_FALSE(fh.value().poisoned);
  auto left = client.list_items(fh.value());
  ASSERT_TRUE(left.is_ok());
  EXPECT_TRUE(left.value().empty());
}

TEST(FailoverCommit, RefusedEverywhereLeavesKeyAndFileIntact) {
  // kNotPrimary proves a commit ran nowhere. A one-endpoint channel whose
  // server refuses every delete commit with it must end each key-rotating
  // call in kNotPrimary: no poisoned handle, the old key, every item.
  CloudServer server;
  SystemRandom rnd;
  net::DirectChannel clean(
      [&server](BytesView req) { return server.handle(req); });
  Client setup(clean, rnd);
  std::vector<Bytes> items;
  for (int i = 0; i < 8; ++i) items.push_back(payload_for(i));
  auto fh = setup.outsource(1, items);
  ASSERT_TRUE(fh.is_ok());

  proto::ErrorMsg bounce;
  bounce.code = Errc::kNotPrimary;
  bounce.message = "backup";
  const Bytes bounce_frame = bounce.to_frame();
  net::FailoverChannel channel(
      one_endpoint(),
      [&server, bounce_frame](const net::Endpoint&)
          -> Result<std::unique_ptr<net::RpcChannel>> {
        return std::unique_ptr<net::RpcChannel>(
            std::make_unique<net::DirectChannel>(
                [&server, bounce_frame](BytesView req) {
                  const auto type = proto::peek_type(req);
                  const bool commit =
                      type && (*type == proto::MsgType::kDeleteCommitReq ||
                               *type == proto::MsgType::kDeleteManyCommitReq);
                  return commit ? bounce_frame : server.handle(req);
                }));
      },
      retry_options(/*max_attempts=*/3));
  Client client(channel, rnd);

  const crypto::Md key_before = fh.value().key.value();
  const auto expect_refused = [&](const Status& st) {
    EXPECT_EQ(st.code(), Errc::kNotPrimary) << st.to_string();
    EXPECT_FALSE(fh.value().poisoned);
    EXPECT_EQ(fh.value().key.value(), key_before);
  };
  expect_refused(client.erase_item(fh.value(), proto::ItemRef::id(3)));
  const std::vector<proto::ItemRef> two{proto::ItemRef::id(1),
                                        proto::ItemRef::id(5)};
  expect_refused(client.erase_items(fh.value(), two));
  std::vector<Client::FileHandle*> handles{&fh.value()};
  const std::vector<proto::ItemRef> one{proto::ItemRef::id(3)};
  expect_refused(client.erase_batch(handles, one));
  EXPECT_EQ(server.file(1)->item_count(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(client.access(fh.value(), proto::ItemRef::id(i)).value(),
              items[i]);
  }
}

// ---- one-way partitions & reordering (DESIGN.md §18 failover suite) --------

TEST(FaultInjection, PartitionToServerBlackholesWithoutExecution) {
  std::atomic<int> executed{0};
  net::DirectChannel inner([&executed](BytesView req) {
    ++executed;
    return Bytes(req.begin(), req.end());
  });
  net::FaultInjectingChannel ch(inner, {});
  ASSERT_TRUE(ch.roundtrip(to_bytes("warm")).is_ok());
  ASSERT_EQ(executed.load(), 1);

  ch.partition(net::FaultInjectingChannel::Partition::kToServer);
  EXPECT_EQ(ch.partitioned(), net::FaultInjectingChannel::Partition::kToServer);
  for (int i = 0; i < 3; ++i) {
    auto r = ch.roundtrip(to_bytes("lost"));
    ASSERT_FALSE(r.is_ok());
    // The link looks alive-but-stalled (kTimeout), not failed-fast: the
    // caller cannot tell a partition from a slow peer, by design.
    EXPECT_EQ(r.error().code, Errc::kTimeout);
  }
  // The defining property of the kToServer direction: the server never
  // saw any of it, so nothing was executed — a resend is trivially safe.
  EXPECT_EQ(executed.load(), 1);
  EXPECT_EQ(ch.counters().partitioned_to_server, 3u);

  ch.heal();
  EXPECT_EQ(ch.partitioned(), net::FaultInjectingChannel::Partition::kNone);
  EXPECT_TRUE(ch.roundtrip(to_bytes("back")).is_ok());
  EXPECT_EQ(executed.load(), 2);
}

TEST(FaultInjection, PartitionFromServerExecutesButDropsResponse) {
  std::atomic<int> executed{0};
  net::DirectChannel inner([&executed](BytesView req) {
    ++executed;
    return Bytes(req.begin(), req.end());
  });
  net::FaultInjectingChannel ch(inner, {});
  ch.partition(net::FaultInjectingChannel::Partition::kFromServer);
  auto r = ch.roundtrip(to_bytes("one-way"));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.error().code, Errc::kTimeout);
  // The indeterminate-commit case: the server DID execute, only the
  // acknowledgement is gone. This is what handle poisoning + tagged
  // resends exist for.
  EXPECT_EQ(executed.load(), 1);
  EXPECT_EQ(ch.counters().partitioned_from_server, 1u);
}

TEST(FaultInjection, ReorderServesStaleEarlierResponsePastTheWindow) {
  net::DirectChannel inner(
      [](BytesView req) { return Bytes(req.begin(), req.end()); });
  net::FaultInjectingChannel::Options opts;
  opts.reorder = 1.0;  // every roundtrip fires
  opts.reorder_window = 2;
  net::FaultInjectingChannel ch(inner, opts);

  // While the window fills, responses are merely late (kTimeout)...
  EXPECT_EQ(ch.roundtrip(to_bytes("r1")).error().code, Errc::kTimeout);
  EXPECT_EQ(ch.roundtrip(to_bytes("r2")).error().code, Errc::kTimeout);
  // ...then the channel starts answering with the OLDEST parked response:
  // roundtrip 3 gets roundtrip 1's bytes, out of order. A rid-checking
  // client must reject this as a mismatched response.
  auto r3 = ch.roundtrip(to_bytes("r3"));
  ASSERT_TRUE(r3.is_ok());
  EXPECT_EQ(to_string(r3.value()), "r1");
  auto r4 = ch.roundtrip(to_bytes("r4"));
  ASSERT_TRUE(r4.is_ok());
  EXPECT_EQ(to_string(r4.value()), "r2");
  EXPECT_EQ(ch.counters().reordered, 4u);
  EXPECT_EQ(ch.counters().total_faults(), 4u);
}

TEST(FaultInjection, ClientRidesOutScriptedPartitionAndHeal) {
  // Scripted failover rehearsal: a partition toward the server opens
  // mid-run, every RPC times out, then the partition heals and the
  // protocol continues with exactly-once effects — nothing the server
  // never received got applied.
  CloudServer server;
  net::DirectChannel inner(
      [&server](BytesView req) { return server.handle(req); });
  net::FaultInjectingChannel faulty(inner, {});
  SystemRandom rnd;
  Client client(faulty, rnd);

  auto fh = client.outsource(1, 8,
                             [](std::size_t i) { return payload_for(i); });
  ASSERT_TRUE(fh.is_ok());

  faulty.partition(net::FaultInjectingChannel::Partition::kToServer);
  auto blocked = client.access(fh.value(), proto::ItemRef::id(1));
  ASSERT_FALSE(blocked.is_ok());
  EXPECT_EQ(blocked.code(), Errc::kTimeout);
  // A deletion attempted into the blackhole fails without server effect.
  EXPECT_FALSE(client.erase_item(fh.value(), proto::ItemRef::id(1)));

  faulty.heal();
  // The item the lost deletion targeted is still there (never executed),
  // and deleting it now works normally.
  EXPECT_EQ(client.access(fh.value(), proto::ItemRef::id(1)).value(),
            payload_for(1));
  ASSERT_TRUE(client.erase_item(fh.value(), proto::ItemRef::id(1)));
  EXPECT_FALSE(client.access(fh.value(), proto::ItemRef::id(1)).is_ok());
  EXPECT_EQ(client.access(fh.value(), proto::ItemRef::id(2)).value(),
            payload_for(2));
}

}  // namespace
}  // namespace fgad
