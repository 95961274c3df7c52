// Concurrency: multiple TCP clients mutating the same server. The wire
// dispatcher serializes requests, so concurrent well-formed operation
// streams must interleave without corrupting any file.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "client/client.h"
#include "cloud/server.h"
#include "net/tcp.h"
#include "support/harness.h"

namespace fgad {
namespace {

using client::Client;
using cloud::CloudServer;
using crypto::SystemRandom;
using test::payload_for;

TEST(Concurrency, ParallelClientsOnSeparateFiles) {
  CloudServer server;
  auto created = net::TcpServer::create(
      0, [&server](BytesView req) { return server.handle(req); });
  ASSERT_TRUE(created.is_ok()) << created.status().to_string();
  net::TcpServer& tcp = *created.value();

  constexpr int kClients = 4;
  constexpr int kOpsEach = 30;
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto ch = net::TcpChannel::connect("127.0.0.1", tcp.port());
      if (!ch) {
        ++failures;
        return;
      }
      SystemRandom rnd;
      Client client(*ch.value(), rnd);
      // Distinct counter ranges keep item ids globally unique across
      // clients (in a real deployment each client is its own namespace).
      client.set_counter(static_cast<std::uint64_t>(c) << 32);

      const std::uint64_t file_id = 100 + c;
      auto fh = client.outsource(
          file_id, 16, [&](std::size_t i) { return payload_for(c * 100 + i); });
      if (!fh) {
        ++failures;
        return;
      }
      Xoshiro256 rng(c + 1);
      std::vector<std::uint64_t> live = client.list_items(fh.value()).value();
      for (int op = 0; op < kOpsEach; ++op) {
        if (!live.empty() && rng.next_below(2) == 0) {
          const std::size_t idx = rng.next_below(live.size());
          if (!client.erase_item(fh.value(), proto::ItemRef::id(live[idx]))) {
            ++failures;
            return;
          }
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
        } else {
          auto id = client.insert(fh.value(), payload_for(c * 1000 + op));
          if (!id) {
            ++failures;
            return;
          }
          live.push_back(id.value());
        }
      }
      // Final consistency check from this client's perspective.
      for (std::uint64_t id : live) {
        if (!client.access(fh.value(), proto::ItemRef::id(id))) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(server.has_file(100 + c));
  }
  tcp.stop();
}

TEST(Concurrency, ParallelReadersOnOneFile) {
  CloudServer server;
  auto created = net::TcpServer::create(
      0, [&server](BytesView req) { return server.handle(req); });
  ASSERT_TRUE(created.is_ok()) << created.status().to_string();
  net::TcpServer& tcp = *created.value();

  // One writer outsources; many readers hammer access concurrently.
  SystemRandom rnd;
  auto owner_ch = net::TcpChannel::connect("127.0.0.1", tcp.port());
  ASSERT_TRUE(owner_ch.is_ok());
  Client owner(*owner_ch.value(), rnd);
  auto fh = owner.outsource(1, 64,
                            [](std::size_t i) { return payload_for(i); });
  ASSERT_TRUE(fh.is_ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      auto ch = net::TcpChannel::connect("127.0.0.1", tcp.port());
      if (!ch) {
        ++failures;
        return;
      }
      SystemRandom rrnd;
      Client reader(*ch.value(), rrnd);
      Client::FileHandle handle;
      handle.id = 1;
      handle.key = fh.value().key.clone();
      Xoshiro256 rng(r);
      for (int i = 0; i < 100; ++i) {
        const std::uint64_t id = rng.next_below(64);
        auto got = reader.access(handle, proto::ItemRef::id(id));
        if (!got || got.value() != payload_for(id)) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  tcp.stop();
}

}  // namespace
}  // namespace fgad
