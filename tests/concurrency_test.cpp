// Concurrency: many clients on one server. The dispatcher locks the file
// map shared and then only the file a request names (outsource and drop
// take the map exclusively), so requests on different files run in
// parallel while requests on one file stay ordered. Concurrent well-formed
// operation streams must interleave without corrupting any file, a parked
// request must hold up only its own file, and a writer of the map must not
// starve behind readers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>

#include "client/client.h"
#include "cloud/server.h"
#include "common/stopwatch.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "support/harness.h"

namespace fgad {
namespace {

using client::Client;
using cloud::CloudServer;
using crypto::SystemRandom;
using test::payload_for;
using namespace std::chrono_literals;

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

// ---- per-file locking -------------------------------------------------------

/// Holds every thread that calls park() until release().
class Gate {
 public:
  void park() {
    std::unique_lock<std::mutex> lock(mu_);
    ++parked_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
  }
  /// True once a thread is parked; false after 10 s without one.
  bool wait_parked() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, 10s, [this] { return parked_ > 0; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int parked_ = 0;
  bool released_ = false;
};

/// A CloudServer and an owner Client that outsources files to it in
/// process; every other thread reads or writes through a Client of its own.
struct LockRig {
  struct File {
    Client::FileHandle handle;
    std::vector<std::uint64_t> ids;   // in file order
    std::vector<Bytes> plaintexts;    // ids[i]'s content at outsource
  };

  File outsource(std::uint64_t file_id, std::size_t n) {
    File f;
    auto fh = owner.outsource(file_id, n, [&](std::size_t i) {
      return payload_for(file_id * 1000 + i);
    });
    EXPECT_TRUE(fh.is_ok()) << fh.status().to_string();
    f.handle = std::move(fh).value();
    f.ids = owner.list_items(f.handle).value();
    for (std::size_t i = 0; i < n; ++i) {
      f.plaintexts.push_back(payload_for(file_id * 1000 + i));
    }
    return f;
  }

  /// A handle of the same file for another client (its own prefix cache).
  static Client::FileHandle share(const File& f) {
    Client::FileHandle h;
    h.id = f.handle.id;
    h.key = f.handle.key.clone();
    return h;
  }

  /// One access through a fresh client; empty on any failure.
  Bytes read(const File& f, std::size_t i) {
    net::DirectChannel ch([this](BytesView r) { return server.handle(r); });
    SystemRandom rnd;
    Client c(ch, rnd);
    auto got = c.access(share(f), proto::ItemRef::id(f.ids[i]));
    return got ? std::move(got).value() : Bytes{};
  }

  CloudServer server;
  net::DirectChannel channel{[this](BytesView r) { return server.handle(r); }};
  crypto::DeterministicRandom rnd{7};
  Client owner{channel, rnd};
};

// A request on one file parks inside the server while holding that file.
// An access to another file must not wait for it (under one dispatcher
// mutex it would, until the parked request is released).
TEST(Concurrency, AccessToAnotherFileRunsWhileOneIsParked) {
  LockRig rig;
  const LockRig::File a = rig.outsource(1, 8);
  const LockRig::File b = rig.outsource(2, 8);
  Gate gate;
  rig.server.tamper_access_info = [&](core::AccessInfo& info) {
    if (info.item_id == a.ids[3]) {
      gate.park();
    }
  };
  auto parked = std::async(std::launch::async, [&] { return rig.read(a, 3); });
  const bool a_parked = gate.wait_parked();
  auto other = std::async(std::launch::async, [&] { return rig.read(b, 5); });
  const bool b_done = other.wait_for(10s) == std::future_status::ready;
  gate.release();
  EXPECT_TRUE(a_parked);
  EXPECT_TRUE(b_done) << "an access to file 2 waited for a parked one on 1";
  EXPECT_EQ(other.get(), b.plaintexts[5]);
  EXPECT_EQ(parked.get(), a.plaintexts[3]);
  rig.server.tamper_access_info = nullptr;
}

// drop_file waits out a read of the same file that is in progress: it
// returns only after the read, which finishes on the intact file (ASan
// would report a read of a freed store).
TEST(Concurrency, DropWaitsForAParkedReadOfTheSameFile) {
  LockRig rig;
  const LockRig::File a = rig.outsource(1, 8);
  Gate gate;
  rig.server.tamper_access_info = [&](core::AccessInfo& info) {
    if (info.item_id == a.ids[2]) {
      gate.park();
    }
  };
  auto read = std::async(std::launch::async, [&] { return rig.read(a, 2); });
  const bool parked = gate.wait_parked();
  auto drop =
      std::async(std::launch::async, [&] { return rig.server.drop_file(1); });
  const bool drop_waited = drop.wait_for(200ms) == std::future_status::timeout;
  gate.release();
  EXPECT_TRUE(parked);
  EXPECT_TRUE(drop_waited) << "drop_file returned while a read held the file";
  EXPECT_EQ(read.get(), a.plaintexts[2]);
  EXPECT_TRUE(drop.get().is_ok());
  EXPECT_FALSE(rig.server.has_file(1));
  EXPECT_TRUE(rig.read(a, 2).empty());  // kNotFound now
  rig.server.tamper_access_info = nullptr;
}

// Four threads read other files back to back, so some reader nearly always
// holds the map lock. An outsource and a drop, which need it exclusively,
// must still finish promptly rather than wait for an instant with no
// reader.
TEST(Concurrency, OutsourceAndDropAreNotStarvedByReads) {
  LockRig rig;
  std::vector<LockRig::File> files;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    files.push_back(rig.outsource(id, 8));
  }
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::atomic<int> reads{0};
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < files.size(); ++t) {
    readers.emplace_back([&, t] {
      net::DirectChannel ch([&](BytesView r) { return rig.server.handle(r); });
      SystemRandom rnd;
      Client c(ch, rnd);
      const Client::FileHandle h = LockRig::share(files[t]);
      for (std::size_t i = 0; !stop.load(); i = (i + 1) % 8) {
        auto got = c.access(h, proto::ItemRef::id(files[t].ids[i]));
        if (!got || got.value() != files[t].plaintexts[i]) {
          bad.fetch_add(1);
        }
        reads.fetch_add(1);
      }
    });
  }
  while (reads.load() < 400) {
    std::this_thread::sleep_for(1ms);
  }
  struct Timings {
    bool ok = false;
    double outsource_s = 0;
    double drop_s = 0;
  };
  auto writer = std::async(std::launch::async, [&] {
    net::DirectChannel ch([&](BytesView r) { return rig.server.handle(r); });
    SystemRandom rnd;
    Client c(ch, rnd);
    Timings t;
    Stopwatch sw;
    auto fh = c.outsource(100, 64, [](std::size_t i) { return payload_for(i); });
    t.outsource_s = sw.elapsed_seconds();
    sw.reset();
    const Status dropped = rig.server.drop_file(100);
    t.drop_s = sw.elapsed_seconds();
    t.ok = fh.is_ok() && dropped.is_ok();
    return t;
  });
  // Past the bound the readers stop, so a starved writer still finishes
  // and the test fails instead of hanging.
  const bool in_time = writer.wait_for(20s) == std::future_status::ready;
  stop = true;
  for (auto& t : readers) {
    t.join();
  }
  const Timings t = writer.get();
  EXPECT_TRUE(in_time);
  EXPECT_TRUE(t.ok);
  EXPECT_LT(t.outsource_s, 10.0);
  EXPECT_LT(t.drop_s, 10.0);
  EXPECT_EQ(bad.load(), 0);
}

// One client modifies items while three others read the same items: every
// read returns the item's old or new plaintext and none fails its
// integrity check, because requests on one file stay ordered.
TEST(Concurrency, ReadsDuringModifySeeOldOrNewPlaintext) {
  LockRig rig;
  const LockRig::File f = rig.outsource(1, 16);
  std::vector<Bytes> fresh;
  for (std::size_t i = 0; i < f.ids.size(); ++i) {
    fresh.push_back(payload_for(5000 + i));
  }
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::atomic<int> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      net::DirectChannel ch([&](BytesView r) { return rig.server.handle(r); });
      SystemRandom rnd;
      Client c(ch, rnd);
      const Client::FileHandle h = LockRig::share(f);
      for (std::size_t i = t; !stop.load(); i = (i + 1) % f.ids.size()) {
        auto got = c.access(h, proto::ItemRef::id(f.ids[i]));
        if (!got || (got.value() != f.plaintexts[i] && got.value() != fresh[i])) {
          bad.fetch_add(1);
        }
        reads.fetch_add(1);
      }
    });
  }
  while (reads.load() < 30) {
    std::this_thread::sleep_for(1ms);
  }
  {
    net::DirectChannel ch([&](BytesView r) { return rig.server.handle(r); });
    SystemRandom rnd;
    Client writer(ch, rnd);
    const Client::FileHandle h = LockRig::share(f);
    for (int round = 0; round < 4; ++round) {
      for (std::size_t i = 0; i < f.ids.size(); ++i) {
        const Bytes& next = round % 2 == 0 ? fresh[i] : f.plaintexts[i];
        EXPECT_TRUE(writer.modify(h, f.ids[i], next).is_ok()) << i;
      }
    }
  }
  stop = true;
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(bad.load(), 0);
  for (std::size_t i = 0; i < f.ids.size(); ++i) {
    EXPECT_EQ(rig.read(f, i), f.plaintexts[i]);  // the last round wrote these
  }
}

// The invariant a per-file WAL order would rest on (DESIGN.md §13):
// mutations on distinct files commute. Two clients each mutate their own
// file; replaying the two recorded streams in any interleaving that keeps
// each file's own order gives the same image and the same responses.
TEST(Concurrency, MutationsOnDistinctFilesCommute) {
  CloudServer live;
  std::vector<std::vector<Bytes>> streams(2);
  for (std::size_t f = 0; f < streams.size(); ++f) {
    net::DirectChannel ch([&, f](BytesView r) {
      const auto type = proto::peek_type(r);
      if (type && proto::is_mutating(*type)) {
        streams[f].emplace_back(r.begin(), r.end());
      }
      return live.handle(r);
    });
    crypto::DeterministicRandom rnd(40 + f);
    Client c(ch, rnd);
    auto fh = c.outsource(f + 1, 8, [&](std::size_t i) {
      return payload_for(f * 100 + i);
    });
    ASSERT_TRUE(fh.is_ok());
    for (int k = 0; k < 12; ++k) {
      std::vector<std::uint64_t> ids = c.list_items(fh.value()).value();
      const std::uint64_t id = ids[static_cast<std::size_t>(k * 3) % ids.size()];
      switch (k % 3) {
        case 0:
          ASSERT_TRUE(c.modify(fh.value(), id, payload_for(500 + k)));
          break;
        case 1:
          ASSERT_TRUE(c.erase_item(fh.value(), proto::ItemRef::id(id)));
          break;
        default:
          ASSERT_TRUE(c.insert(fh.value(), payload_for(700 + k)).is_ok());
      }
    }
  }
  const auto replay = [&](const std::vector<int>& order) {
    CloudServer s;
    std::vector<std::size_t> next(streams.size(), 0);
    std::vector<std::vector<Bytes>> responses(streams.size());
    for (const int f : order) {
      responses[f].push_back(s.handle(streams[f][next[f]++]));
    }
    proto::Writer w;
    s.save(w);
    return std::make_pair(std::move(w).take(), responses);
  };
  // File 1's stream then file 2's, the reverse, and seeded random merges.
  std::vector<std::vector<int>> orders(2);
  for (const int f : {0, 1}) {
    orders[0].insert(orders[0].end(), streams[f].size(), f);
    orders[1].insert(orders[1].begin(), streams[f].size(), f);
  }
  Xoshiro256 rng(11);
  for (int m = 0; m < 4; ++m) {
    std::vector<std::size_t> left = {streams[0].size(), streams[1].size()};
    std::vector<int> order;
    while (left[0] + left[1] > 0) {
      const int f = left[0] == 0 ? 1
                    : left[1] == 0 ? 0
                                   : static_cast<int>(rng.next_below(2));
      --left[f];
      order.push_back(f);
    }
    orders.push_back(order);
  }
  proto::Writer w;
  live.save(w);
  const Bytes live_image = std::move(w).take();
  const auto first = replay(orders[0]);
  EXPECT_EQ(first.first, live_image);
  for (std::size_t o = 1; o < orders.size(); ++o) {
    const auto other = replay(orders[o]);
    EXPECT_EQ(other.first, first.first) << "order " << o;
    EXPECT_EQ(other.second, first.second) << "order " << o;
  }
}

}  // namespace
}  // namespace fgad
