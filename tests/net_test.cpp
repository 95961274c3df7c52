// Transports: direct, counting, in-memory pipe, TCP loopback — plus the
// hardening behaviours of DESIGN.md §11: frame limits, deadlines, bounded
// worker pool, fd lifecycle.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/stopwatch.h"
#include "net/failover.h"
#include "net/inmemory.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "proto/messages.h"

namespace fgad::net {
namespace {

Bytes echo_upper(BytesView req) {
  Bytes out(req.begin(), req.end());
  for (auto& b : out) {
    if (b >= 'a' && b <= 'z') b -= 32;
  }
  return out;
}

TEST(DirectChannel, InvokesHandler) {
  DirectChannel ch(echo_upper);
  auto resp = ch.roundtrip(to_bytes("hello"));
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(to_string(resp.value()), "HELLO");
}

TEST(CountingChannel, CountsBothDirections) {
  DirectChannel inner(echo_upper);
  CountingChannel ch(inner);
  ASSERT_TRUE(ch.roundtrip(to_bytes("abcd")).is_ok());
  EXPECT_EQ(ch.bytes_sent(), 4u + kFrameHeaderSize);
  EXPECT_EQ(ch.bytes_received(), 4u + kFrameHeaderSize);
  EXPECT_EQ(ch.total_bytes(), 2 * (4u + kFrameHeaderSize));
  EXPECT_EQ(ch.rpc_count(), 1u);
  ch.reset();
  EXPECT_EQ(ch.total_bytes(), 0u);
}

TEST(ByteQueue, PushPopOrder) {
  ByteQueue q;
  EXPECT_TRUE(q.push(to_bytes("a")));
  EXPECT_TRUE(q.push(to_bytes("b")));
  EXPECT_EQ(to_string(*q.pop()), "a");
  EXPECT_EQ(to_string(*q.pop()), "b");
}

TEST(ByteQueue, CloseWakesAndDrains) {
  ByteQueue q;
  q.push(to_bytes("x"));
  q.close();
  EXPECT_FALSE(q.push(to_bytes("y")));
  EXPECT_EQ(to_string(*q.pop()), "x");  // drained after close
  EXPECT_FALSE(q.pop().has_value());
}

TEST(PipeChannel, RoundtripThroughServerThread) {
  Pipe pipe;
  ServerPump pump(pipe, echo_upper);
  PipeChannel ch(pipe);
  for (int i = 0; i < 10; ++i) {
    auto resp = ch.roundtrip(to_bytes("ping"));
    ASSERT_TRUE(resp.is_ok());
    EXPECT_EQ(to_string(resp.value()), "PING");
  }
  pump.stop();
  EXPECT_FALSE(ch.roundtrip(to_bytes("late")).is_ok());
}

TEST(Tcp, RoundtripOverLoopback) {
  auto server = TcpServer::create(0, echo_upper);
  ASSERT_TRUE(server.is_ok()) << server.status().to_string();
  ASSERT_NE(server.value()->port(), 0);
  auto ch = TcpChannel::connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(ch.is_ok());
  for (int i = 0; i < 20; ++i) {
    auto resp = ch.value()->roundtrip(to_bytes("tcp message"));
    ASSERT_TRUE(resp.is_ok());
    EXPECT_EQ(to_string(resp.value()), "TCP MESSAGE");
  }
}

TEST(Tcp, LargeFrames) {
  auto server = TcpServer::create(0, [](BytesView req) {
    return Bytes(req.begin(), req.end());  // echo
  });
  ASSERT_TRUE(server.is_ok()) << server.status().to_string();
  auto ch = TcpChannel::connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(ch.is_ok());
  Bytes big(1 << 20, 0xab);
  auto resp = ch.value()->roundtrip(big);
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(resp.value(), big);
}

TEST(Tcp, EmptyFrame) {
  auto server = TcpServer::create(0, [](BytesView) { return Bytes{}; });
  ASSERT_TRUE(server.is_ok()) << server.status().to_string();
  auto ch = TcpChannel::connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(ch.is_ok());
  auto resp = ch.value()->roundtrip({});
  ASSERT_TRUE(resp.is_ok());
  EXPECT_TRUE(resp.value().empty());
}

TEST(Tcp, MultipleConcurrentClients) {
  auto server = TcpServer::create(0, echo_upper);
  ASSERT_TRUE(server.is_ok()) << server.status().to_string();
  auto a = TcpChannel::connect("127.0.0.1", server.value()->port());
  auto b = TcpChannel::connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(to_string(a.value()->roundtrip(to_bytes("one")).value()), "ONE");
  EXPECT_EQ(to_string(b.value()->roundtrip(to_bytes("two")).value()), "TWO");
  EXPECT_EQ(to_string(a.value()->roundtrip(to_bytes("three")).value()),
            "THREE");
}

TEST(Tcp, ConnectToClosedPortFails) {
  // Grab an ephemeral port, close the server, then try to connect.
  std::uint16_t port;
  {
    auto server = TcpServer::create(0, echo_upper);
    ASSERT_TRUE(server.is_ok()) << server.status().to_string();
    port = server.value()->port();
  }
  auto ch = TcpChannel::connect("127.0.0.1", port);
  EXPECT_FALSE(ch.is_ok());
}

TEST(Tcp, BadHostRejected) {
  EXPECT_FALSE(TcpChannel::connect("not-an-ip", 1).is_ok());
}

// ---- hardening (DESIGN.md §11) ---------------------------------------------

/// Raw loopback TCP connect, bypassing TcpChannel (for malformed-wire and
/// fd-lifecycle tests). Returns -1 on failure.
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  timeval tv{5, 0};  // keep a stuck test bounded
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::size_t open_fd_count() {
  std::size_t n = 0;
  DIR* d = ::opendir("/proc/self/fd");
  if (d == nullptr) return 0;
  while (::readdir(d) != nullptr) ++n;
  ::closedir(d);
  return n;
}

TEST(TcpHardening, WriteFrameRejectsOversizedPayload) {
  // The size check fires before any byte is read or sent, so a fake-length
  // span over a small buffer is safe — and the only way to test the 4 GiB
  // header-truncation guard without allocating gigabytes.
  Bytes small(1);
  const BytesView fake(small.data(), static_cast<std::size_t>(kMaxFrameSize) + 1);
  const Status st = write_frame(/*fd=*/-1, fake);
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), Errc::kDecodeError);
  const BytesView fake5g(small.data(), (std::size_t{1} << 32) + 7);
  EXPECT_EQ(write_frame(/*fd=*/-1, fake5g).code(), Errc::kDecodeError);
}

TEST(TcpHardening, RoundtripTimesOutOnSlowHandler) {
  auto server = TcpServer::create(0, [](BytesView req) {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    return Bytes(req.begin(), req.end());
  });
  ASSERT_TRUE(server.is_ok());
  TcpChannel::Options opts;
  opts.io_timeout_ms = 50;
  auto ch = TcpChannel::connect("127.0.0.1", server.value()->port(), opts);
  ASSERT_TRUE(ch.is_ok());
  Stopwatch sw;
  auto resp = ch.value()->roundtrip(to_bytes("slow"));
  ASSERT_FALSE(resp.is_ok());
  EXPECT_EQ(resp.error().code, Errc::kTimeout);
  EXPECT_LT(sw.elapsed_seconds(), 5.0);
  // The late response to "slow" arrives meanwhile. It must not answer the
  // next request: the failed exchange closed the socket, so every later
  // call fails with kConnReset, on which the retry layers redial.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  auto second = ch.value()->roundtrip(to_bytes("second"));
  ASSERT_FALSE(second.is_ok()) << "answered with " << to_string(second.value());
  EXPECT_EQ(second.error().code, Errc::kConnReset);
  auto batch = ch.value()->roundtrip_batch({to_bytes("third")});
  ASSERT_FALSE(batch.is_ok());
  EXPECT_EQ(batch.error().code, Errc::kConnReset);
}

TEST(TcpHardening, ConnectDeadlineIsBounded) {
  // A listener that never accepts, with a zero backlog: once its accept
  // queue is full the kernel drops further SYNs, so connect() must hit our
  // deadline instead of hanging for the kernel's minutes-long default.
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 0), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t port = ntohs(addr.sin_port);
  // Fill the accept queue with connections nobody will ever accept.
  std::vector<int> fillers;
  for (int i = 0; i < 8; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    ASSERT_GE(fd, 0);
    ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    fillers.push_back(fd);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  TcpChannel::Options opts;
  opts.connect_timeout_ms = 200;
  Stopwatch sw;
  auto ch = TcpChannel::connect("127.0.0.1", port, opts);
  ASSERT_FALSE(ch.is_ok());
  EXPECT_EQ(ch.code(), Errc::kTimeout) << ch.status().to_string();
  EXPECT_LT(sw.elapsed_seconds(), 5.0);
  for (int fd : fillers) ::close(fd);
  ::close(lfd);
}

TEST(TcpHardening, ServerClosesConnectionOnOversizedFrameHeader) {
  auto server = TcpServer::create(0, echo_upper);
  ASSERT_TRUE(server.is_ok());
  const int fd = raw_connect(server.value()->port());
  ASSERT_GE(fd, 0);
  // Header claiming a 2 GiB frame: over kMaxFrameSize, under UINT32_MAX.
  const std::uint8_t hdr[4] = {0x00, 0x00, 0x00, 0x80};
  ASSERT_EQ(::send(fd, hdr, sizeof(hdr), MSG_NOSIGNAL), 4);
  std::uint8_t buf[16];
  // The server must drop the connection, not wait for 2 GiB that will
  // never arrive: recv sees EOF (0), not a timeout.
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);
  ::close(fd);
}

TEST(TcpHardening, IdleTimeoutEvictsStalledConnection) {
  TcpServer::Options opts;
  opts.idle_timeout_ms = 100;
  auto server = TcpServer::create(0, echo_upper, opts);
  ASSERT_TRUE(server.is_ok());
  const int fd = raw_connect(server.value()->port());
  ASSERT_GE(fd, 0);
  // A slowloris peer: half a header, then silence.
  const std::uint8_t half[2] = {0x01, 0x00};
  ASSERT_EQ(::send(fd, half, sizeof(half), MSG_NOSIGNAL), 2);
  std::uint8_t buf[16];
  Stopwatch sw;
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);  // evicted, not served
  EXPECT_LT(sw.elapsed_seconds(), 5.0);
  ::close(fd);
}

TEST(TcpHardening, StopWithInflightConnectionsJoinsWorkersAndLeaksNoFds) {
  const std::size_t fds_before = open_fd_count();
  Stopwatch sw;
  {
    auto server = TcpServer::create(0, echo_upper);
    ASSERT_TRUE(server.is_ok());
    // Two well-behaved clients with live connections...
    auto a = TcpChannel::connect("127.0.0.1", server.value()->port());
    auto b = TcpChannel::connect("127.0.0.1", server.value()->port());
    ASSERT_TRUE(a.is_ok());
    ASSERT_TRUE(b.is_ok());
    ASSERT_TRUE(a.value()->roundtrip(to_bytes("x")).is_ok());
    ASSERT_TRUE(b.value()->roundtrip(to_bytes("y")).is_ok());
    // ...and one parked mid-frame (worker blocked in read_frame).
    const int raw = raw_connect(server.value()->port());
    ASSERT_GE(raw, 0);
    const std::uint8_t half[2] = {0x08, 0x00};
    ASSERT_EQ(::send(raw, half, sizeof(half), MSG_NOSIGNAL), 2);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server.value()->stop();  // must unblock + join all three workers
    ::close(raw);
  }
  EXPECT_LT(sw.elapsed_seconds(), 5.0);
  EXPECT_EQ(open_fd_count(), fds_before);
}

TEST(TcpHardening, WorkerPoolBoundAppliesBackpressure) {
  TcpServer::Options opts;
  opts.max_workers = 1;
  auto server = TcpServer::create(0, echo_upper, opts);
  ASSERT_TRUE(server.is_ok());
  auto first = TcpChannel::connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(first.is_ok());
  ASSERT_TRUE(first.value()->roundtrip(to_bytes("one")).is_ok());
  // The second connection queues in the listen backlog until the first
  // client disconnects and its worker is reaped.
  auto second = TcpChannel::connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(second.is_ok());
  std::thread t([&] {
    auto resp = second.value()->roundtrip(to_bytes("two"));
    EXPECT_TRUE(resp.is_ok());
    EXPECT_EQ(to_string(resp.value()), "TWO");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  first.value().reset();  // frees the only worker slot
  t.join();
  EXPECT_EQ(server.value()->peak_workers(), 1u);
}

TEST(TcpHardening, SequentialConnectionsAreReapedNotAccumulated) {
  auto server = TcpServer::create(0, echo_upper);
  ASSERT_TRUE(server.is_ok());
  for (int i = 0; i < 10; ++i) {
    {
      auto ch = TcpChannel::connect("127.0.0.1", server.value()->port());
      ASSERT_TRUE(ch.is_ok());
      ASSERT_TRUE(ch.value()->roundtrip(to_bytes("ping")).is_ok());
    }
    // The connection is closed; its worker must deregister promptly.
    for (int spin = 0; spin < 500 && server.value()->active_workers() > 0;
         ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(server.value()->active_workers(), 0u) << "cycle " << i;
  }
  // Strictly sequential connections: never more than one worker alive.
  EXPECT_EQ(server.value()->peak_workers(), 1u);
}

TEST(TcpHardening, CreateSurfacesBindFailure) {
  auto first = TcpServer::create(0, echo_upper);
  ASSERT_TRUE(first.is_ok());
  auto second = TcpServer::create(first.value()->port(), echo_upper);
  ASSERT_FALSE(second.is_ok());
  EXPECT_EQ(second.code(), Errc::kIoError);
  EXPECT_NE(second.error().message.find("bind"), std::string::npos)
      << second.error().message;
}

// ---- pipelining (DESIGN.md §15) --------------------------------------------

/// Appends one u32-LE framed message to `out`.
void append_frame(Bytes& out, BytesView payload) {
  const auto len = static_cast<std::uint32_t>(payload.size());
  out.push_back(static_cast<std::uint8_t>(len & 0xff));
  out.push_back(static_cast<std::uint8_t>((len >> 8) & 0xff));
  out.push_back(static_cast<std::uint8_t>((len >> 16) & 0xff));
  out.push_back(static_cast<std::uint8_t>((len >> 24) & 0xff));
  out.insert(out.end(), payload.begin(), payload.end());
}

/// Blocking-reads exactly one framed message from `fd`; empty optional on
/// EOF / error.
std::optional<Bytes> recv_frame(int fd) {
  std::uint8_t hdr[4];
  std::size_t got = 0;
  while (got < 4) {
    const ssize_t n = ::recv(fd, hdr + got, 4 - got, 0);
    if (n <= 0) return std::nullopt;
    got += static_cast<std::size_t>(n);
  }
  const std::uint32_t len = static_cast<std::uint32_t>(hdr[0]) |
                            (static_cast<std::uint32_t>(hdr[1]) << 8) |
                            (static_cast<std::uint32_t>(hdr[2]) << 16) |
                            (static_cast<std::uint32_t>(hdr[3]) << 24);
  Bytes payload(len);
  got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, payload.data() + got, len - got, 0);
    if (n <= 0) return std::nullopt;
    got += static_cast<std::size_t>(n);
  }
  return payload;
}

/// AsyncHandler that parks every completion callback for the test to
/// release manually, in any order, from any thread.
struct ParkingHandler {
  std::mutex mu;
  std::vector<std::pair<Bytes, TcpServer::Respond>> parked;
  std::atomic<std::size_t> received{0};

  TcpServer::AsyncHandler handler() {
    return [this](Bytes req, TcpServer::Respond respond) {
      std::lock_guard<std::mutex> lock(mu);
      parked.emplace_back(std::move(req), std::move(respond));
      received.fetch_add(1);
    };
  }

  std::vector<std::pair<Bytes, TcpServer::Respond>> take() {
    std::lock_guard<std::mutex> lock(mu);
    return std::exchange(parked, {});
  }

  bool wait_received(std::size_t n, int ms = 2000) {
    for (int spin = 0; spin < ms && received.load() < n; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return received.load() >= n;
  }
};

TEST(TcpPipelining, InterleavedFramesAnsweredInArrivalOrder) {
  auto server = TcpServer::create(0, echo_upper);
  ASSERT_TRUE(server.is_ok());
  const int fd = raw_connect(server.value()->port());
  ASSERT_GE(fd, 0);
  // All 16 requests in a single send: the server must parse them out of
  // one read buffer and answer each, in order, on the shared connection.
  Bytes wire;
  for (int i = 0; i < 16; ++i) {
    append_frame(wire, to_bytes("msg" + std::to_string(i)));
  }
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  for (int i = 0; i < 16; ++i) {
    auto resp = recv_frame(fd);
    ASSERT_TRUE(resp.has_value()) << "response " << i;
    EXPECT_EQ(to_string(*resp), "MSG" + std::to_string(i));
  }
  ::close(fd);
}

TEST(TcpPipelining, RoundtripBatchKeepsOrderAndContent) {
  auto server = TcpServer::create(0, [](BytesView req) {
    return Bytes(req.begin(), req.end());  // echo
  });
  ASSERT_TRUE(server.is_ok());
  auto ch = TcpChannel::connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(ch.is_ok());
  // Mixed sizes, including an empty frame and one big enough to need
  // several reads on both sides.
  std::vector<Bytes> reqs;
  reqs.push_back({});
  reqs.push_back(to_bytes("tiny"));
  reqs.push_back(Bytes(200 * 1024, 0x5a));
  for (int i = 0; i < 40; ++i) {
    reqs.push_back(to_bytes("item" + std::to_string(i)));
  }
  auto resps = ch.value()->roundtrip_batch(reqs);
  ASSERT_TRUE(resps.is_ok()) << resps.status().to_string();
  ASSERT_EQ(resps.value().size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(resps.value()[i], reqs[i]) << "slot " << i;
  }
  // The connection stays usable for ordinary roundtrips afterwards.
  EXPECT_TRUE(ch.value()->roundtrip(to_bytes("after")).is_ok());
}

TEST(TcpPipelining, OutOfOrderCompletionsDeliverInArrivalOrder) {
  ParkingHandler parking;
  auto server = TcpServer::create(0, parking.handler(), TcpServer::Options{});
  ASSERT_TRUE(server.is_ok());
  const int fd = raw_connect(server.value()->port());
  ASSERT_GE(fd, 0);
  Bytes wire;
  for (int i = 0; i < 8; ++i) {
    append_frame(wire, to_bytes("req" + std::to_string(i)));
  }
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  ASSERT_TRUE(parking.wait_received(8));
  // Complete in reverse order, from the test thread (the cross-thread
  // Respond path). The wire order must still be arrival order.
  auto batch = parking.take();
  ASSERT_EQ(batch.size(), 8u);
  for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
    Bytes resp(it->first.begin(), it->first.end());
    resp.push_back('!');
    it->second(std::move(resp));
  }
  for (int i = 0; i < 8; ++i) {
    auto resp = recv_frame(fd);
    ASSERT_TRUE(resp.has_value()) << "response " << i;
    EXPECT_EQ(to_string(*resp), "req" + std::to_string(i) + "!");
  }
  ::close(fd);
}

TEST(TcpPipelining, MaxPipelineAppliesBackpressure) {
  ParkingHandler parking;
  TcpServer::Options opts;
  opts.max_pipeline = 4;
  auto server = TcpServer::create(0, parking.handler(), opts);
  ASSERT_TRUE(server.is_ok());
  const int fd = raw_connect(server.value()->port());
  ASSERT_GE(fd, 0);
  Bytes wire;
  for (int i = 0; i < 32; ++i) {
    append_frame(wire, to_bytes("r" + std::to_string(i)));
  }
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  // The reactor must stop dispatching at the pipeline bound even though
  // all 32 frames sit in its read buffer.
  ASSERT_TRUE(parking.wait_received(4));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(parking.received.load(), 4u);
  // Draining completions un-pauses parsing; keep releasing until all 32
  // requests have been served.
  std::size_t served = 0;
  for (int spin = 0; spin < 2000 && served < 32; ++spin) {
    auto batch = parking.take();
    for (auto& [req, respond] : batch) {
      respond(Bytes(req.begin(), req.end()));
      ++served;
    }
    if (batch.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_EQ(served, 32u);
  for (int i = 0; i < 32; ++i) {
    auto resp = recv_frame(fd);
    ASSERT_TRUE(resp.has_value()) << "response " << i;
    EXPECT_EQ(to_string(*resp), "r" + std::to_string(i));
  }
  ::close(fd);
}

TEST(TcpPipelining, SlowReaderBackpressurePausesReads) {
  // Tiny write-buffer budget + a peer that sends requests but reads
  // nothing: the reactor must park the connection (bounded memory)
  // instead of buffering every response, then drain once the peer reads.
  std::atomic<std::size_t> handled{0};
  TcpServer::Options opts;
  opts.write_buffer_limit = 64 * 1024;
  opts.max_pipeline = 256;
  opts.io_timeout_ms = 10000;  // don't write-stall-evict during the test
  auto server = TcpServer::create(
      0,
      [&handled](BytesView req) {
        handled.fetch_add(1);
        return Bytes(req.begin(), req.end());
      },
      opts);
  ASSERT_TRUE(server.is_ok());
  const int fd = raw_connect(server.value()->port());
  ASSERT_GE(fd, 0);
  constexpr int kFrames = 256;
  const Bytes payload(32 * 1024, 0xcd);  // 8 MiB of responses in total
  std::thread writer([&] {
    Bytes wire;
    append_frame(wire, payload);
    for (int i = 0; i < kFrames; ++i) {
      std::size_t off = 0;
      while (off < wire.size()) {
        const ssize_t n =
            ::send(fd, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
        if (n <= 0) return;
        off += static_cast<std::size_t>(n);
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  // Loopback socket buffers plus the 64 KiB budget hold a bounded number
  // of frames (how many depends on kernel buffer auto-tuning, so no
  // fixed fraction): the real backpressure property is that handling
  // *stalls* while the peer refuses to read — progress between two
  // samples must be (near) zero and the bulk still unprocessed.
  const std::size_t sample1 = handled.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const std::size_t sample2 = handled.load();
  EXPECT_LT(sample2, static_cast<std::size_t>(kFrames));
  EXPECT_LE(sample2 - sample1, 8u);
  for (int i = 0; i < kFrames; ++i) {
    auto resp = recv_frame(fd);
    ASSERT_TRUE(resp.has_value()) << "response " << i;
    ASSERT_EQ(resp->size(), payload.size());
  }
  EXPECT_EQ(handled.load(), static_cast<std::size_t>(kFrames));
  writer.join();
  ::close(fd);
}

TEST(TcpPipelining, InflightRequestDefersIdleEviction) {
  ParkingHandler parking;
  TcpServer::Options opts;
  opts.idle_timeout_ms = 100;
  auto server = TcpServer::create(0, parking.handler(), opts);
  ASSERT_TRUE(server.is_ok());
  const int fd = raw_connect(server.value()->port());
  ASSERT_GE(fd, 0);
  Bytes wire;
  append_frame(wire, to_bytes("slow work"));
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  ASSERT_TRUE(parking.wait_received(1));
  // Well past the idle deadline with the request still in flight: the
  // connection must survive (idleness means *no pending work*).
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  auto batch = parking.take();
  ASSERT_EQ(batch.size(), 1u);
  batch[0].second(to_bytes("done"));
  auto resp = recv_frame(fd);
  ASSERT_TRUE(resp.has_value()) << "evicted while a request was in flight";
  EXPECT_EQ(to_string(*resp), "done");
  // With the pipeline drained the idle clock applies again.
  Stopwatch sw;
  std::uint8_t buf[8];
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);
  EXPECT_LT(sw.elapsed_seconds(), 5.0);
  ::close(fd);
}

TEST(TcpPipelining, MidPipelineStallTimesOutTheBatch) {
  // The second request of the batch never completes; the client's
  // inactivity deadline must fail the batch with kTimeout instead of
  // hanging, even though the first response arrived fine.
  ParkingHandler parking;
  auto server = TcpServer::create(
      0,
      [&parking](Bytes req, TcpServer::Respond respond) {
        if (!req.empty() && req[0] == 'x') {
          parking.handler()(std::move(req), std::move(respond));  // park
          return;
        }
        Bytes resp(req.begin(), req.end());
        respond(std::move(resp));
      },
      TcpServer::Options{});
  ASSERT_TRUE(server.is_ok());
  TcpChannel::Options copts;
  copts.io_timeout_ms = 150;
  auto ch = TcpChannel::connect("127.0.0.1", server.value()->port(), copts);
  ASSERT_TRUE(ch.is_ok());
  Stopwatch sw;
  auto resps = ch.value()->roundtrip_batch(
      {to_bytes("ok-1"), to_bytes("x-stall"), to_bytes("ok-2")});
  ASSERT_FALSE(resps.is_ok());
  EXPECT_EQ(resps.error().code, Errc::kTimeout);
  EXPECT_LT(sw.elapsed_seconds(), 5.0);
}

// ---- fragmented frames -------------------------------------------------------

void send_all(int fd, const std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w <= 0) return;
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

TEST(Tcp, RequestFrameSentOneByteAtATime) {
  // The reactor ends a read pass on a short recv and relies on
  // level-triggered epoll to report what arrives later. A frame trickling
  // in one byte per segment must still be answered exactly once, and so
  // must a frame larger than one read that arrives all at once.
  auto server = TcpServer::create(0, echo_upper);
  ASSERT_TRUE(server.is_ok());
  const int fd = raw_connect(server.value()->port());
  ASSERT_GE(fd, 0);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  Bytes frame;
  append_frame(frame, to_bytes("one byte at a time"));
  for (const std::uint8_t b : frame) {
    ASSERT_EQ(::send(fd, &b, 1, MSG_NOSIGNAL), 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  auto resp = recv_frame(fd);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(to_string(*resp), "ONE BYTE AT A TIME");

  const Bytes big(200000, 'b');
  Bytes big_frame;
  append_frame(big_frame, big);
  send_all(fd, big_frame.data(), big_frame.size());
  resp = recv_frame(fd);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(*resp, Bytes(big.size(), 'B'));
  std::uint8_t extra = 0;
  EXPECT_LT(::recv(fd, &extra, 1, MSG_DONTWAIT), 0);  // nothing else came
  ::close(fd);
}

TEST(Tcp, ResponseWrittenInDelayedPieces) {
  // A hand-written peer answers in pieces with pauses between them: a
  // header split across writes, a payload larger than the client's 64-KiB
  // read, and a batch whose second frame starts in the write that ends
  // the first. The client must reassemble every byte.
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  Bytes big(200000);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 7);
  }
  const auto write_in_pieces = [](int fd, const Bytes& out,
                                  std::initializer_list<std::size_t> cuts) {
    std::size_t from = 0;
    for (const std::size_t to : cuts) {
      send_all(fd, out.data() + from, to - from);
      from = to;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    send_all(fd, out.data() + from, out.size() - from);
  };
  std::thread peer([&] {
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) return;
    timeval tv{5, 0};  // a failed client must not hang the peer
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    if (recv_frame(fd)) {
      Bytes out;
      append_frame(out, big);
      write_in_pieces(fd, out, {2, 5, 70000});
    }
    if (recv_frame(fd) && recv_frame(fd)) {
      Bytes out;
      append_frame(out, to_bytes("first"));
      append_frame(out, to_bytes("second"));
      write_in_pieces(fd, out, {3, 4 + 5 + 2});
    }
    ::close(fd);
  });
  auto ch = TcpChannel::connect("127.0.0.1", ntohs(addr.sin_port));
  Result<Bytes> one = Error(Errc::kIoError, "not connected");
  Result<std::vector<Bytes>> two = Error(Errc::kIoError, "not connected");
  if (ch) {
    one = ch.value()->roundtrip(to_bytes("big"));
    two = ch.value()->roundtrip_batch({to_bytes("a"), to_bytes("b")});
  } else {
    ::shutdown(lfd, SHUT_RDWR);  // wakes the peer's accept
  }
  peer.join();
  ::close(lfd);
  ASSERT_TRUE(one.is_ok()) << one.status().to_string();
  EXPECT_EQ(one.value(), big);
  ASSERT_TRUE(two.is_ok()) << two.status().to_string();
  ASSERT_EQ(two.value().size(), 2u);
  EXPECT_EQ(to_string(two.value()[0]), "first");
  EXPECT_EQ(to_string(two.value()[1]), "second");
}

TEST(TcpHardening, AcceptBacksOffUnderFdExhaustionAndRecovers) {
  struct RlimitGuard {
    rlimit saved{};
    RlimitGuard() { ::getrlimit(RLIMIT_NOFILE, &saved); }
    ~RlimitGuard() { ::setrlimit(RLIMIT_NOFILE, &saved); }
  } guard;

  auto server = TcpServer::create(0, echo_upper);
  ASSERT_TRUE(server.is_ok());
  // Serve one full connection before exhausting the fd table: proves the
  // recovery below restores a previously-working server, and exercises
  // the whole accept/connection machinery once while fds are still
  // available (UBSan's vptr check probes memory through a pipe(2) on a
  // type-cache miss — with zero free fds that probe fails and reports a
  // false "invalid vptr", so the caches must be warm before the window).
  {
    const int warm = raw_connect(server.value()->port());
    ASSERT_GE(warm, 0);
    Bytes wire;
    append_frame(wire, to_bytes("warm"));
    ASSERT_EQ(::send(warm, wire.data(), wire.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(wire.size()));
    auto warm_resp = recv_frame(warm);
    ASSERT_TRUE(warm_resp.has_value());
    EXPECT_EQ(to_string(*warm_resp), "WARM");
    ::close(warm);
    // Wait until the server reaped the connection so its fd does not
    // free up mid-window and skew the exhaustion below.
    for (int i = 0; i < 200 && server.value()->active_workers() > 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_EQ(server.value()->active_workers(), 0u);
  }
  // Reserve the client socket *before* exhausting the fd table (it lives
  // in the same process).
  const int cfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(cfd, 0);
  timeval tv{5, 0};
  ::setsockopt(cfd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

  // Clamp the fd ceiling just above current usage, then occupy every
  // remaining slot so accept(2) hits EMFILE. Only a process-level
  // EMFILE ends the loop: a neighbor process can momentarily saturate
  // the system-wide table (ENFILE), which would leave free slots here.
  rlimit tight = guard.saved;
  tight.rlim_cur = open_fd_count() + 4;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  std::vector<int> hogs;
  for (int spins = 0; spins < 1000; ++spins) {
    const int h = ::open("/dev/null", O_RDONLY);
    if (h < 0) {
      if (errno == EMFILE) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    hogs.push_back(h);
  }
  ASSERT_FALSE(hogs.empty());
  ASSERT_EQ(::open("/dev/null", O_RDONLY), -1);
  ASSERT_EQ(errno, EMFILE);

  const std::uint64_t backoffs_before =
      obs::Registry::instance().counter("fgad_tcp_accept_backoffs_total")
          .value();
  // The TCP handshake completes in the kernel backlog even though the
  // server's accept() cannot get an fd for it yet.
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.value()->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(cfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  // The accept loop must back off and retry, not die.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_GT(obs::Registry::instance()
                .counter("fgad_tcp_accept_backoffs_total")
                .value(),
            backoffs_before);

  // Free the fd table: the queued connection must now be accepted and
  // served as if nothing had happened.
  for (int h : hogs) ::close(h);
  ::setrlimit(RLIMIT_NOFILE, &guard.saved);
  Bytes wire;
  append_frame(wire, to_bytes("revive"));
  ASSERT_EQ(::send(cfd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  auto resp = recv_frame(cfd);
  ASSERT_TRUE(resp.has_value()) << "connection was not served after recovery";
  EXPECT_EQ(to_string(*resp), "REVIVE");
  ::close(cfd);
}

// ---- FailoverChannel (DESIGN.md §18) ---------------------------------------

/// Channel whose roundtrip fails with kConnReset while `*dead` is set,
/// and otherwise answers "<tag>:<request>".
class FlakyEchoChannel final : public RpcChannel {
 public:
  FlakyEchoChannel(std::string tag, std::shared_ptr<std::atomic<bool>> dead)
      : tag_(std::move(tag)), dead_(std::move(dead)) {}

  Result<Bytes> roundtrip(BytesView request) override {
    if (dead_ && dead_->load()) {
      return Error(Errc::kConnReset, "test: endpoint died");
    }
    Bytes out = to_bytes(tag_ + ":");
    out.insert(out.end(), request.begin(), request.end());
    return out;
  }

 private:
  std::string tag_;
  std::shared_ptr<std::atomic<bool>> dead_;
};

/// Channel that fails with kConnReset while `*failures` is positive
/// (counting it down across every channel sharing it), then echoes.
class CountdownChannel final : public RpcChannel {
 public:
  explicit CountdownChannel(std::shared_ptr<std::atomic<int>> failures)
      : failures_(std::move(failures)) {}

  Result<Bytes> roundtrip(BytesView request) override {
    if (failures_->fetch_sub(1) > 0) {
      return Error(Errc::kConnReset, "test: connection reset");
    }
    return Bytes(request.begin(), request.end());
  }

 private:
  std::shared_ptr<std::atomic<int>> failures_;
};

TEST(Failover, OneEndpointCountsResendsAndExhaustion) {
  // One endpoint is the plain reconnect case: the channel redials the
  // same server, resends what the predicate approves, and accounts for
  // it in the fgad_failover_* counters and the flight recorder.
  obs::FlightRecorder& fr = obs::FlightRecorder::instance();
  fr.configure(256);
  obs::Counter& resends_total =
      obs::Registry::instance().counter("fgad_failover_resends_total");
  obs::Counter& exhausted_total =
      obs::Registry::instance().counter("fgad_failover_exhausted_total");
  const auto events = [&fr](obs::FrEvent type, std::uint64_t rid) {
    std::vector<std::uint64_t> as;
    for (const auto& e : fr.snapshot()) {
      if (e.type == type && e.rid == rid) {
        as.push_back(e.a);
      }
    }
    return as;
  };
  const auto one_endpoint = [](std::shared_ptr<std::atomic<int>> failures) {
    FailoverChannel::Options opts;
    opts.max_attempts = 4;
    opts.base_backoff_ms = 1;
    opts.max_backoff_ms = 2;
    opts.retryable = [](BytesView f) { return proto::retryable_request(f); };
    return std::make_unique<FailoverChannel>(
        static_endpoints({{"127.0.0.1", 1}}),
        [failures](const Endpoint&) -> Result<std::unique_ptr<RpcChannel>> {
          return std::unique_ptr<RpcChannel>(
              std::make_unique<CountdownChannel>(failures));
        },
        opts);
  };
  proto::AccessReq areq;
  areq.file_id = 1;
  areq.ref = proto::ItemRef::id(0);
  constexpr std::uint64_t kRid = 0x5eed0001;
  const Bytes frame = proto::seal_tagged(kRid, areq.to_frame());
  ASSERT_TRUE(proto::retryable_request(frame));

  // Two resets, then an answer.
  auto flaky = one_endpoint(std::make_shared<std::atomic<int>>(2));
  const std::uint64_t resends_before = resends_total.value();
  auto resp = flaky->roundtrip(frame);
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  EXPECT_EQ(resp.value(), frame);
  EXPECT_EQ(flaky->resends(), 2u);
  EXPECT_EQ(flaky->dials(), 3u);
  EXPECT_EQ(resends_total.value() - resends_before, 2u);
  EXPECT_EQ(events(obs::FrEvent::kRetryResend, kRid),
            (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(events(obs::FrEvent::kRetryDial, kRid),
            (std::vector<std::uint64_t>{0, 1, 2}));

  // Never answers: the budget runs out.
  auto dead = one_endpoint(std::make_shared<std::atomic<int>>(1000));
  const std::uint64_t exhausted_before = exhausted_total.value();
  auto gave_up = dead->roundtrip(frame);
  ASSERT_FALSE(gave_up.is_ok());
  EXPECT_EQ(gave_up.error().code, Errc::kRetryExhausted);
  EXPECT_EQ(dead->resends(), 3u);
  EXPECT_EQ(exhausted_total.value() - exhausted_before, 1u);
  EXPECT_EQ(events(obs::FrEvent::kRetryExhausted, kRid),
            (std::vector<std::uint64_t>{4}));
}

TEST(Failover, RedialReResolvesInsteadOfCachingTheFirstResolution) {
  // Regression: the Resolver must run on EVERY dial. A client that
  // caches the first resolution keeps redialing the dead primary's old
  // address forever after the operator repoints the name.
  auto old_dead = std::make_shared<std::atomic<bool>>(false);
  std::atomic<int> resolutions{0};
  std::mutex mu;
  std::string live_host = "old-host";

  FailoverChannel::Options opts;
  opts.base_backoff_ms = 1;
  opts.max_backoff_ms = 2;
  opts.retryable = [](BytesView) { return true; };
  FailoverChannel ch(
      [&]() -> Result<std::vector<Endpoint>> {
        ++resolutions;
        std::lock_guard<std::mutex> lock(mu);
        return std::vector<Endpoint>{{live_host, 1}};
      },
      [&](const Endpoint& ep) -> Result<std::unique_ptr<RpcChannel>> {
        if (ep.host == "old-host" && old_dead->load()) {
          return Error(Errc::kConnReset, "test: stale address");
        }
        return std::unique_ptr<RpcChannel>(
            std::make_unique<FlakyEchoChannel>(
                ep.host, ep.host == "old-host" ? old_dead : nullptr));
      },
      opts);

  auto first = ch.roundtrip(to_bytes("a"));
  ASSERT_TRUE(first.is_ok());
  EXPECT_EQ(to_string(first.value()), "old-host:a");
  EXPECT_EQ(resolutions.load(), 1);

  // The primary dies and the name is repointed between dials.
  old_dead->store(true);
  {
    std::lock_guard<std::mutex> lock(mu);
    live_host = "new-host";
  }
  auto second = ch.roundtrip(to_bytes("b"));
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();
  EXPECT_EQ(to_string(second.value()), "new-host:b")
      << "redial used a cached resolution";
  EXPECT_GE(resolutions.load(), 2);
}

TEST(Failover, NotPrimaryRotatesAndResendsEvenWithoutRetryPredicate) {
  // kNotPrimary is a definitive not-executed signal: the refusing node
  // never touched its WAL. So the failover channel may resend ANY
  // request after rotating — even one the retryable predicate (null
  // here, strictest setting) would refuse after a transport error.
  proto::ErrorMsg bounce;
  bounce.code = Errc::kNotPrimary;
  bounce.message = "backup";
  const Bytes bounce_frame = bounce.to_frame();
  ASSERT_TRUE(is_not_primary_frame(bounce_frame));

  std::atomic<int> backup_hits{0};
  FailoverChannel ch(
      static_endpoints({{"backup", 1}, {"primary", 2}}),
      [&](const Endpoint& ep) -> Result<std::unique_ptr<RpcChannel>> {
        if (ep.host == "backup") {
          ++backup_hits;
          return std::unique_ptr<RpcChannel>(
              std::make_unique<DirectChannel>([bounce_frame](BytesView) {
                return bounce_frame;
              }));
        }
        return std::unique_ptr<RpcChannel>(
            std::make_unique<FlakyEchoChannel>("primary", nullptr));
      },
      FailoverChannel::Options{});  // retryable = null

  auto resp = ch.roundtrip(to_bytes("mutate"));
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  EXPECT_EQ(to_string(resp.value()), "primary:mutate");
  EXPECT_EQ(backup_hits.load(), 1);
  EXPECT_EQ(ch.failovers(), 1u);
  EXPECT_EQ(ch.dials(), 2u);
}

TEST(Failover, RefusedEverywhereEndsInNotPrimaryUnlessItMayHaveRun) {
  // A request every endpoint refused ran nowhere, so the give-up code is
  // kNotPrimary, not kRetryExhausted. A batch keeps that answer only if
  // none of it may have run: not when a request before the refused one
  // was answered, nor when the pipelined batch failed in transport.
  proto::ErrorMsg bounce;
  bounce.code = Errc::kNotPrimary;
  bounce.message = "backup";
  const Bytes bounce_frame = bounce.to_frame();
  const auto one_endpoint = [&](bool first_dial_resets,
                                FailoverChannel::RetryPredicate retryable) {
    FailoverChannel::Options opts;
    opts.max_attempts = 3;
    opts.base_backoff_ms = 1;
    opts.max_backoff_ms = 2;
    opts.retryable = std::move(retryable);
    auto dials = std::make_shared<int>(0);
    return std::make_unique<FailoverChannel>(
        static_endpoints({{"127.0.0.1", 1}}),
        [bounce_frame, first_dial_resets,
         dials](const Endpoint&) -> Result<std::unique_ptr<RpcChannel>> {
          if (first_dial_resets && (*dials)++ == 0) {
            return std::unique_ptr<RpcChannel>(
                std::make_unique<CountdownChannel>(
                    std::make_shared<std::atomic<int>>(1)));
          }
          return std::unique_ptr<RpcChannel>(std::make_unique<DirectChannel>(
              [bounce_frame](BytesView req) {
                return to_string(req) == "refuse"
                           ? bounce_frame
                           : Bytes(req.begin(), req.end());
              }));
        },
        opts);
  };

  auto strict = one_endpoint(false, nullptr);  // no resend after transport
  EXPECT_EQ(strict->roundtrip(to_bytes("refuse")).code(), Errc::kNotPrimary);
  EXPECT_EQ(strict->roundtrip_batch({to_bytes("refuse")}).code(),
            Errc::kNotPrimary);
  EXPECT_EQ(
      strict->roundtrip_batch({to_bytes("run"), to_bytes("refuse")}).code(),
      Errc::kRetryExhausted);

  auto resendable = one_endpoint(true, [](BytesView) { return true; });
  EXPECT_EQ(resendable->roundtrip_batch({to_bytes("refuse")}).code(),
            Errc::kRetryExhausted);
}

TEST(Failover, TransportErrorWithoutPredicateIsNotResent) {
  // Without a retryable predicate a transport failure means the request
  // MAY have executed — the channel must surface the error, not replay
  // it against the other endpoint.
  std::atomic<int> sends{0};
  FailoverChannel ch(
      static_endpoints({{"a", 1}, {"b", 2}}),
      [&](const Endpoint&) -> Result<std::unique_ptr<RpcChannel>> {
        auto dead = std::make_shared<std::atomic<bool>>(true);
        ++sends;
        return std::unique_ptr<RpcChannel>(
            std::make_unique<FlakyEchoChannel>("x", dead));
      },
      FailoverChannel::Options{});

  auto resp = ch.roundtrip(to_bytes("mutate"));
  ASSERT_FALSE(resp.is_ok());
  EXPECT_EQ(resp.error().code, Errc::kConnReset);
  EXPECT_EQ(sends.load(), 1) << "must not redial to resend";
}

}  // namespace
}  // namespace fgad::net
