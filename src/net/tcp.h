// TCP transport (POSIX sockets) with u32 length-prefixed framing.
//
// The paper ran the client in a lab against EC2 instances; our TcpChannel /
// TcpServer reproduce the same client/server split over real sockets (the
// benchmarks use the loopback interface — see DESIGN.md's substitution
// table). Messages are framed as u32-LE length followed by the payload.
//
// Robustness (DESIGN.md §11): every socket operation runs on a non-blocking
// fd behind a poll()-based deadline, so a stalled or malicious peer can
// only cost the caller its configured timeout, never a hang. Frame-size
// limits are enforced symmetrically on send and receive. Failures surface
// through the structured taxonomy in common/result.h: kTimeout (deadline
// expired), kConnReset (peer closed/reset), kIoError (other socket
// failure), kDecodeError (frame-limit violations).
//
// Server core (DESIGN.md §15): an epoll reactor (Linux only), built by
// TcpServer::create. A small fixed set of IOWorker event-loop threads each
// owns a share of the non-blocking connection fds; per-connection
// read/write buffers support request pipelining — multiple frames in
// flight per connection, responses written back in request-arrival order
// regardless of the order handlers complete in. Idle and write-stall
// deadlines are folded into the event loop, and the accept path backs off
// (instead of dying) under fd exhaustion. `Options::max_workers` keeps its
// historical meaning as the concurrent-connection bound: at the bound the
// accept loop stops accepting and the kernel backlog queues the overflow.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/transport.h"

namespace fgad::net {

inline constexpr std::uint32_t kMaxFrameSize = 1u << 30;  // 1 GiB sanity cap

/// Timeout convention used throughout this header: milliseconds, with
/// `kNoTimeout` (-1) meaning "block indefinitely".
inline constexpr int kNoTimeout = -1;

/// Writes one framed message to `fd` within `timeout_ms`, header and
/// payload in one sendmsg(2) when the socket has room. Rejects payloads
/// over kMaxFrameSize (which also covers >4 GiB payloads that would
/// silently truncate through the u32 header) with the same kDecodeError
/// the receive side produces for an oversized frame.
Status write_frame(int fd, BytesView payload, int timeout_ms = kNoTimeout);

/// Client-side TCP connection. A failed exchange (timeout, reset, an
/// oversized or surplus response frame) closes the socket, since a late
/// response would otherwise answer the next request; every later call
/// returns kConnReset, on which FailoverChannel and the Replicator
/// redial. A request rejected as too large before anything was
/// sent leaves the connection open.
class TcpChannel final : public RpcChannel {
 public:
  struct Options {
    int connect_timeout_ms = 5000;  // deadline for the TCP handshake
    int io_timeout_ms = 30000;      // per read/write-frame deadline
  };

  /// Connects to host:port (numeric IPv4 host, e.g. "127.0.0.1").
  static Result<std::unique_ptr<TcpChannel>> connect(const std::string& host,
                                                     std::uint16_t port);
  static Result<std::unique_ptr<TcpChannel>> connect(const std::string& host,
                                                     std::uint16_t port,
                                                     Options opts);
  ~TcpChannel() override;

  TcpChannel(const TcpChannel&) = delete;
  TcpChannel& operator=(const TcpChannel&) = delete;

  Result<Bytes> roundtrip(BytesView request) override;

  /// Pipelined batch: all requests are written without waiting for the
  /// responses, full-duplex (reads interleave with writes so neither
  /// side's socket buffer can deadlock a large batch). Responses come
  /// back in request order, as guaranteed by the reactor server. The
  /// io_timeout_ms deadline is an *inactivity* deadline: it resets on any
  /// byte of progress, so a big batch is not held to a single-frame
  /// budget.
  Result<std::vector<Bytes>> roundtrip_batch(
      const std::vector<Bytes>& requests) override;

 private:
  TcpChannel(int fd, Options opts) : fd_(fd), opts_(opts) {}
  void close_after_failure();

  int fd_;  // -1 once a failed exchange closed it
  Options opts_;
};

/// Epoll reactor server. A bounded set of connections (backpressure
/// via the listen backlog at `max_workers`) is multiplexed over
/// `io_workers` event-loop threads; each connection supports up to
/// `max_pipeline` requests in flight with responses written in arrival
/// order.
class TcpServer {
 public:
  using Handler = std::function<Bytes(BytesView)>;

  /// Completion callback for one pipelined request. Thread-safe: may be
  /// invoked from any thread (the group committer, a thread pool, or
  /// inline from the handler), at most once. Invoking it after the server
  /// stopped or the connection died is safe and drops the response.
  using Respond = std::function<void(Bytes)>;

  /// Asynchronous handler: take ownership of the request, produce the
  /// response on any thread, and hand it to `respond`. The reactor keeps
  /// accepting further pipelined frames on the same connection while
  /// earlier responses are pending and writes responses back in request
  /// order.
  using AsyncHandler = std::function<void(Bytes request, Respond respond)>;

  struct Options {
    std::size_t max_workers = 64;   // concurrent-connection bound
    std::size_t io_workers = 0;     // event-loop threads (0 = auto)
    std::size_t max_pipeline = 32;  // frames in flight per connection
    // Slow-reader budget: a connection whose pending response bytes
    // exceed this stops being read from until the peer drains.
    std::size_t write_buffer_limit = 64u << 20;
    int backlog = 16;               // listen(2) queue (holds the overflow)
    int idle_timeout_ms = kNoTimeout;  // evict connections idle this long
    int io_timeout_ms = 30000;      // write-stall eviction deadline
  };

  /// Binds to 127.0.0.1:`port` (0 = ephemeral) and starts serving; a
  /// bind/listen failure comes back as an Error carrying the errno. A
  /// synchronous Handler runs inline on the connection's event loop.
  static Result<std::unique_ptr<TcpServer>> create(std::uint16_t port,
                                                   AsyncHandler handler,
                                                   Options opts);
  static Result<std::unique_ptr<TcpServer>> create(std::uint16_t port,
                                                   Handler handler,
                                                   Options opts);
  static Result<std::unique_ptr<TcpServer>> create(std::uint16_t port,
                                                   Handler handler);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  std::uint16_t port() const { return port_; }

  /// Live connections (name kept from the thread-per-connection era; one
  /// "worker" is now one connection multiplexed onto an event loop).
  std::size_t active_workers() const;
  /// High-water mark of concurrent connections over the server's lifetime.
  std::size_t peak_workers() const;
  /// Event-loop threads actually running.
  std::size_t io_worker_count() const { return workers_.size(); }

  /// Stops accepting, closes the listener, unwinds every event loop
  /// (closing all connection fds), and joins the threads.
  void stop();

 private:
  class IOWorker;
  friend class IOWorker;

  TcpServer(AsyncHandler handler, Options opts);
  /// Binds, listens and starts the event loops; the destructor tears down
  /// whatever a failure left running.
  Status start(std::uint16_t port);

  void accept_loop();
  /// IOWorker notifies the accept loop's backpressure gate here whenever
  /// a connection it owns goes away.
  void on_connection_closed();

  AsyncHandler handler_;
  Options opts_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::vector<std::unique_ptr<IOWorker>> workers_;
  mutable std::mutex conn_mu_;
  std::condition_variable conn_cv_;
  std::size_t active_ = 0;  // live connections across all IOWorkers
  std::size_t peak_ = 0;
};

}  // namespace fgad::net
