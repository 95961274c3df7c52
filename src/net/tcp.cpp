#include "net/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <unordered_map>

#include "obs/metrics.h"

namespace fgad::net {

namespace {

using Clock = std::chrono::steady_clock;

/// A per-frame deadline. remaining() clamps to [0, start budget]; a value
/// of kNoTimeout disables the deadline entirely (poll blocks forever).
class Deadline {
 public:
  explicit Deadline(int timeout_ms) : timeout_ms_(timeout_ms) {
    if (timeout_ms_ >= 0) {
      expiry_ = Clock::now() + std::chrono::milliseconds(timeout_ms_);
    }
  }

  bool unlimited() const { return timeout_ms_ < 0; }

  /// Milliseconds left (poll() argument): -1 when unlimited, else >= 0.
  int remaining_ms() const {
    if (unlimited()) {
      return -1;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          expiry_ - Clock::now())
                          .count();
    return static_cast<int>(std::max<long long>(0, left));
  }

  bool expired() const { return !unlimited() && remaining_ms() == 0; }

 private:
  int timeout_ms_;
  Clock::time_point expiry_;
};

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Waits for `events` on `fd` until the deadline. OK means the fd is ready.
Status poll_ready(int fd, short events, const Deadline& dl) {
  for (;;) {
    pollfd p{fd, events, 0};
    const int rc = ::poll(&p, 1, dl.remaining_ms());
    if (rc > 0) {
      return Status::ok();
    }
    if (rc == 0) {
      return Status(Errc::kTimeout, "tcp: operation timed out");
    }
    if (errno == EINTR) {
      if (dl.expired()) {
        return Status(Errc::kTimeout, "tcp: operation timed out");
      }
      continue;
    }
    return Status(Errc::kIoError,
                  std::string("tcp: poll failed: ") + std::strerror(errno));
  }
}

Status map_io_errno(const char* what) {
  if (errno == ECONNRESET || errno == EPIPE) {
    return Status(Errc::kConnReset,
                  std::string("tcp: ") + what + ": connection reset");
  }
  return Status(Errc::kIoError,
                std::string("tcp: ") + what + ": " + std::strerror(errno));
}

/// Sends every byte of `iov[0, n)` with sendmsg(2), one call when the
/// socket buffer has room for all of it.
Status write_all(int fd, iovec* iov, std::size_t n, const Deadline& dl) {
  while (n > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = n;
    const ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (auto st = poll_ready(fd, POLLOUT, dl); !st) {
          return st;
        }
        continue;
      }
      return map_io_errno("send");
    }
    auto left = static_cast<std::size_t>(w);
    while (n > 0 && left >= iov->iov_len) {
      left -= iov->iov_len;
      ++iov;
      --n;
    }
    if (n > 0) {
      iov->iov_base = static_cast<std::uint8_t*>(iov->iov_base) + left;
      iov->iov_len -= left;
    }
  }
  return Status::ok();
}

void put_frame_header(Bytes& out, std::uint32_t len) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  }
}

std::uint32_t frame_len(const std::uint8_t* hdr) {
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(hdr[i]) << (8 * i);
  }
  return len;
}

obs::Counter& frames_out_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("fgad_tcp_frames_out_total");
  return c;
}
obs::Counter& bytes_out_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("fgad_tcp_bytes_out_total");
  return c;
}
obs::Counter& frames_in_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("fgad_tcp_frames_in_total");
  return c;
}
obs::Counter& bytes_in_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("fgad_tcp_bytes_in_total");
  return c;
}
obs::Counter& timeouts_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("fgad_tcp_timeouts_total");
  return c;
}
obs::Counter& resets_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("fgad_tcp_conn_resets_total");
  return c;
}
obs::Counter& accepts_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("fgad_tcp_accepts_total");
  return c;
}
obs::Counter& accept_backoffs_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("fgad_tcp_accept_backoffs_total");
  return c;
}
obs::Counter& reactor_loops_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("fgad_net_reactor_loops");
  return c;
}
obs::Gauge& reactor_connections_gauge() {
  static obs::Gauge& g =
      obs::Registry::instance().gauge("fgad_net_reactor_connections");
  return g;
}
obs::Counter& write_stalls_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("fgad_net_write_stalls_total");
  return c;
}
// Connections currently blocked on a slow-reading peer / paused for
// backpressure. The SLO tracker windows these to drive the "overloaded"
// readiness signal (DESIGN.md §17).
obs::Gauge& write_stalled_gauge() {
  static obs::Gauge& g =
      obs::Registry::instance().gauge("fgad_net_write_stalled");
  return g;
}
obs::Gauge& backpressure_paused_gauge() {
  static obs::Gauge& g =
      obs::Registry::instance().gauge("fgad_net_backpressure_paused");
  return g;
}
obs::Gauge& active_workers_gauge() {
  static obs::Gauge& g =
      obs::Registry::instance().gauge("fgad_tcp_active_workers");
  return g;
}
obs::Gauge& peak_workers_gauge() {
  static obs::Gauge& g =
      obs::Registry::instance().gauge("fgad_tcp_peak_workers");
  return g;
}

void count_read_failure(const Status& st) {
  if (st.error().code == Errc::kTimeout) {
    timeouts_counter().inc();
  } else if (st.error().code == Errc::kConnReset) {
    resets_counter().inc();
  }
}

// ---- client frame reader ---------------------------------------------------

/// What a TcpChannel returns once a failed exchange closed its socket.
Error closed_channel_error() {
  return Error(Errc::kConnReset,
               "tcp: connection closed after a failed exchange");
}

/// Receives the responses to `want` requests from a non-blocking socket;
/// the one reader behind TcpChannel::roundtrip and roundtrip_batch. A
/// recv(2) takes up to 64 KiB into a scratch buffer, so a small response
/// arrives header and payload in one call; once a large frame's header is
/// in, the rest of its payload is received straight into the frame.
class FrameReader {
 public:
  explicit FrameReader(std::size_t want) : want_(want) {
    frames_.reserve(want);
  }

  bool done() const { return frames_.size() == want_; }
  std::vector<Bytes>& frames() { return frames_; }

  /// Receives what the socket holds, up to the last frame wanted. Returns
  /// on a short read or EAGAIN (the caller polls for more), with
  /// `progress` set if any byte arrived. kConnReset when the peer closed,
  /// kDecodeError for a frame over kMaxFrameSize or bytes past the last
  /// frame wanted.
  Status receive(int fd, bool& progress) {
    while (!done()) {
      const bool direct = hdr_got_ == 4 && frame_.size() - got_ >= kScratch;
      std::uint8_t* dst = direct ? frame_.data() + got_ : scratch_;
      const std::size_t cap = direct ? frame_.size() - got_ : kScratch;
      const ssize_t n = ::recv(fd, dst, cap, 0);
      if (n > 0) {
        progress = true;
        const auto got = static_cast<std::size_t>(n);
        if (direct) {
          got_ += got;
          if (got_ == frame_.size()) {
            finish_frame();
          }
        } else if (auto st = consume(scratch_, got); !st) {
          return st;
        }
        if (got < cap) {
          break;  // the socket is drained for now
        }
        continue;
      }
      if (n == 0) {
        return Status(Errc::kConnReset, "tcp: peer closed the connection");
      }
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      return map_io_errno("recv");
    }
    return Status::ok();
  }

 private:
  static constexpr std::size_t kScratch = 65536;

  Status consume(const std::uint8_t* p, std::size_t n) {
    while (n > 0) {
      if (done()) {
        // The server wrote more than we asked for: protocol breach.
        return Status(Errc::kDecodeError,
                      "tcp: unexpected trailing response data");
      }
      if (hdr_got_ < 4) {
        const std::size_t k = std::min(n, 4 - hdr_got_);
        std::memcpy(hdr_ + hdr_got_, p, k);
        hdr_got_ += k;
        p += k;
        n -= k;
        if (hdr_got_ < 4) {
          break;
        }
        const std::uint32_t len = frame_len(hdr_);
        if (len > kMaxFrameSize) {
          return Status(Errc::kDecodeError, "tcp: frame too large");
        }
        frame_ = Bytes(len);
      }
      const std::size_t k = std::min(n, frame_.size() - got_);
      if (k > 0) {  // an empty frame has no buffer to copy into
        std::memcpy(frame_.data() + got_, p, k);
      }
      got_ += k;
      p += k;
      n -= k;
      if (got_ == frame_.size()) {
        finish_frame();
      }
    }
    return Status::ok();
  }

  void finish_frame() {
    frames_in_counter().inc();
    bytes_in_counter().inc(frame_.size() + 4);
    frames_.push_back(std::move(frame_));
    frame_ = Bytes();
    hdr_got_ = 0;
    got_ = 0;
  }

  std::size_t want_;
  std::vector<Bytes> frames_;
  std::uint8_t hdr_[4] = {};
  std::size_t hdr_got_ = 0;
  Bytes frame_;          // payload being received, sized once its header is in
  std::size_t got_ = 0;  // payload bytes of frame_ received so far
  std::uint8_t scratch_[kScratch];
};

// ---- readiness multiplexer -------------------------------------------------

/// Thin epoll wrapper. Each registered fd carries an opaque `ud` pointer
/// handed back with its events; error/hangup conditions are folded into
/// `readable` so the caller discovers them through the usual recv() path.
class Poller {
 public:
  struct Ev {
    void* ud = nullptr;
    bool readable = false;
    bool writable = false;
  };

  Poller() = default;
  ~Poller() {
    if (ep_ >= 0) {
      ::close(ep_);
    }
  }
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  bool init() {
    ep_ = ::epoll_create1(EPOLL_CLOEXEC);
    return ep_ >= 0;
  }

  bool add(int fd, bool r, bool w, void* ud) {
    return ctl(EPOLL_CTL_ADD, fd, r, w, ud);
  }

  bool mod(int fd, bool r, bool w, void* ud) {
    return ctl(EPOLL_CTL_MOD, fd, r, w, ud);
  }

  void del(int fd) { ::epoll_ctl(ep_, EPOLL_CTL_DEL, fd, nullptr); }

  /// Fills `out` with ready fds (empty on timeout/EINTR).
  void wait(std::vector<Ev>& out, int timeout_ms) {
    out.clear();
    if (evbuf_.size() < 64) {
      evbuf_.resize(64);
    }
    const int n = ::epoll_wait(ep_, evbuf_.data(),
                               static_cast<int>(evbuf_.size()), timeout_ms);
    for (int i = 0; i < n; ++i) {
      Ev ev;
      ev.ud = evbuf_[static_cast<std::size_t>(i)].data.ptr;
      const auto flags = evbuf_[static_cast<std::size_t>(i)].events;
      ev.readable = (flags & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0;
      ev.writable = (flags & EPOLLOUT) != 0;
      out.push_back(ev);
    }
    if (n == static_cast<int>(evbuf_.size())) {
      evbuf_.resize(evbuf_.size() * 2);  // more fds were ready than slots
    }
  }

 private:
  bool ctl(int op, int fd, bool r, bool w, void* ud) {
    epoll_event ev{};
    ev.events = (r ? EPOLLIN : 0u) | (w ? EPOLLOUT : 0u);
    ev.data.ptr = ud;
    return ::epoll_ctl(ep_, op, fd, &ev) == 0;
  }

  int ep_ = -1;
  std::vector<epoll_event> evbuf_;
};

}  // namespace

// ---- framed I/O ------------------------------------------------------------

Status write_frame(int fd, BytesView payload, int timeout_ms) {
  // Symmetric with the receive-side check: refuse to put an unreadable
  // frame on the wire. This also catches payloads over 4 GiB, which the
  // u32 header would otherwise silently truncate.
  if (payload.size() > kMaxFrameSize) {
    return Status(Errc::kDecodeError, "tcp: frame too large");
  }
  frames_out_counter().inc();
  bytes_out_counter().inc(payload.size() + 4);
  const Deadline dl(timeout_ms);
  std::uint8_t hdr[4];
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    hdr[i] = static_cast<std::uint8_t>(len >> (8 * i));
  }
  // One sendmsg for header and payload: under TCP_NODELAY two sends would
  // leave as two segments and could wake the peer twice.
  iovec iov[2] = {{hdr, sizeof(hdr)},
                  {const_cast<std::uint8_t*>(payload.data()), payload.size()}};
  return write_all(fd, iov, 2, dl);
}

// ---- TcpChannel ------------------------------------------------------------

Result<std::unique_ptr<TcpChannel>> TcpChannel::connect(
    const std::string& host, std::uint16_t port) {
  return connect(host, port, Options{});
}

Result<std::unique_ptr<TcpChannel>> TcpChannel::connect(
    const std::string& host, std::uint16_t port, Options opts) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Error(Errc::kIoError, "tcp: socket() failed");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Error(Errc::kInvalidArgument, "tcp: bad host address");
  }
  if (!set_nonblocking(fd)) {
    ::close(fd);
    return Error(Errc::kIoError, "tcp: could not set O_NONBLOCK");
  }
  const Deadline dl(opts.connect_timeout_ms);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return Error(Errc::kIoError, std::string("tcp: connect failed: ") +
                                       std::strerror(errno));
    }
    if (auto st = poll_ready(fd, POLLOUT, dl); !st) {
      ::close(fd);
      if (st.error().code == Errc::kTimeout) {
        return Error(Errc::kTimeout, "tcp: connect timed out");
      }
      return st.error();
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return Error(Errc::kIoError, std::string("tcp: connect failed: ") +
                                       std::strerror(err != 0 ? err : errno));
    }
  }
  set_nodelay(fd);
  return std::unique_ptr<TcpChannel>(new TcpChannel(fd, opts));
}

TcpChannel::~TcpChannel() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Result<Bytes> TcpChannel::roundtrip(BytesView request) {
  if (fd_ < 0) {
    return closed_channel_error();
  }
  if (request.size() > kMaxFrameSize) {
    return Error(Errc::kDecodeError, "tcp: frame too large");  // nothing sent
  }
  if (auto st = write_frame(fd_, request, opts_.io_timeout_ms); !st) {
    close_after_failure();
    return st.error();
  }
  const Deadline dl(opts_.io_timeout_ms);
  FrameReader reader(1);
  while (!reader.done()) {
    bool progress = false;
    Status st = poll_ready(fd_, POLLIN, dl);
    if (st) {
      st = reader.receive(fd_, progress);
    }
    if (!st) {
      count_read_failure(st);
      close_after_failure();
      return st.error();
    }
  }
  return std::move(reader.frames().front());
}

Result<std::vector<Bytes>> TcpChannel::roundtrip_batch(
    const std::vector<Bytes>& requests) {
  if (requests.empty()) {
    return std::vector<Bytes>{};
  }
  if (fd_ < 0) {
    return closed_channel_error();
  }
  std::size_t total = 0;
  for (const Bytes& r : requests) {
    if (r.size() > kMaxFrameSize) {
      return Error(Errc::kDecodeError, "tcp: frame too large");  // nothing sent
    }
    total += 4 + r.size();
  }
  // One contiguous outgoing stream; batches are bounded by callers (the
  // client pipelines in pages), so the copy is cheap relative to framing
  // each request with its own syscall.
  Bytes out;
  out.reserve(total);
  for (const Bytes& r : requests) {
    put_frame_header(out, static_cast<std::uint32_t>(r.size()));
    append(out, r);
    frames_out_counter().inc();
    bytes_out_counter().inc(r.size() + 4);
  }
  std::size_t sent = 0;
  FrameReader reader(requests.size());
  Deadline dl(opts_.io_timeout_ms);
  while (!reader.done()) {
    short events = POLLIN;
    if (sent < out.size()) {
      events = static_cast<short>(events | POLLOUT);
    }
    if (auto st = poll_ready(fd_, events, dl); !st) {
      count_read_failure(st);
      close_after_failure();
      return st.error();
    }
    bool progress = false;
    while (sent < out.size()) {
      const ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent,
                               MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
        progress = true;
        continue;
      }
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      close_after_failure();
      return map_io_errno("send").error();
    }
    if (auto st = reader.receive(fd_, progress); !st) {
      count_read_failure(st);
      close_after_failure();
      return st.error();
    }
    if (progress) {
      // Inactivity deadline: a moving batch is never held to one frame's
      // budget, only a stalled peer trips kTimeout.
      dl = Deadline(opts_.io_timeout_ms);
    }
  }
  return std::move(reader.frames());
}

void TcpChannel::close_after_failure() {
  ::close(fd_);
  fd_ = -1;
}

// ---- TcpServer reactor -----------------------------------------------------

namespace {
/// Set while an IOWorker runs its loop; lets a Respond invoked inline from
/// a handler complete without the queue + wake-pipe detour.
thread_local void* t_current_worker_shared = nullptr;
}  // namespace

class TcpServer::IOWorker {
 public:
  explicit IOWorker(TcpServer* server)
      : server_(server), shared_(std::make_shared<Shared>()) {
    shared_->owner = this;
  }

  ~IOWorker() {
    join();
    if (wake_r_ >= 0) {
      ::close(wake_r_);
    }
    if (wake_w_ >= 0) {
      ::close(wake_w_);
    }
  }

  bool start() {
    int pipefd[2];
    if (::pipe(pipefd) != 0) {
      return false;
    }
    wake_r_ = pipefd[0];
    wake_w_ = pipefd[1];
    if (!set_nonblocking(wake_r_) || !set_nonblocking(wake_w_) ||
        !poller_.init() || !poller_.add(wake_r_, true, false, nullptr)) {
      ::close(wake_r_);
      ::close(wake_w_);
      wake_r_ = wake_w_ = -1;
      return false;
    }
    shared_->wake_fd = wake_w_;
    thread_ = std::thread([this] { loop(); });
    return true;
  }

  /// Hands a freshly accepted fd to this worker's event loop. Called from
  /// the accept thread.
  void add_connection(int fd) {
    {
      std::lock_guard<std::mutex> lock(shared_->mu);
      if (!shared_->closed && !shared_->stop) {
        shared_->incoming.push_back(fd);
        wake_locked();
        return;
      }
    }
    ::close(fd);
    server_->on_connection_closed();
  }

  void request_stop() {
    std::lock_guard<std::mutex> lock(shared_->mu);
    shared_->stop = true;
    wake_locked();
  }

  void join() {
    if (thread_.joinable()) {
      thread_.join();
    }
  }

 private:
  struct Conn {
    int fd = -1;
    Bytes rbuf;
    std::size_t roff = 0;  // parse cursor into rbuf
    Bytes wbuf;
    std::size_t woff = 0;  // send cursor into wbuf
    /// One slot per in-flight request, in arrival order; a response is
    /// written out only once every earlier slot has completed.
    struct Slot {
      bool done = false;
      Bytes resp;
    };
    std::deque<Slot> slots;
    std::uint64_t head_seq = 0;  // seq of slots.front()
    std::uint64_t next_seq = 0;  // seq assigned to the next request
    Clock::time_point last_activity;
    Clock::time_point write_stall_start;  // epoch value = not stalled
    bool reg_read = true;   // current poller interest
    bool reg_write = false;
    bool paused = false;  // reading paused for pipeline/write backpressure
    bool rd_eof = false;  // peer half-closed; flush pending, then close
    bool dead = false;
  };

  struct Completion {
    std::weak_ptr<Conn> conn;
    std::uint64_t seq = 0;
    Bytes resp;
  };

  /// Outlives the worker thread: Respond closures and the accept thread
  /// reach the worker only through this block, so a response completing
  /// after stop() is a cheap no-op instead of a use-after-free.
  struct Shared {
    std::mutex mu;
    IOWorker* owner = nullptr;
    int wake_fd = -1;
    bool closed = false;  // worker thread exited; drop everything
    bool stop = false;
    std::vector<int> incoming;
    std::vector<Completion> completions;
  };

  static constexpr std::size_t kCompactThreshold = 1u << 20;

  std::size_t pending_write(const Conn& c) const {
    return c.wbuf.size() - c.woff;
  }

  bool should_pause(const Conn& c) const {
    return c.slots.size() >= server_->opts_.max_pipeline ||
           pending_write(c) > server_->opts_.write_buffer_limit;
  }

  /// A complete frame is buffered and parseable right now.
  bool has_complete_frame(const Conn& c) const {
    const std::size_t avail = c.rbuf.size() - c.roff;
    if (avail < 4) {
      return false;
    }
    const std::uint32_t len = frame_len(c.rbuf.data() + c.roff);
    return len <= kMaxFrameSize && avail - 4 >= len;
  }

  void wake_locked() {
    if (shared_->wake_fd >= 0) {
      const std::uint8_t one = 1;
      [[maybe_unused]] const ssize_t n =
          ::write(shared_->wake_fd, &one, 1);  // EAGAIN = already pending
    }
  }

  void drain_wake() {
    std::uint8_t buf[256];
    while (::read(wake_r_, buf, sizeof(buf)) > 0) {
    }
  }

  void adopt(int fd) {
    auto c = std::make_shared<Conn>();
    c->fd = fd;
    c->last_activity = Clock::now();
    if (!poller_.add(fd, true, false, c.get())) {
      ::close(fd);
      server_->on_connection_closed();
      return;
    }
    conns_.emplace(fd, std::move(c));
  }

  void close_conn(const std::shared_ptr<Conn>& c) {
    if (c->dead) {
      return;
    }
    c->dead = true;
    if (c->paused) {
      backpressure_paused_gauge().add(-1);
    }
    if (c->write_stall_start != Clock::time_point{}) {
      write_stalled_gauge().add(-1);
    }
    poller_.del(c->fd);
    ::close(c->fd);
    conns_.erase(c->fd);
    server_->on_connection_closed();
  }

  /// Pause-state transitions go through here so the backpressure gauge
  /// tracks the live count of paused connections.
  void set_paused(const std::shared_ptr<Conn>& c, bool paused) {
    if (c->paused != paused) {
      c->paused = paused;
      backpressure_paused_gauge().add(paused ? 1 : -1);
    }
  }

  void clear_write_stall(const std::shared_ptr<Conn>& c) {
    if (c->write_stall_start != Clock::time_point{}) {
      c->write_stall_start = Clock::time_point{};
      write_stalled_gauge().add(-1);
    }
  }

  void update_interest(const std::shared_ptr<Conn>& c) {
    if (c->dead) {
      return;
    }
    const bool want_read = !c->paused && !c->rd_eof;
    const bool want_write = pending_write(*c) > 0;
    if (want_read != c->reg_read || want_write != c->reg_write) {
      c->reg_read = want_read;
      c->reg_write = want_write;
      poller_.mod(c->fd, want_read, want_write, c.get());
    }
  }

  /// Close once the peer half-closed and nothing useful remains: no
  /// in-flight requests, no unsent responses, no buffered complete frame.
  void maybe_close_drained(const std::shared_ptr<Conn>& c) {
    if (!c->dead && c->rd_eof && c->slots.empty() && pending_write(*c) == 0 &&
        !has_complete_frame(*c)) {
      close_conn(c);
    }
  }

  TcpServer::Respond make_respond(const std::shared_ptr<Conn>& c,
                                  std::uint64_t seq) {
    return [sh = shared_, wc = std::weak_ptr<Conn>(c), seq](Bytes resp) {
      if (t_current_worker_shared == sh.get()) {
        // Inline fast path: we are on the owning event loop right now
        // (sync handler, or an async handler completing immediately).
        sh->owner->complete(wc.lock(), seq, std::move(resp));
        return;
      }
      std::lock_guard<std::mutex> lock(sh->mu);
      if (sh->closed) {
        return;  // server stopped; drop the response
      }
      sh->completions.push_back(Completion{std::move(wc), seq,
                                           std::move(resp)});
      if (sh->owner != nullptr) {
        sh->owner->wake_locked();
      }
    };
  }

  void dispatch(const std::shared_ptr<Conn>& c, Bytes req) {
    const std::uint64_t seq = c->next_seq++;
    c->slots.emplace_back();
    server_->handler_(std::move(req), make_respond(c, seq));
  }

  /// Fills the slot for `seq` and flushes any now-contiguous responses.
  void complete(std::shared_ptr<Conn> c, std::uint64_t seq, Bytes resp) {
    if (!c || c->dead || seq < c->head_seq) {
      return;
    }
    const std::size_t idx = static_cast<std::size_t>(seq - c->head_seq);
    if (idx >= c->slots.size() || c->slots[idx].done) {
      return;
    }
    c->slots[idx].done = true;
    c->slots[idx].resp = std::move(resp);
    flush_responses(c);
  }

  void flush_responses(const std::shared_ptr<Conn>& c) {
    bool queued = false;
    while (!c->slots.empty() && c->slots.front().done) {
      Bytes& resp = c->slots.front().resp;
      if (resp.size() > kMaxFrameSize) {
        close_conn(c);
        return;
      }
      put_frame_header(c->wbuf, static_cast<std::uint32_t>(resp.size()));
      append(c->wbuf, resp);
      frames_out_counter().inc();
      bytes_out_counter().inc(resp.size() + 4);
      c->slots.pop_front();
      ++c->head_seq;
      queued = true;
    }
    if (queued) {
      c->last_activity = Clock::now();
      try_write(c);
      if (c->dead) {
        return;
      }
      // Completing responses may have freed pipeline slots: resume
      // reading and parse any frames the peer already buffered.
      if (c->paused && !should_pause(*c)) {
        set_paused(c, false);
        parse_frames(c);
        if (c->dead) {
          return;
        }
      }
      maybe_close_drained(c);
    }
    update_interest(c);
  }

  void try_write(const std::shared_ptr<Conn>& c) {
    while (c->woff < c->wbuf.size()) {
      const ssize_t n = ::send(c->fd, c->wbuf.data() + c->woff,
                               c->wbuf.size() - c->woff, MSG_NOSIGNAL);
      if (n > 0) {
        c->woff += static_cast<std::size_t>(n);
        c->last_activity = Clock::now();
        clear_write_stall(c);
        continue;
      }
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      resets_counter().inc();
      close_conn(c);
      return;
    }
    if (c->woff == c->wbuf.size()) {
      c->wbuf.clear();
      c->woff = 0;
      clear_write_stall(c);
    } else {
      if (c->woff > kCompactThreshold) {
        c->wbuf.erase(c->wbuf.begin(),
                      c->wbuf.begin() + static_cast<std::ptrdiff_t>(c->woff));
        c->woff = 0;
      }
      if (c->write_stall_start == Clock::time_point{}) {
        c->write_stall_start = Clock::now();
        write_stalls_counter().inc();
        write_stalled_gauge().add(1);
      }
    }
  }

  void parse_frames(const std::shared_ptr<Conn>& c) {
    while (!c->dead) {
      if (should_pause(*c)) {
        break;
      }
      const std::size_t avail = c->rbuf.size() - c->roff;
      if (avail < 4) {
        break;
      }
      const std::uint32_t len = frame_len(c->rbuf.data() + c->roff);
      if (len > kMaxFrameSize) {
        close_conn(c);  // an unreadable frame: drop the peer
        return;
      }
      if (avail - 4 < len) {
        break;
      }
      frames_in_counter().inc();
      bytes_in_counter().inc(len + 4);
      Bytes req(c->rbuf.begin() + static_cast<std::ptrdiff_t>(c->roff + 4),
                c->rbuf.begin() +
                    static_cast<std::ptrdiff_t>(c->roff + 4 + len));
      c->roff += 4 + len;
      dispatch(c, std::move(req));
    }
    if (c->dead) {
      return;
    }
    if (c->roff == c->rbuf.size()) {
      c->rbuf.clear();
      c->roff = 0;
    } else if (c->roff > kCompactThreshold) {
      c->rbuf.erase(c->rbuf.begin(),
                    c->rbuf.begin() + static_cast<std::ptrdiff_t>(c->roff));
      c->roff = 0;
    }
    set_paused(c, should_pause(*c));
    update_interest(c);
  }

  void on_readable(const std::shared_ptr<Conn>& c) {
    std::uint8_t buf[65536];
    while (!c->dead && !c->paused && !c->rd_eof) {
      const ssize_t n = ::recv(c->fd, buf, sizeof(buf), 0);
      if (n > 0) {
        append(c->rbuf, BytesView(buf, static_cast<std::size_t>(n)));
        c->last_activity = Clock::now();
        parse_frames(c);
        if (static_cast<std::size_t>(n) < sizeof(buf)) {
          // Drained for now. epoll is level-triggered, so anything that
          // arrives later reports the fd again: no recv to see EAGAIN.
          break;
        }
        continue;
      }
      if (n == 0) {
        c->rd_eof = true;
        break;
      }
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      resets_counter().inc();
      close_conn(c);
      return;
    }
    if (c->dead) {
      return;
    }
    maybe_close_drained(c);
    if (!c->dead) {
      update_interest(c);
    }
  }

  void on_writable(const std::shared_ptr<Conn>& c) {
    try_write(c);
    if (c->dead) {
      return;
    }
    // Draining the write buffer can lift slow-reader backpressure.
    if (c->paused && !should_pause(*c)) {
      set_paused(c, false);
      parse_frames(c);
      if (c->dead) {
        return;
      }
    }
    maybe_close_drained(c);
    if (!c->dead) {
      update_interest(c);
    }
  }

  /// Soonest idle/write-stall deadline across owned connections, as a
  /// poll timeout in ms (-1 = none).
  int next_timeout_ms() const {
    const int idle_ms = server_->opts_.idle_timeout_ms;
    const int io_ms = server_->opts_.io_timeout_ms;
    bool any = false;
    Clock::time_point earliest{};
    auto fold = [&](Clock::time_point t) {
      if (!any || t < earliest) {
        earliest = t;
        any = true;
      }
    };
    for (const auto& [fd, c] : conns_) {
      (void)fd;
      if (idle_ms >= 0 && c->slots.empty() && pending_write(*c) == 0) {
        fold(c->last_activity + std::chrono::milliseconds(idle_ms));
      }
      if (io_ms >= 0 && pending_write(*c) > 0 &&
          c->write_stall_start != Clock::time_point{}) {
        fold(c->write_stall_start + std::chrono::milliseconds(io_ms));
      }
    }
    if (!any) {
      return -1;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          earliest - Clock::now())
                          .count();
    return static_cast<int>(std::clamp<long long>(left + 1, 0, 60'000));
  }

  void check_deadlines() {
    const int idle_ms = server_->opts_.idle_timeout_ms;
    const int io_ms = server_->opts_.io_timeout_ms;
    if (idle_ms < 0 && io_ms < 0) {
      return;
    }
    const auto now = Clock::now();
    std::vector<std::shared_ptr<Conn>> expired;
    for (const auto& [fd, c] : conns_) {
      (void)fd;
      // A connection with requests in flight is waiting on the handler,
      // not on the peer — only the write-stall clock applies to it.
      if (idle_ms >= 0 && c->slots.empty() && pending_write(*c) == 0 &&
          now - c->last_activity >= std::chrono::milliseconds(idle_ms)) {
        expired.push_back(c);
        continue;
      }
      if (io_ms >= 0 && pending_write(*c) > 0 &&
          c->write_stall_start != Clock::time_point{} &&
          now - c->write_stall_start >= std::chrono::milliseconds(io_ms)) {
        expired.push_back(c);
      }
    }
    for (const auto& c : expired) {
      timeouts_counter().inc();
      close_conn(c);
    }
  }

  void loop() {
    t_current_worker_shared = shared_.get();
    std::vector<Poller::Ev> evs;
    for (;;) {
      poller_.wait(evs, next_timeout_ms());
      reactor_loops_counter().inc();
      // Before the queues are swapped below, so a wake written after the
      // swap stays pending for the next pass.
      if (std::any_of(evs.begin(), evs.end(),
                      [](const Poller::Ev& ev) { return ev.ud == nullptr; })) {
        drain_wake();
      }
      bool stop = false;
      std::vector<int> incoming;
      std::vector<Completion> comps;
      {
        std::lock_guard<std::mutex> lock(shared_->mu);
        stop = shared_->stop;
        incoming.swap(shared_->incoming);
        comps.swap(shared_->completions);
      }
      if (stop) {
        for (int fd : incoming) {
          ::close(fd);
          server_->on_connection_closed();
        }
        break;
      }
      for (int fd : incoming) {
        adopt(fd);
      }
      for (const Poller::Ev& ev : evs) {
        if (ev.ud == nullptr) {
          continue;  // wake pipe, drained above
        }
        Conn* raw = static_cast<Conn*>(ev.ud);
        const auto it = conns_.find(raw->fd);
        if (it == conns_.end() || it->second.get() != raw) {
          continue;
        }
        const std::shared_ptr<Conn> c = it->second;
        if (ev.writable) {
          on_writable(c);
        }
        if (ev.readable && !c->dead) {
          on_readable(c);
        }
      }
      for (Completion& comp : comps) {
        complete(comp.conn.lock(), comp.seq, std::move(comp.resp));
      }
      check_deadlines();
    }
    // Teardown: close every owned connection, then cut off late Respond
    // and add_connection calls.
    std::vector<std::shared_ptr<Conn>> remaining;
    remaining.reserve(conns_.size());
    for (const auto& [fd, c] : conns_) {
      (void)fd;
      remaining.push_back(c);
    }
    for (const auto& c : remaining) {
      close_conn(c);
    }
    std::vector<int> late;
    {
      std::lock_guard<std::mutex> lock(shared_->mu);
      shared_->closed = true;
      shared_->wake_fd = -1;
      shared_->owner = nullptr;
      late.swap(shared_->incoming);
      shared_->completions.clear();
    }
    for (int fd : late) {
      ::close(fd);
      server_->on_connection_closed();
    }
    t_current_worker_shared = nullptr;
  }

  TcpServer* server_;
  std::shared_ptr<Shared> shared_;
  std::thread thread_;
  int wake_r_ = -1;
  int wake_w_ = -1;
  Poller poller_;
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;
};

// ---- TcpServer -------------------------------------------------------------

TcpServer::TcpServer(AsyncHandler handler, Options opts)
    : handler_(std::move(handler)), opts_(opts) {}

Status TcpServer::start(std::uint16_t port) {
  const auto fail = [](const char* what) {
    return Status(Errc::kIoError, std::string("tcp: server start failed: ") +
                                      what + ": " + std::strerror(errno));
  };
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return fail("socket()");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return fail("bind()");
  }
  if (::listen(listen_fd_, opts_.backlog) != 0) {
    return fail("listen()");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }
  std::size_t n = opts_.io_workers;
  if (n == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    n = std::min<std::size_t>(4, std::max(1u, hw));
  }
  n = std::max<std::size_t>(1, std::min(n, opts_.max_workers));
  for (std::size_t i = 0; i < n; ++i) {
    auto w = std::make_unique<IOWorker>(this);
    if (!w->start()) {
      return fail("io worker start");
    }
    workers_.push_back(std::move(w));
  }
  obs::Registry::instance()
      .gauge("fgad_net_reactor_io_workers")
      .set(static_cast<std::int64_t>(workers_.size()));
  accept_thread_ = std::thread([this] { accept_loop(); });
  return Status::ok();
}

Result<std::unique_ptr<TcpServer>> TcpServer::create(std::uint16_t port,
                                                     AsyncHandler handler,
                                                     Options opts) {
  std::unique_ptr<TcpServer> server(new TcpServer(std::move(handler), opts));
  if (auto st = server->start(port); !st) {
    return st.error();
  }
  return server;
}

Result<std::unique_ptr<TcpServer>> TcpServer::create(std::uint16_t port,
                                                     Handler handler,
                                                     Options opts) {
  // Runs inline on the owning event loop: the response completes before
  // the next frame of that connection is parsed.
  AsyncHandler inline_handler = [h = std::move(handler)](Bytes req,
                                                         Respond respond) {
    respond(h(BytesView(req)));
  };
  return create(port, std::move(inline_handler), opts);
}

Result<std::unique_ptr<TcpServer>> TcpServer::create(std::uint16_t port,
                                                     Handler handler) {
  return create(port, std::move(handler), Options{});
}

TcpServer::~TcpServer() {
  stop();
}

std::size_t TcpServer::active_workers() const {
  std::lock_guard<std::mutex> lock(conn_mu_);
  return active_;
}

std::size_t TcpServer::peak_workers() const {
  std::lock_guard<std::mutex> lock(conn_mu_);
  return peak_;
}

void TcpServer::on_connection_closed() {
  std::lock_guard<std::mutex> lock(conn_mu_);
  if (active_ > 0) {
    --active_;
  }
  active_workers_gauge().set(static_cast<std::int64_t>(active_));
  reactor_connections_gauge().set(static_cast<std::int64_t>(active_));
  conn_cv_.notify_all();
}

void TcpServer::accept_loop() {
  std::size_t next_worker = 0;
  for (;;) {
    {
      // Backpressure: at the connection bound, stop accepting — the
      // kernel backlog queues (and eventually refuses) the overflow.
      std::unique_lock<std::mutex> lock(conn_mu_);
      conn_cv_.wait(lock, [this] {
        return stopping_.load() || active_ < opts_.max_workers;
      });
      if (stopping_.load()) {
        return;
      }
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) {
        return;
      }
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
          errno == EWOULDBLOCK) {
        continue;
      }
      if (errno == EBADF || errno == EINVAL) {
        return;  // listener shut down
      }
      // Transient resource exhaustion (EMFILE/ENFILE/ENOBUFS/ENOMEM) or
      // an unexpected errno: the listener stays alive. Back off so the
      // loop does not spin while the process is out of fds; connections
      // already in the backlog are picked up as soon as one frees up.
      accept_backoffs_counter().inc();
      std::unique_lock<std::mutex> lock(conn_mu_);
      conn_cv_.wait_for(lock, std::chrono::milliseconds(50),
                        [this] { return stopping_.load(); });
      continue;
    }
    set_nodelay(fd);
    if (!set_nonblocking(fd)) {
      ::close(fd);
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      if (stopping_.load()) {
        ::close(fd);
        return;
      }
      ++active_;
      peak_ = std::max(peak_, active_);
      accepts_counter().inc();
      active_workers_gauge().set(static_cast<std::int64_t>(active_));
      reactor_connections_gauge().set(static_cast<std::int64_t>(active_));
      peak_workers_gauge().set(static_cast<std::int64_t>(peak_));
    }
    workers_[next_worker % workers_.size()]->add_connection(fd);
    ++next_worker;
  }
}

void TcpServer::stop() {
  if (stopping_.exchange(true)) {
    return;
  }
  {
    // Wake the accept loop if it is parked on the backpressure condition
    // or in an exhaustion backoff.
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn_cv_.notify_all();
  }
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);  // unblocks accept(2)
  }
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& w : workers_) {
    w->request_stop();
  }
  for (auto& w : workers_) {
    w->join();
  }
  workers_.clear();
  std::lock_guard<std::mutex> lock(conn_mu_);
  active_ = 0;
  active_workers_gauge().set(0);
  reactor_connections_gauge().set(0);
}

}  // namespace fgad::net
