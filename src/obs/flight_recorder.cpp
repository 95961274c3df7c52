#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.h"

namespace fgad::obs {

namespace {

// ---- async-signal-safe formatting ------------------------------------------
//
// The crash path cannot use stdio or allocate, so dump lines are built
// with these helpers into stack buffers and written with write(2).

std::size_t fmt_str(char* out, std::size_t cap, const char* s) {
  std::size_t n = 0;
  while (s[n] != '\0' && n + 1 < cap) {
    out[n] = s[n];
    ++n;
  }
  out[n] = '\0';
  return n;
}

std::size_t fmt_u64_dec(char* out, std::size_t cap, std::uint64_t v) {
  char tmp[24];
  std::size_t len = 0;
  do {
    tmp[len++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  std::size_t n = 0;
  while (len > 0 && n + 1 < cap) {
    out[n++] = tmp[--len];
  }
  out[n] = '\0';
  return n;
}

std::size_t fmt_u64_hex16(char* out, std::size_t cap, std::uint64_t v) {
  static const char kHex[] = "0123456789abcdef";
  std::size_t n = 0;
  for (int shift = 60; shift >= 0 && n + 1 < cap; shift -= 4) {
    out[n++] = kHex[(v >> shift) & 0xf];
  }
  out[n] = '\0';
  return n;
}

/// Appends into a bounded line buffer; silently truncates when full.
struct LineBuf {
  char buf[320];
  std::size_t len = 0;

  void str(const char* s) { len += fmt_str(buf + len, sizeof(buf) - len, s); }
  void dec(std::uint64_t v) {
    len += fmt_u64_dec(buf + len, sizeof(buf) - len, v);
  }
  void hex(std::uint64_t v) {
    len += fmt_u64_hex16(buf + len, sizeof(buf) - len, v);
  }
  void write_to(int fd) {
    std::size_t off = 0;
    while (off < len) {
      const ssize_t n = ::write(fd, buf + off, len - off);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) {
          continue;
        }
        return;
      }
      off += static_cast<std::size_t>(n);
    }
  }
};

std::uint64_t wall_clock_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace

const char* fr_event_name(FrEvent e) {
  switch (e) {
    case FrEvent::kRpcStart:
      return "rpc-start";
    case FrEvent::kRpcEnd:
      return "rpc-end";
    case FrEvent::kWalAppend:
      return "wal-append";
    case FrEvent::kWalFsync:
      return "wal-fsync";
    case FrEvent::kCheckpointBegin:
      return "checkpoint-begin";
    case FrEvent::kCheckpointCommit:
      return "checkpoint-commit";
    case FrEvent::kRecoveryBegin:
      return "recovery-begin";
    case FrEvent::kRecoveryEnd:
      return "recovery-end";
    case FrEvent::kRetryDial:
      return "retry-dial";
    case FrEvent::kRetryResend:
      return "retry-resend";
    case FrEvent::kRetryExhausted:
      return "retry-exhausted";
    case FrEvent::kFaultInjected:
      return "fault-injected";
    case FrEvent::kCrashPoint:
      return "crash-point";
    case FrEvent::kFsckFail:
      return "fsck-fail";
    case FrEvent::kDedupHit:
      return "dedup-hit";
    case FrEvent::kMark:
      return "mark";
    case FrEvent::kGroupCommitFlush:
      return "group-commit";
    case FrEvent::kSloBreach:
      return "slo-breach";
    case FrEvent::kReplShip:
      return "repl-ship";
    case FrEvent::kReplSnapshotShip:
      return "repl-snapshot";
    case FrEvent::kReplRoleChange:
      return "repl-role-change";
    case FrEvent::kSpanDropped:
      return "span-dropped";
  }
  return "unknown";
}

// ---- ring storage ----------------------------------------------------------

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder fr;
  return fr;
}

namespace {

/// Retired rings stay reachable until process exit so a writer that
/// raced a configure() never touches freed memory (and LeakSanitizer
/// sees them as live).
std::mutex& retired_mu() {
  static std::mutex mu;
  return mu;
}

}  // namespace

FlightRecorder::FlightRecorder() { configure(kDefaultCapacity); }

void FlightRecorder::configure(std::size_t capacity) {
  std::size_t cap = 8;
  while (cap < capacity && cap < (std::size_t{1} << 28)) {
    cap <<= 1;
  }
  auto* ring = new Ring(cap);
  // Every ring ever allocated stays reachable here until process exit so
  // a writer that raced this configure() never touches freed memory
  // (and LeakSanitizer sees them as live).
  static std::vector<Ring*>* rings = new std::vector<Ring*>();
  {
    std::lock_guard<std::mutex> lock(retired_mu());
    rings->push_back(ring);
  }
  ring_.store(ring, std::memory_order_release);
  next_.store(0, std::memory_order_release);
}

Status FlightRecorder::set_dump_dir(const std::string& dir) {
  if (dir.size() >= kMaxDumpDir) {
    return Status(Errc::kInvalidArgument, "flight recorder dir too long");
  }
  dump_dir_len_.store(0, std::memory_order_release);
  for (std::size_t i = 0; i < dir.size(); ++i) {
    dump_dir_[i] = dir[i];
  }
  dump_dir_[dir.size()] = '\0';
  dump_dir_len_.store(dir.size(), std::memory_order_release);
  return Status::ok();
}

void FlightRecorder::record(FrEvent type, std::uint64_t rid, std::uint64_t a,
                            std::uint64_t b) {
  Ring* ring = ring_.load(std::memory_order_acquire);
  if (ring == nullptr) {
    return;
  }
  const std::uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& s = ring->slots[seq & ring->mask];
  s.pub.store(0, std::memory_order_relaxed);  // invalidate during rewrite
  // Orders the invalidation before the payload stores, so a reader that
  // re-checks pub after copying the payload sees any rewrite it overlapped.
  std::atomic_thread_fence(std::memory_order_release);
  s.ts_ns.store(now_ns(), std::memory_order_relaxed);
  s.rid.store(rid, std::memory_order_relaxed);
  s.a.store(a, std::memory_order_relaxed);
  s.b.store(b, std::memory_order_relaxed);
  s.type.store(static_cast<std::uint16_t>(type), std::memory_order_relaxed);
  s.pub.store(seq + 1, std::memory_order_release);
}

std::size_t FlightRecorder::capacity() const {
  Ring* ring = ring_.load(std::memory_order_acquire);
  return ring == nullptr ? 0 : ring->mask + 1;
}

std::uint64_t FlightRecorder::recorded() const {
  return next_.load(std::memory_order_acquire);
}

std::uint64_t FlightRecorder::dropped() const {
  const std::uint64_t n = recorded();
  const std::uint64_t cap = capacity();
  return n > cap ? n - cap : 0;
}

std::vector<FlightRecorder::Event> FlightRecorder::snapshot() const {
  std::vector<Event> out;
  Ring* ring = ring_.load(std::memory_order_acquire);
  if (ring == nullptr) {
    return out;
  }
  const std::uint64_t n = next_.load(std::memory_order_acquire);
  const std::uint64_t cap = ring->mask + 1;
  const std::uint64_t start = n > cap ? n - cap : 0;
  out.reserve(static_cast<std::size_t>(n - start));
  for (std::uint64_t seq = start; seq < n; ++seq) {
    const Slot& s = ring->slots[seq & ring->mask];
    if (s.pub.load(std::memory_order_acquire) != seq + 1) {
      continue;  // torn by a racing writer (or overwritten mid-scan)
    }
    Event e;
    e.seq = seq;
    e.ts_ns = s.ts_ns.load(std::memory_order_relaxed);
    e.rid = s.rid.load(std::memory_order_relaxed);
    e.a = s.a.load(std::memory_order_relaxed);
    e.b = s.b.load(std::memory_order_relaxed);
    e.type = static_cast<FrEvent>(s.type.load(std::memory_order_relaxed));
    // A writer lapping the ring may have rewritten the slot mid-copy.
    std::atomic_thread_fence(std::memory_order_acquire);
    if (s.pub.load(std::memory_order_relaxed) != seq + 1) {
      continue;
    }
    out.push_back(e);
  }
  return out;
}

void FlightRecorder::dump_fd(int fd, const char* reason) const {
  Ring* ring = ring_.load(std::memory_order_acquire);
  const std::uint64_t n = next_.load(std::memory_order_acquire);
  const std::uint64_t cap = ring == nullptr ? 0 : ring->mask + 1;
  const std::uint64_t start = n > cap ? n - cap : 0;
  {
    LineBuf h;
    h.str("# fgad-flight-recorder v1 reason=");
    h.str(reason);
    h.str(" pid=");
    h.dec(static_cast<std::uint64_t>(::getpid()));
    h.str(" recorded=");
    h.dec(n);
    h.str(" dropped=");
    h.dec(n > cap ? n - cap : 0);
    h.str(" capacity=");
    h.dec(cap);
    h.str("\n");
    h.write_to(fd);
  }
  if (ring == nullptr) {
    return;
  }
  for (std::uint64_t seq = start; seq < n; ++seq) {
    const Slot& s = ring->slots[seq & ring->mask];
    if (s.pub.load(std::memory_order_acquire) != seq + 1) {
      continue;
    }
    LineBuf l;
    l.str("seq=");
    l.dec(seq);
    l.str(" ts_ns=");
    l.dec(s.ts_ns.load(std::memory_order_relaxed));
    l.str(" type=");
    l.str(fr_event_name(
        static_cast<FrEvent>(s.type.load(std::memory_order_relaxed))));
    l.str(" rid=");
    l.hex(s.rid.load(std::memory_order_relaxed));
    l.str(" a=");
    l.dec(s.a.load(std::memory_order_relaxed));
    l.str(" b=");
    l.dec(s.b.load(std::memory_order_relaxed));
    l.str("\n");
    l.write_to(fd);
  }
}

bool FlightRecorder::dump_to_path(const char* path, const char* reason) const {
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return false;
  }
  dump_fd(fd, reason);
  ::close(fd);
  return true;
}

bool FlightRecorder::dump_auto(const char* reason, char* path_out,
                               std::size_t path_cap) const {
  const std::size_t dir_len = dump_dir_len_.load(std::memory_order_acquire);
  if (dir_len == 0) {
    return false;
  }
  char path[kMaxDumpDir + 128];
  std::size_t n = 0;
  for (std::size_t i = 0; i < dir_len; ++i) {
    path[n++] = dump_dir_[i];
  }
  n += fmt_str(path + n, sizeof(path) - n, "/flightrecorder-");
  n += fmt_str(path + n, sizeof(path) - n, reason);
  n += fmt_str(path + n, sizeof(path) - n, "-");
  n += fmt_u64_dec(path + n, sizeof(path) - n,
                   static_cast<std::uint64_t>(::getpid()));
  n += fmt_str(path + n, sizeof(path) - n, "-");
  n += fmt_u64_dec(path + n, sizeof(path) - n, wall_clock_ns());
  n += fmt_str(path + n, sizeof(path) - n, ".dump");
  if (!dump_to_path(path, reason)) {
    return false;
  }
  if (path_out != nullptr && path_cap > 0) {
    fmt_str(path_out, path_cap, path);
  }
  return true;
}

std::string FlightRecorder::render_json() const {
  const std::vector<Event> events = snapshot();
  std::string out = "{\"capacity\":" + std::to_string(capacity()) +
                    ",\"recorded\":" + std::to_string(recorded()) +
                    ",\"dropped\":" + std::to_string(dropped()) +
                    ",\"events\":[";
  bool first = true;
  char hex[20];
  for (const Event& e : events) {
    if (!first) {
      out += ",";
    }
    first = false;
    fmt_u64_hex16(hex, sizeof(hex), e.rid);
    out += "{\"seq\":" + std::to_string(e.seq) +
           ",\"ts_ns\":" + std::to_string(e.ts_ns) + ",\"type\":\"" +
           fr_event_name(e.type) + "\",\"rid\":\"" + hex +
           "\",\"a\":" + std::to_string(e.a) +
           ",\"b\":" + std::to_string(e.b) + "}";
  }
  out += "]}";
  return out;
}

void FlightRecorder::publish_metrics() const {
  Registry& reg = Registry::instance();
  reg.gauge("fgad_flight_recorder_capacity")
      .set(static_cast<std::int64_t>(capacity()));
  reg.gauge("fgad_flight_recorder_recorded")
      .set(static_cast<std::int64_t>(recorded()));
  reg.gauge("fgad_flight_recorder_dropped")
      .set(static_cast<std::int64_t>(dropped()));
}

// ---- crash / on-demand dump signal handlers --------------------------------

namespace {

void log_dump_line(const char* prefix, const char* path) {
  LineBuf l;
  l.str(prefix);
  l.str(path);
  l.str("\n");
  l.write_to(2);
}

void crash_signal_handler(int sig) {
  const char* reason = sig == SIGSEGV  ? "sigsegv"
                       : sig == SIGBUS ? "sigbus"
                       : sig == SIGABRT ? "sigabrt"
                                        : "signal";
  char path[FlightRecorder::kMaxDumpDir + 128];
  if (FlightRecorder::instance().dump_auto(reason, path, sizeof(path))) {
    log_dump_line("flight recorder dump: ", path);
  }
  // Hand the signal back to the default action so the crash still
  // produces a core / the expected termination status.
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

void sigusr2_handler(int) {
  char path[FlightRecorder::kMaxDumpDir + 128];
  if (FlightRecorder::instance().dump_auto("sigusr2", path, sizeof(path))) {
    log_dump_line("flight recorder dump: ", path);
  }
}

}  // namespace

void FlightRecorder::install_crash_handlers() {
  static std::atomic<bool> installed{false};
  if (installed.exchange(true)) {
    return;
  }
  instance();  // force singleton construction outside any signal context
  struct sigaction sa {};
  sa.sa_handler = crash_signal_handler;
  sa.sa_flags = SA_NODEFER;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGSEGV, &sa, nullptr);
  ::sigaction(SIGBUS, &sa, nullptr);
  ::sigaction(SIGABRT, &sa, nullptr);
  struct sigaction su {};
  su.sa_handler = sigusr2_handler;
  su.sa_flags = SA_RESTART;
  sigemptyset(&su.sa_mask);
  ::sigaction(SIGUSR2, &su, nullptr);
}

}  // namespace fgad::obs
