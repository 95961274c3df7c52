#include "obs/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/stitch.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace fgad::obs {

namespace {

/// Blocking-with-timeout read of one byte chunk; false on error/timeout.
bool read_some(int fd, std::string& buf, int timeout_ms) {
  pollfd p{fd, POLLIN, 0};
  const int rc = ::poll(&p, 1, timeout_ms);
  if (rc <= 0) {
    return false;
  }
  char tmp[2048];
  const ssize_t r = ::recv(fd, tmp, sizeof(tmp), 0);
  if (r <= 0) {
    return false;
  }
  buf.append(tmp, static_cast<std::size_t>(r));
  return true;
}

bool write_all(int fd, const std::string& data, int timeout_ms) {
  std::size_t off = 0;
  while (off < data.size()) {
    pollfd p{fd, POLLOUT, 0};
    if (::poll(&p, 1, timeout_ms) <= 0) {
      return false;
    }
    const ssize_t w =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (w <= 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      return false;
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

std::string http_response(int code, const char* status,
                          const char* content_type, const std::string& body) {
  std::string out = "HTTP/1.1 " + std::to_string(code) + " " + status +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

/// Value of `key=` in a query string ("" when absent).
std::string query_param(const std::string& query, const char* key) {
  const std::string prefix = std::string(key) + "=";
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t end = query.find('&', pos);
    if (end == std::string::npos) {
      end = query.size();
    }
    if (query.compare(pos, prefix.size(), prefix) == 0) {
      return query.substr(pos + prefix.size(), end - pos - prefix.size());
    }
    pos = end + 1;
  }
  return "";
}

/// One-shot HTTP GET against a peer metrics endpoint; "" on any error.
/// Used by the stitched-trace path to fetch the follower's /clock and
/// /trace.json — plain blocking sockets with a short budget so a dead
/// peer degrades the response to local-only instead of hanging it.
std::string peer_http_get(const std::string& host, std::uint16_t port,
                          const std::string& path, int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return "";
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return "";
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + path + " HTTP/1.1\r\nHost: " + host +
                          "\r\nConnection: close\r\n\r\n";
  if (!write_all(fd, req, timeout_ms)) {
    ::close(fd);
    return "";
  }
  std::string resp;
  while (read_some(fd, resp, timeout_ms)) {
    if (resp.size() > 16 * 1024 * 1024) {
      break;  // runaway peer
    }
  }
  ::close(fd);
  if (resp.find("HTTP/1.1 200") != 0) {
    return "";
  }
  const std::size_t body = resp.find("\r\n\r\n");
  return body == std::string::npos ? "" : resp.substr(body + 4);
}

/// Estimates (peer_clock - local_clock) from a few /clock round trips;
/// invalid when the peer is unreachable.
OffsetEstimate sample_peer_offset(const std::string& host,
                                  std::uint16_t port, int timeout_ms) {
  std::vector<ClockSample> samples;
  for (int i = 0; i < 5; ++i) {
    ClockSample s;
    s.local_send_ns = now_ns();
    const std::string body = peer_http_get(host, port, "/clock", timeout_ms);
    s.local_recv_ns = now_ns();
    const std::size_t pos = body.find("\"now_ns\":");
    if (pos == std::string::npos) {
      continue;
    }
    s.peer_ns = std::strtoull(body.c_str() + pos + 9, nullptr, 10);
    samples.push_back(s);
  }
  return best_offset(samples);
}

/// "60", "60s", "5m", "1h" -> seconds; fallback on empty/garbage.
std::uint64_t parse_window_s(const std::string& v, std::uint64_t fallback) {
  if (v.empty()) {
    return fallback;
  }
  char* end = nullptr;
  const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
  if (end == v.c_str() || n == 0) {
    return fallback;
  }
  std::uint64_t mult = 1;
  if (*end == 'm') {
    mult = 60;
  } else if (*end == 'h') {
    mult = 3600;
  }
  return static_cast<std::uint64_t>(n) * mult;
}

}  // namespace

Result<std::unique_ptr<MetricsHttpServer>> MetricsHttpServer::create(
    std::uint16_t port, Options opts) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Error(Errc::kIoError, "metrics http: socket() failed");
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 8) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    return Error(Errc::kIoError, "metrics http: bind/listen failed: " + why);
  }
  socklen_t len = sizeof(addr);
  std::uint16_t bound = port;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    bound = ntohs(addr.sin_port);
  }
  return std::unique_ptr<MetricsHttpServer>(
      new MetricsHttpServer(fd, bound, opts));
}

MetricsHttpServer::MetricsHttpServer(int listen_fd, std::uint16_t port,
                                     Options opts)
    : listen_fd_(listen_fd), port_(port), opts_(opts) {
  thread_ = std::thread([this] { serve_loop(); });
}

MetricsHttpServer::~MetricsHttpServer() { stop(); }

void MetricsHttpServer::set_stitch_peer(const std::string& host,
                                        std::uint16_t port) {
  std::lock_guard<std::mutex> lock(stitch_mu_);
  stitch_host_ = host;
  stitch_port_ = port;
}

void MetricsHttpServer::stop() {
  if (stopping_.exchange(true)) {
    return;
  }
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (thread_.joinable()) {
    thread_.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void MetricsHttpServer::serve_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR && !stopping_.load()) {
        continue;
      }
      return;  // listener shut down
    }
    serve_one(fd);
    ::close(fd);
  }
}

void MetricsHttpServer::serve_one(int fd) {
  static Counter& requests =
      Registry::instance().counter("fgad_metrics_http_requests_total");
  // Read until the end of the request head; bodies are ignored (GET only).
  std::string req;
  while (req.find("\r\n\r\n") == std::string::npos) {
    if (req.size() > 8192 || !read_some(fd, req, opts_.io_timeout_ms)) {
      return;
    }
  }
  requests.inc();
  // Request line: METHOD SP PATH SP VERSION.
  const std::size_t m_end = req.find(' ');
  const std::size_t p_end =
      m_end == std::string::npos ? std::string::npos : req.find(' ', m_end + 1);
  if (m_end == std::string::npos || p_end == std::string::npos) {
    write_all(fd, http_response(400, "Bad Request", "text/plain", "bad\n"),
              opts_.io_timeout_ms);
    return;
  }
  const std::string method = req.substr(0, m_end);
  std::string path = req.substr(m_end + 1, p_end - m_end - 1);
  std::string query;
  if (const std::size_t q = path.find('?'); q != std::string::npos) {
    query = path.substr(q + 1);
    path.resize(q);
  }
  if (method != "GET") {
    write_all(fd,
              http_response(405, "Method Not Allowed", "text/plain",
                            "GET only\n"),
              opts_.io_timeout_ms);
    return;
  }
  std::string resp;
  if (path == "/metrics") {
    FlightRecorder::instance().publish_metrics();
    resp = http_response(200, "OK", "text/plain; version=0.0.4",
                         Registry::instance().render_text());
  } else if (path == "/metrics.json") {
    FlightRecorder::instance().publish_metrics();
    resp = http_response(200, "OK", "application/json",
                         Registry::instance().render_json());
  } else if (path == "/flightrecorder.json") {
    resp = http_response(200, "OK", "application/json",
                         FlightRecorder::instance().render_json());
  } else if (path == "/traces.json") {
    std::string body = "{\"rids\":[";
    bool first = true;
    for (std::uint64_t rid : TraceStore::instance().rids()) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s\"%016" PRIx64 "\"",
                    first ? "" : ",", rid);
      body += buf;
      first = false;
    }
    body += "]}";
    resp = http_response(200, "OK", "application/json", body);
  } else if (path == "/clock") {
    // Steady-clock probe for NTP-style peer offset estimation
    // (obs/stitch.h). Kept tiny so the RTT — the estimate's error bound
    // — is dominated by the network, not rendering.
    char buf[48];
    std::snprintf(buf, sizeof(buf), "{\"now_ns\":%llu}",
                  static_cast<unsigned long long>(now_ns()));
    resp = http_response(200, "OK", "application/json", buf);
  } else if (path == "/trace.json") {
    // /trace.json?rid=<16-hex-digit id from /traces.json or a CLI trace>
    // With a stitch peer configured, the peer's segment for the same rid
    // is fetched (&local=1 stops it from stitching in turn) and merged
    // skew-corrected into the local document, one pid lane per process.
    std::uint64_t rid = 0;
    const std::string rid_hex = query_param(query, "rid");
    if (!rid_hex.empty()) {
      rid = std::strtoull(rid_hex.c_str(), nullptr, 16);
    }
    std::string body = TraceStore::instance().get(rid);
    std::string peer_host;
    std::uint16_t peer_port = 0;
    {
      std::lock_guard<std::mutex> lock(stitch_mu_);
      peer_host = stitch_host_;
      peer_port = stitch_port_;
    }
    if (!body.empty() && peer_port != 0 &&
        query_param(query, "local").empty()) {
      const OffsetEstimate off =
          sample_peer_offset(peer_host, peer_port, opts_.io_timeout_ms);
      const std::string peer_doc = peer_http_get(
          peer_host, peer_port, "/trace.json?rid=" + rid_hex + "&local=1",
          opts_.io_timeout_ms);
      if (off.valid && !peer_doc.empty()) {
        body = trace_stitch(body, peer_doc, off.offset_ns, /*pid_delta=*/1);
      }
    }
    resp = body.empty()
               ? http_response(404, "Not Found", "text/plain",
                               "no trace for that rid\n")
               : http_response(200, "OK", "application/json", body);
  } else if (path == "/vars.json") {
    // Windowed view of every instrument plus the SLO tracker's burn
    // rates, spliced into one document: {...,"slo":{...}}.
    const std::uint64_t window_s =
        parse_window_s(query_param(query, "window"), 60);
    std::string body = WindowedRegistry::instance().render_vars_json(window_s);
    if (!body.empty() && body.back() == '}') {
      body.pop_back();
      body += ",\"slo\":" + SloTracker::instance().render_json() + "}";
    }
    resp = http_response(200, "OK", "application/json", body);
  } else if (path == "/healthz") {
    // Pure liveness: the process is up and the serve loop is turning.
    resp = http_response(200, "OK", "text/plain", "ok\n");
  } else if (path == "/readyz") {
    // Readiness: 503 with reasons while recovery replay, a shutdown
    // checkpoint, or sustained SLO overload blocks serving.
    Readiness& r = Readiness::instance();
    std::string body = r.render_json();
    // Replicated nodes splice in role/term/lag so an operator (or the
    // failover smoke harness) can tell primary from backup with one
    // probe. Keyed on the gauge's *existence* — a non-replicated server
    // never registers it and keeps the plain document.
    const Gauge* role = nullptr;
    const Gauge* term = nullptr;
    const Gauge* lag_bytes = nullptr;
    const Gauge* lag_records = nullptr;
    for (const auto& [name, g] : Registry::instance().all_gauges()) {
      if (name == "fgad_repl_role") role = g;
      else if (name == "fgad_repl_term") term = g;
      else if (name == "fgad_repl_lag_bytes") lag_bytes = g;
      else if (name == "fgad_repl_lag_records") lag_records = g;
    }
    if (role != nullptr && !body.empty() && body.back() == '}') {
      body.pop_back();
      body += std::string(",\"repl\":{\"role\":\"") +
              (role->value() != 0 ? "primary" : "backup") +
              "\",\"term\":" + std::to_string(term ? term->value() : 0) +
              ",\"lag_bytes\":" +
              std::to_string(lag_bytes ? lag_bytes->value() : 0) +
              ",\"lag_records\":" +
              std::to_string(lag_records ? lag_records->value() : 0) + "}}";
    }
    resp = r.ready()
               ? http_response(200, "OK", "application/json", body)
               : http_response(503, "Service Unavailable", "application/json",
                               body);
  } else {
    resp = http_response(404, "Not Found", "text/plain", "not found\n");
  }
  write_all(fd, resp, opts_.io_timeout_ms);
}

}  // namespace fgad::obs
