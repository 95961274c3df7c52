// Minimal HTTP/1.1 endpoint exposing the metrics registry:
//
//   GET /metrics       -> text/plain Prometheus-style exposition
//   GET /metrics.json  -> application/json
//   GET /vars.json     -> windowed rates/quantiles + SLO burn rates
//                         (?window=60s|5m|1h; DESIGN.md §17)
//   GET /healthz       -> liveness: always "ok\n" while the process runs
//   GET /readyz        -> readiness: 503 + JSON reasons during recovery
//                         replay, shutdown checkpoint, or SLO overload
//   GET /clock         -> {"now_ns":N} on this process's steady clock —
//                         the peer-offset sampling target (DESIGN.md §19)
//   GET /trace.json    -> ?rid=<hex>[&local=1]: the rid's captured span
//                         document; with a stitch peer configured (and
//                         no local=1), the peer's segment is fetched and
//                         merged in skew-corrected
//
// One accept thread, one connection at a time, Connection: close. This is
// an operator scrape target on loopback, not a web server; the framed RPC
// port stays separate (net::TcpServer speaks length-prefixed frames, not
// HTTP).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/result.h"

namespace fgad::obs {

class MetricsHttpServer {
 public:
  struct Options {
    int io_timeout_ms = 5000;  // per-connection read/write budget
  };

  /// Binds 127.0.0.1:port (0 = ephemeral; see port()) and starts serving.
  static Result<std::unique_ptr<MetricsHttpServer>> create(std::uint16_t port,
                                                           Options opts);
  static Result<std::unique_ptr<MetricsHttpServer>> create(std::uint16_t port) {
    return create(port, Options{});
  }

  ~MetricsHttpServer();
  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  std::uint16_t port() const { return port_; }
  void stop();

  /// Names a peer metrics endpoint (the replication follower's) whose
  /// trace segments GET /trace.json?rid= stitches into this node's
  /// document: the handler samples the peer's GET /clock for a skew
  /// estimate, fetches the peer's segment with &local=1 (which suppresses
  /// recursive stitching), and merges it skew-corrected (DESIGN.md §19).
  void set_stitch_peer(const std::string& host, std::uint16_t port);

 private:
  MetricsHttpServer(int listen_fd, std::uint16_t port, Options opts);
  void serve_loop();
  void serve_one(int fd);

  int listen_fd_;
  std::uint16_t port_;
  Options opts_;
  std::atomic<bool> stopping_{false};
  mutable std::mutex stitch_mu_;
  std::string stitch_host_;
  std::uint16_t stitch_port_ = 0;
  std::thread thread_;
};

}  // namespace fgad::obs
