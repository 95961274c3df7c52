// fgad_server — run the cloud side as a standalone TCP daemon.
//
//   fgad_server [--port N] [--no-integrity]
//               [--state-dir DIR] [--checkpoint-every-n N]
//               [--max-connections N] [--io-workers N] [--idle-timeout-ms N]
//               [--metrics-port N] [--audit-log PATH]
//               [--log-level LVL] [--slow-op-ms N]
//               [--flight-recorder-size N] [--flight-recorder-dir DIR]
//               [--trace-capture N]
//
// Listens on 127.0.0.1:N (default 4270; 0 picks an ephemeral port, printed
// on startup). The process runs until stdin reaches EOF or SIGTERM/SIGINT
// arrives; SIGTERM triggers a clean final checkpoint before exit.
//
// Durability (DESIGN.md §13). Without --state-dir the state lives in
// memory only and is gone when the process exits.
//   --state-dir DIR         crash-consistent operation: every mutating RPC
//                           is WAL-logged (fsync before ACK) and the full
//                           image is checkpointed atomically; startup
//                           recovers from the newest valid checkpoint +
//                           WAL tail and runs the fsck invariant verifier
//   --checkpoint-every-n N  mutations between automatic checkpoints
//                           (default 1024; 0 = only on SIGTERM/shutdown)
//   FGAD_CRASH_AT=site[:n]  kill the process (exit 42) the n-th time the
//                           named crash site is reached (before-wal,
//                           after-wal-pre-ack, mid-checkpoint,
//                           post-rename) — crash-recovery test hook
//
// Replication (DESIGN.md §18) — requires --state-dir with the WAL on:
//   --role primary|backup   this node's starting role (default primary).
//                           A backup answers every client RPC with
//                           NOT_PRIMARY and applies its primary's stream
//   --replicate-to H:P      primary only: ship every WAL record to the
//                           backup's RPC port at H:P (the host is
//                           re-resolved on every redial); no client ACK
//                           until the backup's WAL holds the mutation
//   --repl-heartbeat-ms N   idle heartbeat cadence (default 500)
//   SIGHUP                  promote a backup to primary: bumps the
//                           fencing term, checkpoints it durably, starts
//                           serving; the old primary gets STALE_TERM and
//                           demotes itself
//
// Server core (DESIGN.md §15): an epoll reactor with request pipelining.
// --max-connections bounds concurrent connections (overflow queues in the
// listen backlog; --max-workers is the legacy spelling), --io-workers sets
// the number of event-loop threads (0 = auto), and --idle-timeout-ms
// evicts connections with no traffic. With --state-dir, mutations from
// all connections are acknowledged through the cross-connection WAL group
// committer: one fsync covers every mutation staged while the previous
// fsync ran.
//
// Observability (DESIGN.md §12, §17):
//   --metrics-port N   serve GET /metrics, /metrics.json, /vars.json,
//                      /healthz and /readyz on 127.0.0.1:N
//                      (0 = ephemeral, printed on startup)
//   --vars-interval-ms N  time-series rotation interval for /vars.json
//                      windows and SLO burn rates (default 1000; 0
//                      disables windowed telemetry)
//   --slo SPEC         add an SLO objective (repeatable); SPEC is
//                      name:latency:<hist>:<quantile>:<threshold_ns>[:burn],
//                      name:error_ratio:<err>:<total>:<max_rate>[:burn], or
//                      name:gauge_above:<gauge>:<threshold>[:burn]
//   --no-default-slos  start with only the --slo objectives (default: the
//                      stock delete/access p99 + error-ratio +
//                      backpressure set is installed)
//   --audit-log PATH   append the deletion audit log to PATH (default:
//                      stderr)
//   --peer-metrics H:P metrics endpoint of the replication peer; makes
//                      GET /trace.json?rid=... splice the peer's span
//                      segment into the reply, clock-offset corrected
//                      (DESIGN.md §19)
//   --log-level LVL    debug|info|warn|error|off (default info, to stderr)
//   --slow-op-ms N     warn about RPCs slower than N ms (0 disables)
//   SIGUSR1            dump the metrics registry to stderr
//
// Forensics (DESIGN.md §14):
//   --flight-recorder-size N   ring capacity in events (default 4096,
//                              rounded up to a power of two)
//   --flight-recorder-dir DIR  where crash/SIGUSR2 dumps land (default:
//                              the state dir, else ".")
//   --trace-capture N          keep the last N per-request span trees,
//                              served at /trace.json?rid=... (default 0)
//   SIGUSR2                    dump the flight recorder ring to a file
//   SIGSEGV/SIGABRT/SIGBUS     dump the ring on the way down (the dump
//                              path is written to stderr), then re-raise
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cloud/recovery.h"
#include "cloud/replica.h"
#include "cloud/server.h"
#include "mon_util.h"
#include "net/failover.h"
#include "net/tcp.h"
#include "obs/cost.h"
#include "obs/flight_recorder.h"
#include "obs/http.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace {
std::atomic<bool> g_dump_requested{false};
std::atomic<bool> g_terminate{false};
std::atomic<bool> g_promote_requested{false};

void on_sigusr1(int) { g_dump_requested.store(true); }
void on_sigterm(int) { g_terminate.store(true); }
void on_sighup(int) { g_promote_requested.store(true); }
}  // namespace

int main(int argc, char** argv) {
  using namespace fgad;

  std::uint16_t port = 4270;
  bool metrics_enabled = false;
  std::uint16_t metrics_port = 0;
  std::string audit_path;
  std::string log_level = "info";
  int slow_op_ms = 0;
  std::size_t flight_recorder_size = obs::FlightRecorder::kDefaultCapacity;
  std::string flight_recorder_dir;
  std::size_t trace_capture = 0;
  std::uint64_t vars_interval_ms = 1000;
  bool default_slos = true;
  std::vector<std::string> slo_specs;
  std::string peer_metrics;  // "host:port" of the peer's metrics endpoint
  std::string replicate_to;  // "host:port" of the backup's RPC listener
  int repl_heartbeat_ms = 500;
  cloud::CloudServer::Options opts;
  cloud::DurableServer::Options dur_opts;
  net::TcpServer::Options net_opts;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port" && i + 1 < argc) {
      port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
    } else if (arg == "--state-dir" && i + 1 < argc) {
      dur_opts.dir = argv[++i];
    } else if (arg == "--checkpoint-every-n" && i + 1 < argc) {
      dur_opts.checkpoint_every_n =
          std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--no-integrity") {
      opts.enable_integrity = false;
    } else if ((arg == "--max-workers" || arg == "--max-connections") &&
               i + 1 < argc) {
      net_opts.max_workers =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--io-workers" && i + 1 < argc) {
      net_opts.io_workers =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--idle-timeout-ms" && i + 1 < argc) {
      net_opts.idle_timeout_ms = std::atoi(argv[++i]);
    } else if (arg == "--metrics-port" && i + 1 < argc) {
      metrics_enabled = true;
      metrics_port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
    } else if (arg == "--audit-log" && i + 1 < argc) {
      audit_path = argv[++i];
    } else if (arg == "--log-level" && i + 1 < argc) {
      log_level = argv[++i];
    } else if (arg == "--slow-op-ms" && i + 1 < argc) {
      slow_op_ms = std::atoi(argv[++i]);
    } else if (arg == "--flight-recorder-size" && i + 1 < argc) {
      flight_recorder_size =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--flight-recorder-dir" && i + 1 < argc) {
      flight_recorder_dir = argv[++i];
    } else if (arg == "--trace-capture" && i + 1 < argc) {
      trace_capture =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--peer-metrics" && i + 1 < argc) {
      peer_metrics = argv[++i];
    } else if (arg == "--vars-interval-ms" && i + 1 < argc) {
      vars_interval_ms = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--slo" && i + 1 < argc) {
      slo_specs.emplace_back(argv[++i]);
    } else if (arg == "--no-default-slos") {
      default_slos = false;
    } else if (arg == "--role" && i + 1 < argc) {
      const std::string role = argv[++i];
      if (role == "primary") {
        dur_opts.role = cloud::ReplRole::kPrimary;
      } else if (role == "backup") {
        dur_opts.role = cloud::ReplRole::kBackup;
      } else {
        std::fprintf(stderr, "--role must be primary|backup\n");
        return 2;
      }
    } else if (arg == "--replicate-to" && i + 1 < argc) {
      replicate_to = argv[++i];
    } else if (arg == "--repl-heartbeat-ms" && i + 1 < argc) {
      repl_heartbeat_ms = std::atoi(argv[++i]);
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: fgad_server [--port N] [--state-dir DIR]\n"
          "                   [--checkpoint-every-n N]\n"
          "                   [--no-integrity] [--max-connections N] "
          "[--io-workers N] [--idle-timeout-ms N]\n"
          "                   [--metrics-port N] [--audit-log PATH] "
          "[--log-level LVL] [--slow-op-ms N]\n"
          "                   [--flight-recorder-size N] "
          "[--flight-recorder-dir DIR] [--trace-capture N]\n"
          "                   [--vars-interval-ms N] [--slo SPEC]... "
          "[--no-default-slos] [--peer-metrics H:P]\n"
          "                   [--role primary|backup] [--replicate-to H:P] "
          "[--repl-heartbeat-ms N]\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if ((!replicate_to.empty() || dur_opts.role == cloud::ReplRole::kBackup) &&
      dur_opts.dir.empty()) {
    std::fprintf(stderr, "replication requires --state-dir\n");
    return 2;
  }
  if (!replicate_to.empty() && dur_opts.role == cloud::ReplRole::kBackup) {
    std::fprintf(stderr, "--replicate-to is a primary-side flag\n");
    return 2;
  }
  if (!peer_metrics.empty() && !metrics_enabled) {
    std::fprintf(stderr, "--peer-metrics requires --metrics-port\n");
    return 2;
  }

  // Structured logging + deletion audit log. The library defaults to
  // silent; the daemon is where the sinks come alive.
  obs::Logger::instance().set_sink(stderr);
  obs::Logger::instance().set_level(obs::parse_level(log_level));
  obs::Logger::instance().set_slow_op_threshold_ns(
      static_cast<std::uint64_t>(slow_op_ms) * 1000000ull);
  std::FILE* audit_file = nullptr;
  if (audit_path.empty()) {
    obs::AuditLog::instance().set_sink(stderr);
  } else {
    audit_file = std::fopen(audit_path.c_str(), "ae");
    if (audit_file == nullptr) {
      std::fprintf(stderr, "cannot open audit log %s: %s\n",
                   audit_path.c_str(), std::strerror(errno));
      return 1;
    }
    obs::AuditLog::instance().set_sink(audit_file);
  }

  // Forensic flight recorder: ring + crash-signal/SIGUSR2 dump handlers.
  // Configured before the durability layer opens so recovery events land
  // in the ring and a crash during recovery already dumps.
  {
    obs::FlightRecorder& fr = obs::FlightRecorder::instance();
    fr.configure(flight_recorder_size);
    if (flight_recorder_dir.empty()) {
      flight_recorder_dir = dur_opts.dir.empty() ? "." : dur_opts.dir;
    }
    if (auto st = fr.set_dump_dir(flight_recorder_dir); !st) {
      std::fprintf(stderr, "flight recorder dir %s: %s\n",
                   flight_recorder_dir.c_str(), st.to_string().c_str());
      return 2;
    }
    obs::FlightRecorder::install_crash_handlers();
  }
  obs::TraceStore::instance().set_capacity(trace_capture);
  // Per-request cost accounting (DESIGN.md §19) is cheap enough to keep
  // always-on in the daemon: a breakdown is only assembled — and shipped
  // as a server-timing trailer — for V2-tagged requests.
  obs::CostLedger::instance().set_enabled(true);

  // Deterministic crash injection for recovery integration tests.
  if (const char* crash_at = std::getenv("FGAD_CRASH_AT");
      crash_at != nullptr && *crash_at != '\0') {
    if (auto st = cloud::CrashPoint::instance().arm_process_exit(crash_at);
        !st) {
      std::fprintf(stderr, "FGAD_CRASH_AT: %s\n", st.to_string().c_str());
      return 2;
    }
    std::fprintf(stderr, "armed crash point: %s\n", crash_at);
  }

  std::unique_ptr<cloud::DurableServer> durable;
  std::unique_ptr<cloud::CloudServer> server;
  if (!dur_opts.dir.empty()) {
    dur_opts.server = opts;
    auto opened = cloud::DurableServer::open(dur_opts);
    if (!opened) {
      std::fprintf(stderr, "recovery from %s failed: %s\n",
                   dur_opts.dir.c_str(),
                   opened.status().to_string().c_str());
      return 1;
    }
    durable = std::move(opened).value();
    const auto& info = durable->recovery_info();
    std::printf(
        "recovered state from %s (checkpoint epoch %llu, base epoch %llu, "
        "%llu WAL records replayed%s)\n",
        dur_opts.dir.c_str(),
        static_cast<unsigned long long>(info.checkpoint_epoch),
        static_cast<unsigned long long>(info.base_epoch),
        static_cast<unsigned long long>(info.replayed),
        info.torn_tail ? ", torn tail truncated" : "");
    if (!replicate_to.empty()) {
      const auto colon = replicate_to.rfind(':');
      if (colon == std::string::npos || colon == 0 ||
          colon + 1 >= replicate_to.size()) {
        std::fprintf(stderr, "--replicate-to wants HOST:PORT, got %s\n",
                     replicate_to.c_str());
        return 2;
      }
      net::Endpoint backup{replicate_to.substr(0, colon),
                           static_cast<std::uint16_t>(std::atoi(
                               replicate_to.c_str() + colon + 1))};
      cloud::Replicator::Options ropts;
      ropts.heartbeat_ms = repl_heartbeat_ms;
      // The dial re-resolves backup.host every time (net::failover.h) —
      // repointing the backup's DNS record works without a restart.
      auto dial = net::tcp_endpoint_dial();
      auto repl = std::make_shared<cloud::Replicator>(
          [dial, backup] { return dial(backup); }, ropts);
      durable->attach_replicator(repl);
      std::printf("replicating to %s (term %llu)\n", replicate_to.c_str(),
                  static_cast<unsigned long long>(durable->term()));
    }
    std::printf("replication role: %s (term %llu)\n",
                cloud::repl_role_name(durable->role()),
                static_cast<unsigned long long>(durable->term()));
    // Names this process's lane in captured trace documents so a
    // stitched view reads client / primary / backup, not pid numbers.
    obs::trace_set_process_label(
        durable->role() == cloud::ReplRole::kBackup ? "backup" : "primary");
  } else {
    server = std::make_unique<cloud::CloudServer>(opts);
  }

  // The async path lets the durable layer park pipelined mutations on the
  // cross-connection group committer (one fsync per batch) without
  // blocking the event loop; a plain in-memory server just answers inline.
  const auto handler = [&](Bytes req, net::TcpServer::Respond respond) {
    if (durable) {
      durable->handle_async(std::move(req),
                            [respond = std::move(respond)](Bytes resp) {
                              respond(std::move(resp));
                            });
    } else {
      respond(server->handle(req));
    }
  };
  auto tcp_result =
      net::TcpServer::create(port, net::TcpServer::AsyncHandler(handler),
                             net_opts);
  if (!tcp_result) {
    std::fprintf(stderr, "failed to bind 127.0.0.1:%u: %s\n", port,
                 tcp_result.status().to_string().c_str());
    return 1;
  }
  net::TcpServer& tcp = *tcp_result.value();

  std::unique_ptr<obs::MetricsHttpServer> metrics;
  if (metrics_enabled) {
    auto m = obs::MetricsHttpServer::create(metrics_port);
    if (!m) {
      std::fprintf(stderr, "failed to start metrics endpoint on port %u: %s\n",
                   metrics_port, m.status().to_string().c_str());
      return 1;
    }
    metrics = std::move(m).value();
    std::printf("metrics on http://127.0.0.1:%u/metrics\n", metrics->port());
    if (!peer_metrics.empty()) {
      const auto hp = montool::split_host_port(peer_metrics);
      if (hp.second == 0) {
        std::fprintf(stderr, "--peer-metrics wants HOST:PORT, got %s\n",
                     peer_metrics.c_str());
        return 2;
      }
      metrics->set_stitch_peer(hp.first, hp.second);
      std::printf("stitching /trace.json against peer %s\n",
                  peer_metrics.c_str());
    }
  }

  // Windowed telemetry + SLO burn-rate tracking (DESIGN.md §17): a 1s
  // rotation tick feeds /vars.json windows; the SLO tracker evaluates
  // after every tick and flips the "overloaded" readiness condition on
  // sustained breach.
  if (vars_interval_ms > 0) {
    obs::WindowedRegistry::Options wopts;
    wopts.interval_ns = vars_interval_ms * 1'000'000ull;
    obs::WindowedRegistry::instance().configure(wopts);
    std::vector<obs::SloTracker::Objective> objectives;
    if (default_slos) {
      objectives = obs::SloTracker::default_server_objectives();
    }
    for (const std::string& spec : slo_specs) {
      auto parsed = obs::SloTracker::parse(spec);
      if (!parsed) {
        std::fprintf(stderr, "%s\n", parsed.status().to_string().c_str());
        return 2;
      }
      objectives.push_back(std::move(parsed).value());
    }
    const std::size_t n_objectives = objectives.size();
    obs::SloTracker::instance().configure(std::move(objectives));
    obs::SloTracker::instance().attach();
    obs::WindowedRegistry::instance().start();
    std::printf("windowed telemetry: %llums rotation, %zu SLO objectives\n",
                static_cast<unsigned long long>(vars_interval_ms),
                n_objectives);
  }

  std::printf("flight recorder: %zu events, dumps to %s (SIGUSR2 dumps on "
              "demand)\n",
              obs::FlightRecorder::instance().capacity(),
              flight_recorder_dir.c_str());
  std::printf("fgad cloud server listening on 127.0.0.1:%u "
              "(integrity %s, durability %s, max %zu connections over "
              "%zu io workers); EOF on stdin or SIGTERM stops it\n",
              tcp.port(), opts.enable_integrity ? "on" : "off",
              durable ? dur_opts.dir.c_str() : "off",
              net_opts.max_workers, tcp.io_worker_count());
  std::fflush(stdout);

  // SIGUSR1 -> dump the registry to stderr (SA_RESTART: only sets a flag,
  // a watcher thread prints). SIGTERM/SIGINT -> clean shutdown with a
  // final checkpoint; *no* SA_RESTART so the getchar park loop below is
  // interrupted and observes the flag.
  {
    struct sigaction sa {};
    sa.sa_handler = on_sigusr1;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGUSR1, &sa, nullptr);
    struct sigaction st {};
    st.sa_handler = on_sigterm;
    st.sa_flags = 0;
    sigemptyset(&st.sa_mask);
    sigaction(SIGTERM, &st, nullptr);
    sigaction(SIGINT, &st, nullptr);
    // SIGHUP -> promote (flag only; the watcher thread does the work).
    struct sigaction sh {};
    sh.sa_handler = on_sighup;
    sh.sa_flags = SA_RESTART;
    sigemptyset(&sh.sa_mask);
    sigaction(SIGHUP, &sh, nullptr);
  }
  std::atomic<bool> stopping{false};
  std::thread dump_watcher([&stopping, &durable] {
    while (!stopping.load()) {
      if (g_dump_requested.exchange(false)) {
        const std::string text = obs::Registry::instance().render_text();
        std::fwrite(text.data(), 1, text.size(), stderr);
        std::fflush(stderr);
      }
      if (g_promote_requested.exchange(false)) {
        if (durable) {
          if (auto st = durable->promote(); st) {
            std::fprintf(stderr, "promoted to primary (term %llu)\n",
                         static_cast<unsigned long long>(durable->term()));
          } else {
            std::fprintf(stderr, "promote failed: %s\n",
                         st.to_string().c_str());
          }
        } else {
          std::fprintf(stderr, "SIGHUP ignored: not a durable server\n");
        }
        std::fflush(stderr);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
  });

  // Park until stdin closes or a termination signal arrives.
  while (!g_terminate.load()) {
    const int c = std::getchar();
    if (c == EOF) {
      if (errno == EINTR && !g_terminate.load()) {
        clearerr(stdin);
        continue;
      }
      break;
    }
  }

  stopping.store(true);
  dump_watcher.join();
  obs::WindowedRegistry::instance().stop();
  tcp.stop();
  // The metrics endpoint outlives the RPC listener so /readyz reports
  // 503 "shutdown" while the final checkpoint is mid-flight.
  if (durable) {
    obs::Readiness::Block not_ready("shutdown",
                                    "final checkpoint in progress");
    if (auto st = durable->checkpoint(); st) {
      std::printf("final checkpoint written to %s\n", dur_opts.dir.c_str());
    } else {
      std::fprintf(stderr, "final checkpoint failed: %s\n",
                   st.to_string().c_str());
      return 1;
    }
  }
  if (metrics) {
    metrics->stop();
  }
  if (audit_file != nullptr) {
    obs::AuditLog::instance().set_sink(nullptr);
    std::fclose(audit_file);
  }
  std::printf("bye\n");
  return 0;
}
