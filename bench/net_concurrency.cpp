// Reactor-server concurrency sweep (DESIGN.md §15): throughput and batch
// latency of pipelined mutations against the epoll reactor + cross-
// connection WAL group commit, over real loopback sockets.
//
// Sweep: {1, 8, 64, 256} concurrent client connections, each keeping a
// pipeline of `depth` tagged KvPut mutations in flight, crossed with the
// WAL modes
//
//   fsync    enable_wal, wal_sync_ms 0   group committer fsyncs each batch
//   nosync   enable_wal, wal_sync_ms -1  log written, never fsynced
//   off      enable_wal = false          no log at all
//
// plus one baseline row: a single connection, pipeline depth 1, fsync mode
// — the classic fsync-per-ACK configuration every mutation used to pay.
// The headline number is meta.speedup_64_fsync: 64-client fsync throughput
// over that baseline, which the group committer should carry well past 5x
// by amortizing one fsync over a cross-connection batch (watch
// meta.*_commit_batch_mean climb with the client count).
//
// Clients speak raw tagged KvPut frames (client-side crypto is measured
// elsewhere); the server is the production stack: DurableServer behind a
// reactor TcpServer via handle_async. State dir in $TMPDIR — on tmpfs the
// fsync cost is a lower bound for real disks; the *relative* scaling with
// client count is the portable result.
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cloud/recovery.h"
#include "net/tcp.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/bench_util.h"

namespace fgad::bench {
namespace {

struct Mode {
  const char* name;
  bool enable_wal;
  int sync_ms;
};

constexpr Mode kModes[] = {
    {"fsync", true, 0},
    {"nosync", true, -1},
    {"off", false, 0},
};

std::string fresh_dir(const char* tag) {
  const char* base = std::getenv("TMPDIR");
  std::string d = (base != nullptr && *base != '\0') ? base : "/tmp";
  d += "/fgad_netc_bench_" + std::string(tag) + "." + std::to_string(::getpid());
  ::mkdir(d.c_str(), 0755);
  return d;
}

void remove_dir(const std::string& dir) {
  for (const char* f : {"checkpoint-000000.ckpt", "checkpoint-000001.ckpt",
                        "wal-000000.log", "wal-000001.log"}) {
    ::unlink((dir + "/" + f).c_str());
  }
  ::rmdir(dir.c_str());
}

Bytes tagged_put(std::uint64_t key, BytesView value) {
  proto::KvPutReq put;
  put.table = 1;
  put.key = key;
  put.value = Bytes(value.begin(), value.end());
  return proto::seal_tagged_v2(obs::generate_request_id(), 0, 0, {},
                               put.to_frame());
}

struct RunResult {
  double seconds = 0;
  std::size_t mutations = 0;
  LatencyRecorder batch_lat;  // one sample per roundtrip_batch call
  bool ok = true;
};

/// `clients` threads, each pipelining `depth`-frame batches until it has
/// sent `per_client` mutations. Returns merged latencies and wall time
/// from the moment every connection is up.
RunResult run_config(std::uint16_t port, std::size_t clients,
                     std::size_t depth, std::size_t per_client) {
  RunResult res;
  res.mutations = clients * per_client;

  std::vector<std::unique_ptr<net::TcpChannel>> chans(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    auto conn = net::TcpChannel::connect("127.0.0.1", port);
    if (!conn) {
      std::fprintf(stderr, "connect %zu failed: %s\n", c,
                   conn.status().to_string().c_str());
      res.ok = false;
      return res;
    }
    chans[c] = std::move(conn).value();
  }

  std::mutex merge_mu;
  std::atomic<bool> failed{false};
  Stopwatch wall;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const Bytes payload = small_item(c);
      std::uint64_t key = c * 1'000'000;
      std::size_t sent = 0;
      while (sent < per_client && !failed.load(std::memory_order_relaxed)) {
        const std::size_t n = std::min(depth, per_client - sent);
        std::vector<Bytes> frames;
        frames.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
          frames.push_back(tagged_put(key++, payload));
        }
        Stopwatch sw;
        Result<std::vector<Bytes>> resp = chans[c]->roundtrip_batch(frames);
        const std::uint64_t ns = sw.elapsed_ns();
        if (!resp || resp.value().size() != n) {
          std::fprintf(stderr, "client %zu batch failed: %s\n", c,
                       resp.status().to_string().c_str());
          failed.store(true, std::memory_order_relaxed);
          return;
        }
        {
          std::lock_guard<std::mutex> lock(merge_mu);
          res.batch_lat.record_ns(ns);
        }
        sent += n;
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  res.seconds = wall.elapsed_seconds();
  res.ok = !failed.load();
  return res;
}

void run() {
  const std::size_t depth = 16;
  const std::size_t max_clients =
      std::max<std::size_t>(1, env_size("FGAD_MAX_CLIENTS", 256));
  // Mutations per client per config; rounded up to whole batches.
  const std::size_t per_client =
      ((std::max<std::size_t>(sample_count(), depth) + depth - 1) / depth) *
      depth;

  BenchJson json("net_concurrency");
  json.meta()
      .set("depth", depth)
      .set("per_client_mutations", per_client)
      .set("item_bytes", 16)
      .set("note",
           "tagged KvPut frames over loopback TCP; reactor + group commit; "
           "state dir in TMPDIR");

  std::printf(
      "net concurrency: pipeline depth %zu, %zu mutations/client\n\n",
      depth, per_client);
  std::printf("%-8s %8s %7s %12s %12s %12s %12s\n", "mode", "clients",
              "depth", "mut/s", "batch p50", "batch p95", "batch p99");

  double baseline_thr = 0;   // fsync, 1 client, depth 1
  double fsync64_thr = 0;    // fsync, 64 clients, depth 16

  for (const Mode& mode : kModes) {
    const std::string dir = fresh_dir(mode.name);
    cloud::DurableServer::Options dopts;
    dopts.dir = dir;
    dopts.enable_wal = mode.enable_wal;
    dopts.wal_sync_ms = mode.sync_ms;
    dopts.checkpoint_every_n = 0;  // measure the log, not checkpoints
    dopts.server = cloud::CloudServer::Options{/*track_duplicates=*/false,
                                               /*enable_integrity=*/false};
    auto opened = cloud::DurableServer::open(dopts);
    if (!opened) {
      std::fprintf(stderr, "cannot open state dir %s: %s\n", dir.c_str(),
                   opened.status().to_string().c_str());
      std::abort();
    }
    cloud::DurableServer& ds = *opened.value();

    net::TcpServer::Options sopts;
    sopts.max_workers = 512;
    sopts.io_timeout_ms = 120000;
    auto server = net::TcpServer::create(
        0,
        net::TcpServer::AsyncHandler(
            [&ds](Bytes req, net::TcpServer::Respond respond) {
              ds.handle_async(std::move(req),
                              [respond = std::move(respond)](Bytes resp) {
                                respond(std::move(resp));
                              });
            }),
        sopts);
    if (!server) {
      std::fprintf(stderr, "server start failed: %s\n",
                   server.status().to_string().c_str());
      std::abort();
    }

    auto& commit_hist =
        obs::Registry::instance().histogram("fgad_wal_commit_batch_size");

    struct Config {
      std::size_t clients;
      std::size_t depth;
      bool baseline;
    };
    std::vector<Config> configs;
    if (mode.enable_wal && mode.sync_ms == 0) {
      configs.push_back({1, 1, true});  // fsync-per-ACK baseline
    }
    for (std::size_t c : {std::size_t{1}, std::size_t{8}, std::size_t{64},
                          std::size_t{256}}) {
      if (c <= max_clients) {
        configs.push_back({c, depth, false});
      }
    }

    for (const Config& cfg : configs) {
      const double hist_sum0 = commit_hist.sum();
      const std::uint64_t hist_cnt0 = commit_hist.count();
      RunResult r = run_config(server.value()->port(), cfg.clients, cfg.depth,
                               cfg.baseline ? std::min<std::size_t>(
                                                  per_client, 64)
                                            : per_client);
      if (!r.ok) {
        std::abort();
      }
      const double thr =
          r.seconds > 0 ? static_cast<double>(r.mutations) / r.seconds : 0;
      const double batches =
          static_cast<double>(commit_hist.count() - hist_cnt0);
      const double batch_mean =
          batches > 0 ? (commit_hist.sum() - hist_sum0) / batches : 0;

      const char* label = cfg.baseline ? "fsync*" : mode.name;
      std::printf("%-8s %8zu %7zu %12.0f %10.1fus %10.1fus %10.1fus\n",
                  label, cfg.clients, cfg.depth, thr,
                  r.batch_lat.quantile_us(0.50), r.batch_lat.quantile_us(0.95),
                  r.batch_lat.quantile_us(0.99));

      auto& row = json.row();
      row.set("mode", mode.name)
          .set("baseline", cfg.baseline ? 1 : 0)
          .set("clients", cfg.clients)
          .set("depth", cfg.depth)
          .set("mutations", r.mutations)
          .set("mutations_per_s", thr)
          .set("wal_commit_batch_mean", batch_mean)
          .set("wal_fsyncs", batches);
      r.batch_lat.emit(row, "batch");

      if (cfg.baseline) {
        baseline_thr = thr;
      }
      if (!cfg.baseline && mode.enable_wal && mode.sync_ms == 0 &&
          cfg.clients == 64) {
        fsync64_thr = thr;
      }
    }

    server.value()->stop();
    opened.value().reset();
    remove_dir(dir);
  }

  json.meta()
      .set("baseline_fsync_per_ack_mut_s", baseline_thr)
      .set("fsync_64c_mut_s", fsync64_thr)
      .set("speedup_64_fsync",
           baseline_thr > 0 ? fsync64_thr / baseline_thr : 0.0)
      .set("registry_group_commits",
           obs::Registry::instance()
               .counter("fgad_wal_group_commits_total")
               .value())
      .set("registry_accept_backoffs",
           obs::Registry::instance()
               .counter("fgad_tcp_accept_backoffs_total")
               .value());
  if (baseline_thr > 0 && fsync64_thr > 0) {
    std::printf("\n64-client fsync speedup over fsync-per-ACK baseline: "
                "%.1fx\n",
                fsync64_thr / baseline_thr);
  }
}

}  // namespace
}  // namespace fgad::bench

int main() {
  fgad::bench::run();
  return 0;
}
