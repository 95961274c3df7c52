// Durability tax (DESIGN.md §13): per-mutation latency of the paper's
// delete / insert operations on the two servers fgad_server runs —
//
//   memory    a CloudServer, as without --state-dir: state in memory only
//   durable   a DurableServer, as with --state-dir: each mutation's log
//             record is flushed (group commit, fdatasync) before its ACK,
//             with a checkpoint every 1024 mutations
//
// Both run fgad_server's defaults: duplicate tracking and integrity on.
// Reported per mode: p50/p95/p99 latency for erase_item and insert through
// the real wire protocol, plus mean throughput. One client drives it, so
// every mutation's group commit flushes alone. The state directory lives
// in $TMPDIR, so on a tmpfs the flush numbers are a lower bound for real
// disks. The meta block records the cores, the filesystem and the kernel.
#include <stdlib.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "cloud/recovery.h"
#include "obs/metrics.h"
#include "support/bench_util.h"

namespace fgad::bench {
namespace {

struct Mode {
  const char* name;
  bool durable;
};

constexpr Mode kModes[] = {
    {"memory", false},
    {"durable", true},
};

std::string state_base() {
  const char* base = std::getenv("TMPDIR");
  return (base != nullptr && *base != '\0') ? base : "/tmp";
}

std::string fresh_dir() {
  std::string d = state_base() + "/fgad_wal_bench.XXXXXX";
  if (::mkdtemp(d.data()) == nullptr) {
    std::perror("mkdtemp");
    std::abort();
  }
  return d;
}

std::unique_ptr<cloud::DurableServer> open_durable(const std::string& dir) {
  cloud::DurableServer::Options dopts;
  dopts.dir = dir;
  auto opened = cloud::DurableServer::open(dopts);
  if (!opened) {
    std::fprintf(stderr, "cannot open state dir %s: %s\n", dir.c_str(),
                 opened.status().to_string().c_str());
    std::abort();
  }
  return std::move(opened).value();
}

void run() {
  const std::size_t n = std::min<std::size_t>(max_n(), 4096);
  const std::size_t samples = sample_count();
  BenchJson json("wal_overhead");
  json.meta().set("n", n).set("item_bytes", 16).set(
      "note", "latency through the wire protocol; state dir in TMPDIR");
  set_host_meta(json.meta(), state_base());

  std::printf("WAL overhead: %zu-item file, %zu delete+insert pairs/mode\n\n",
              n, samples);
  std::printf("%-10s %10s %10s %10s %12s %10s %10s %10s\n", "mode",
              "del p50", "del p95", "del p99", "", "ins p50", "ins p95",
              "ins p99");

  for (const Mode& mode : kModes) {
    std::string dir;
    std::unique_ptr<cloud::CloudServer> memory;
    std::unique_ptr<cloud::DurableServer> durable;
    if (mode.durable) {
      dir = fresh_dir();
      durable = open_durable(dir);
    } else {
      memory = std::make_unique<cloud::CloudServer>();
    }
    net::DirectChannel channel([&](BytesView req) {
      return durable ? durable->handle(req) : memory->handle(req);
    });
    crypto::DeterministicRandom rnd(7);
    client::Client::Options copts;
    copts.alg = crypto::HashAlg::kSha1;
    copts.tag_mutations = true;  // production durable-mode configuration
    client::Client client(channel, rnd, copts);

    auto fh = client.outsource(1, n, small_item);
    if (!fh) {
      std::fprintf(stderr, "bench setup failed: %s\n",
                   fh.status().to_string().c_str());
      std::abort();
    }

    // Measured loop: insert one item, then delete it — file size stays n,
    // each iteration costs one insert commit + one delete commit.
    LatencyRecorder del_lat;
    LatencyRecorder ins_lat;
    Stopwatch wall;
    for (std::size_t i = 0; i < samples; ++i) {
      std::uint64_t id = 0;
      {
        LatencyRecorder::Timed t(ins_lat);
        auto r = client.insert(fh.value(), small_item(n + i));
        if (!r) {
          std::fprintf(stderr, "insert failed: %s\n",
                       r.status().to_string().c_str());
          std::abort();
        }
        id = r.value();
      }
      {
        LatencyRecorder::Timed t(del_lat);
        auto st = client.erase_item(fh.value(), proto::ItemRef::id(id));
        if (!st) {
          std::fprintf(stderr, "delete failed: %s\n",
                       st.to_string().c_str());
          std::abort();
        }
      }
    }
    const double seconds = wall.elapsed_seconds();

    std::printf("%-10s %9.1fus %9.1fus %9.1fus %12s %8.1fus %8.1fus %8.1fus\n",
                mode.name, del_lat.quantile_us(0.50),
                del_lat.quantile_us(0.95), del_lat.quantile_us(0.99), "",
                ins_lat.quantile_us(0.50), ins_lat.quantile_us(0.95),
                ins_lat.quantile_us(0.99));

    auto& row = json.row();
    row.set("mode", mode.name)
        .set("n", n)
        .set("pairs", samples)
        .set("mutations_per_s",
             seconds > 0 ? 2.0 * static_cast<double>(samples) / seconds : 0.0);
    del_lat.emit(row, "delete");
    ins_lat.emit(row, "insert");

    if (durable) {
      durable.reset();
      std::filesystem::remove_all(dir);
    }
  }

  // The durability instrumentation (DESIGN.md §14) watched the same run
  // from the inside: embed the registry's WAL histograms in the meta
  // block so a snapshot records both the black-box and white-box view.
  // Meta is informational — bench_compare only gates on rows.
  const auto append_snap =
      obs::Registry::instance().histogram("fgad_wal_append_ns").snapshot();
  const auto fsync_snap =
      obs::Registry::instance().histogram("fgad_wal_fsync_ns").snapshot();
  json.meta()
      .set("registry_wal_append_count", append_snap.count)
      .set("registry_wal_append_p50_ns", append_snap.p50)
      .set("registry_wal_append_p95_ns", append_snap.p95)
      .set("registry_wal_append_p99_ns", append_snap.p99)
      .set("registry_wal_fsync_count", fsync_snap.count)
      .set("registry_wal_fsync_p50_ns", fsync_snap.p50)
      .set("registry_wal_fsync_p95_ns", fsync_snap.p95)
      .set("registry_wal_fsync_p99_ns", fsync_snap.p99);
}

}  // namespace
}  // namespace fgad::bench

int main() {
  fgad::bench::run();
  return 0;
}
