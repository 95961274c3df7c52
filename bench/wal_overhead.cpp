// Durability tax of the WAL (DESIGN.md §13): per-mutation latency of the
// paper's delete / insert operations against a DurableServer with and
// without its log —
//
//   off      enable_wal = false   checkpoint-only durability (no log)
//   fsync    enable_wal = true    group-committed fsync before every ACK
//
// Reported per mode: p50/p95/p99 latency for erase_item and insert through
// the real wire protocol, plus mean throughput. One client drives it, so
// every mutation's group commit flushes alone. The state directory lives
// in $TMPDIR, so on a tmpfs the fsync numbers are a lower bound for real
// disks — the *relative* cost of the modes is the portable result.
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "cloud/recovery.h"
#include "core/outsource.h"
#include "obs/metrics.h"
#include "support/bench_util.h"

namespace fgad::bench {
namespace {

struct Mode {
  const char* name;
  bool enable_wal;
};

constexpr Mode kModes[] = {
    {"off", false},
    {"fsync", true},
};

std::string fresh_dir(const char* mode) {
  const char* base = std::getenv("TMPDIR");
  std::string d = (base != nullptr && *base != '\0') ? base : "/tmp";
  d += "/fgad_wal_bench_" + std::string(mode) + "." +
       std::to_string(::getpid());
  ::mkdir(d.c_str(), 0755);
  return d;
}

void remove_dir(const std::string& dir) {
  for (const char* f : {"checkpoint-000000.ckpt", "checkpoint-000001.ckpt",
                        "checkpoint-000002.ckpt", "wal-000000.log",
                        "wal-000001.log", "wal-000002.log"}) {
    ::unlink((dir + "/" + f).c_str());
  }
  ::rmdir(dir.c_str());
}

void run() {
  const std::size_t n = std::min<std::size_t>(max_n(), 4096);
  const std::size_t samples = sample_count();
  BenchJson json("wal_overhead");
  json.meta().set("n", n).set("item_bytes", 16).set(
      "note", "latency through the wire protocol; state dir in TMPDIR");

  std::printf("WAL overhead: %zu-item file, %zu delete+insert pairs/mode\n\n",
              n, samples);
  std::printf("%-10s %10s %10s %10s %12s %10s %10s %10s\n", "mode",
              "del p50", "del p95", "del p99", "", "ins p50", "ins p95",
              "ins p99");

  for (const Mode& mode : kModes) {
    const std::string dir = fresh_dir(mode.name);
    cloud::DurableServer::Options dopts;
    dopts.dir = dir;
    dopts.enable_wal = mode.enable_wal;
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

    net::DirectChannel channel([&ds](BytesView req) { return ds.handle(req); });
    crypto::DeterministicRandom rnd(7);
    client::Client::Options copts;
    copts.alg = crypto::HashAlg::kSha1;
    copts.tag_mutations = true;  // production durable-mode configuration
    client::Client client(channel, rnd, copts);

    // Build the base file natively (setup is not the measured operation),
    // then checkpoint so the measured mutations start from durable state.
    client::Client::FileHandle fh;
    {
      core::Outsourcer out(copts.alg, /*track_duplicates=*/false);
      fh.id = 1;
      fh.key = crypto::MasterKey::generate(rnd, client.math().width());
      std::uint64_t counter = 0;
      auto built = out.build(fh.key, n, small_item, counter, rnd);
      client.set_counter(counter);
      std::vector<cloud::FileStore::IngestItem> items;
      items.reserve(built.items.size());
      for (auto& it : built.items) {
        items.push_back(cloud::FileStore::IngestItem{
            it.item_id, std::move(it.ciphertext), it.plain_size});
      }
      auto st = ds.server().outsource(fh.id, std::move(built.tree),
                                      std::move(items));
      if (!st) {
        std::fprintf(stderr, "bench setup failed: %s\n",
                     st.to_string().c_str());
        std::abort();
      }
    }
    if (auto st = ds.checkpoint(); !st) {
      std::fprintf(stderr, "checkpoint failed: %s\n", st.to_string().c_str());
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
        auto r = client.insert(fh, small_item(n + i));
        if (!r) {
          std::fprintf(stderr, "insert failed: %s\n",
                       r.status().to_string().c_str());
          std::abort();
        }
        id = r.value();
      }
      {
        LatencyRecorder::Timed t(del_lat);
        auto st = client.erase_item(fh, proto::ItemRef::id(id));
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
        .set("wal", mode.enable_wal ? 1 : 0)
        .set("sync_ms", 0)  // row key of the recorded snapshot
        .set("n", n)
        .set("pairs", samples)
        .set("mutations_per_s",
             seconds > 0 ? 2.0 * static_cast<double>(samples) / seconds : 0.0);
    del_lat.emit(row, "delete");
    ins_lat.emit(row, "insert");

    opened.value().reset();
    remove_dir(dir);
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
