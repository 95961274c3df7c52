// Replication tax (DESIGN.md §18): per-mutation latency of the paper's
// delete / insert operations against a DurableServer with and without a
// backup —
//
//   single       no replication; fsync before every ACK
//   replicated   WAL shipped to a loopback-TCP backup; the ACK waits for
//                the local fsync and the backup's durable ReplAck
//
// The backup is a real second DurableServer behind a TCP loopback server,
// so the replicated row pays genuine wire framing + a second fsync on the
// follower. The headline number is repl_over_single_p95: the ship round
// trip overlaps the local fsync (the GroupCommitter gate runs after the
// flush), so the target on loopback is <= 2x the single-node p95. That
// overlap needs a second core — on a single-CPU host the primary's and
// follower's apply+fsync serialize through the scheduler and ~2x plus
// context-switch overhead is the physical floor (meta records cores so
// readers can tell which regime a snapshot was taken in).
//
// As with wal_overhead, TMPDIR is often tmpfs in CI: absolute latencies
// are a lower bound for real disks, the mode *ratios* are the portable
// result.
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cloud/recovery.h"
#include "cloud/replica.h"
#include "core/outsource.h"
#include "net/tcp.h"
#include "support/bench_util.h"

namespace fgad::bench {
namespace {

struct Mode {
  const char* name;
  bool replicate;
};

constexpr Mode kModes[] = {
    {"single", false},
    {"replicated", true},
};

std::string state_base() {
  const char* base = std::getenv("TMPDIR");
  return (base != nullptr && *base != '\0') ? base : "/tmp";
}

std::string fresh_dir(const char* mode, const char* side) {
  std::string d = state_base() + "/fgad_repl_bench_" + std::string(mode) +
                  "_" + side + "." + std::to_string(::getpid());
  ::mkdir(d.c_str(), 0755);
  return d;
}

void remove_dir(const std::string& dir) {
  for (int epoch = 0; epoch < 8; ++epoch) {
    char name[64];
    std::snprintf(name, sizeof(name), "checkpoint-%06d.ckpt", epoch);
    ::unlink((dir + "/" + name).c_str());
    std::snprintf(name, sizeof(name), "wal-%06d.log", epoch);
    ::unlink((dir + "/" + name).c_str());
  }
  ::rmdir(dir.c_str());
}

Result<std::unique_ptr<cloud::DurableServer>> open_node(
    const std::string& dir, cloud::ReplRole role) {
  cloud::DurableServer::Options dopts;
  dopts.dir = dir;
  dopts.wal_sync_ms = 0;         // fsync before every ACK
  dopts.checkpoint_every_n = 0;  // measure the log + ship, not checkpoints
  dopts.role = role;
  dopts.server = cloud::CloudServer::Options{/*track_duplicates=*/false,
                                             /*enable_integrity=*/false};
  return cloud::DurableServer::open(dopts);
}

void run() {
  const std::size_t n = std::min<std::size_t>(max_n(), 4096);
  const std::size_t samples = sample_count();
  BenchJson json("replication_overhead");
  json.meta()
      .set("n", n)
      .set("item_bytes", 16)
      .set("note",
           "backup behind real TCP loopback; a replicated ACK waits for the "
           "follower's durable ReplAck; the <=2x target assumes >=2 cores "
           "so the follower overlaps the local fsync");
  set_host_meta(json.meta(), state_base());

  std::printf(
      "Replication overhead: %zu-item file, %zu insert+delete pairs/mode\n\n",
      n, samples);
  std::printf("%-12s %10s %10s %10s %12s %10s %10s %10s\n", "mode", "del p50",
              "del p95", "del p99", "", "ins p50", "ins p95", "ins p99");

  double single_p95_us = 0;
  double repl_p95_us = 0;

  for (const Mode& mode : kModes) {
    const std::string pdir = fresh_dir(mode.name, "primary");
    const std::string bdir = fresh_dir(mode.name, "backup");

    // Follower first: a real DurableServer on its own state dir, served
    // over genuine loopback TCP so the ship path pays wire framing.
    std::unique_ptr<cloud::DurableServer> backup;
    std::unique_ptr<net::TcpServer> backup_srv;
    if (mode.replicate) {
      auto b = open_node(bdir, cloud::ReplRole::kBackup);
      if (!b) {
        std::fprintf(stderr, "backup open failed: %s\n",
                     b.status().to_string().c_str());
        std::abort();
      }
      backup = std::move(b).value();
      auto srv = net::TcpServer::create(0, [&backup](BytesView req) {
        return backup->handle(req);
      });
      if (!srv) {
        std::fprintf(stderr, "backup tcp server failed: %s\n",
                     srv.status().to_string().c_str());
        std::abort();
      }
      backup_srv = std::move(srv).value();
    }

    auto p = open_node(pdir, cloud::ReplRole::kPrimary);
    if (!p) {
      std::fprintf(stderr, "primary open failed: %s\n",
                   p.status().to_string().c_str());
      std::abort();
    }
    std::unique_ptr<cloud::DurableServer> primary = std::move(p).value();

    std::shared_ptr<cloud::Replicator> repl;
    if (mode.replicate) {
      const std::uint16_t port = backup_srv->port();
      repl = std::make_shared<cloud::Replicator>(
          [port]() -> Result<std::unique_ptr<net::RpcChannel>> {
            auto ch = net::TcpChannel::connect("127.0.0.1", port);
            if (!ch) {
              return ch.error();
            }
            return std::unique_ptr<net::RpcChannel>(std::move(ch).value());
          },
          cloud::Replicator::Options{});
      primary->attach_replicator(repl);
    }

    net::DirectChannel channel(
        [&primary](BytesView req) { return primary->handle(req); });
    crypto::DeterministicRandom rnd(7);
    client::Client::Options copts;
    copts.alg = crypto::HashAlg::kSha1;
    copts.tag_mutations = true;  // production durable-mode configuration
    client::Client client(channel, rnd, copts);

    // Build the base file natively (setup is not the measured operation).
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
      auto st = primary->server().outsource(fh.id, std::move(built.tree),
                                            std::move(items));
      if (!st) {
        std::fprintf(stderr, "bench setup failed: %s\n",
                     st.to_string().c_str());
        std::abort();
      }
    }
    // The natively-built file bypassed the WAL, so the backup could never
    // catch up by log shipping alone; one checkpoint makes the primary's
    // position durable and the first ship falls back to a snapshot.
    if (auto st = primary->checkpoint(); !st) {
      std::fprintf(stderr, "checkpoint failed: %s\n", st.to_string().c_str());
      std::abort();
    }

    // Warmup: the natively-built file forces the first post-checkpoint
    // ship down the snapshot path — do one unmeasured pair so that
    // one-time image transfer never lands inside a sample.
    {
      auto r = client.insert(fh, small_item(n));
      if (r) {
        (void)client.erase_item(fh, proto::ItemRef::id(r.value()));
      }
    }

    // Measured loop: insert one item, then delete it — file size stays n.
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
          std::fprintf(stderr, "delete failed: %s\n", st.to_string().c_str());
          std::abort();
        }
      }
    }
    const double seconds = wall.elapsed_seconds();

    std::printf(
        "%-12s %9.1fus %9.1fus %9.1fus %12s %8.1fus %8.1fus %8.1fus\n",
        mode.name, del_lat.quantile_us(0.50), del_lat.quantile_us(0.95),
        del_lat.quantile_us(0.99), "", ins_lat.quantile_us(0.50),
        ins_lat.quantile_us(0.95), ins_lat.quantile_us(0.99));

    if (mode.replicate) {
      repl_p95_us = del_lat.quantile_us(0.95);
    } else {
      single_p95_us = del_lat.quantile_us(0.95);
    }

    auto& row = json.row();
    row.set("mode", mode.name)
        .set("n", n)
        .set("pairs", samples)
        .set("mutations_per_s",
             seconds > 0 ? 2.0 * static_cast<double>(samples) / seconds : 0.0);
    del_lat.emit(row, "delete");
    ins_lat.emit(row, "insert");
    if (mode.replicate && repl) {
      row.set("acked_lsn", repl->acked_lsn())
          .set("primary_lsn", primary->last_lsn());
    }

    // Teardown in dependency order: shipper before the follower it dials.
    if (repl) {
      repl->stop();
    }
    primary.reset();
    backup_srv.reset();
    backup.reset();
    remove_dir(pdir);
    remove_dir(bdir);
  }

  // The headline ratio the CI perf gate watches: replicated deletion p95
  // over the single-node fsync baseline, both on loopback. Target <= 2x —
  // the follower round trip overlaps the local fsync, it does not stack.
  const double ratio =
      single_p95_us > 0 ? repl_p95_us / single_p95_us : 0.0;
  std::printf("\nreplicated/single delete p95 ratio: %.2fx (target <= 2x)\n",
              ratio);
  json.meta()
      .set("single_delete_p95_us", single_p95_us)
      .set("repl_delete_p95_us", repl_p95_us)
      .set("repl_over_single_p95", ratio);
}

}  // namespace
}  // namespace fgad::bench

int main() {
  fgad::bench::run();
  return 0;
}
