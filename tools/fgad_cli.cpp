// fgad — command-line client for the assured-deletion cloud store.
//
//   fgad --store KS --pass PW [--host H] [--port N] [--timeout-ms N]
//        [--retries N] <command> [args...]
//
// The keystore file KS is the client's entire persistent secret state: the
// global counter plus one master key per outsourced file, sealed under the
// passphrase. Commands:
//
//   init                            create an empty keystore
//   files                           list file ids held in the keystore
//   outsource FILE_ID PATH...       outsource files (each path = one item)
//   ls FILE_ID                      list item ids in file order
//   cat FILE_ID ITEM_ID             decrypt one item to stdout
//   put FILE_ID PATH                insert one item; prints its id
//   edit FILE_ID ITEM_ID PATH       replace an item's content
//   rm FILE_ID ITEM_ID              fine-grained ASSURED deletion
//   drop FILE_ID                    drop the whole file (key destroyed)
//   stats FILE_ID                   server-side size stats for one file
//
// --trace collects a client-side span tree for the command and prints it
// to stderr on exit; every RPC is tagged with the trace's request id, so
// the server's audit-log lines carry the same id (DESIGN.md §12). Traced
// RPCs ride the V2 envelope, so the server returns its per-request cost
// breakdown (WAL append, fsync share, replication wait, apply) as a
// server-timing trailer, printed with the trace. --stitch H:P names the
// server's METRICS endpoint: on exit the CLI samples its /clock for a
// skew estimate, fetches the server-side (and, transitively, backup-
// side) span segments via GET /trace.json?rid=, and merges everything
// into the --trace-json document — one Perfetto timeline spanning
// client, primary, and backup (DESIGN.md §19).
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "client/client.h"
#include "client/keystore.h"
#include "mon_util.h"
#include "net/failover.h"
#include "net/tcp.h"
#include "obs/cost.h"
#include "obs/metrics.h"
#include "obs/stitch.h"
#include "obs/trace.h"
#include "proto/messages.h"

namespace {

using namespace fgad;

Result<Bytes> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Error(Errc::kIoError, "cannot open " + path);
  }
  Bytes data;
  std::uint8_t buf[1 << 16];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.insert(data.end(), buf, buf + got);
  }
  std::fclose(f);
  return data;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: fgad --store KS --pass PW [--host H] [--port N]\n"
      "            [--timeout-ms N] [--retries N] [--trace]\n"
      "            [--trace-json FILE] [--stitch H:P] CMD [args]\n"
      "commands: init | files | outsource FILE PATH... | ls FILE |\n"
      "          cat FILE ITEM | put FILE PATH | edit FILE ITEM PATH |\n"
      "          rm FILE ITEM... | drop FILE | stats FILE\n");
  return 2;
}

struct Session {
  client::Keystore keystore;
  std::unique_ptr<net::RpcChannel> channel;
  std::unique_ptr<client::Client> client;

  Result<client::Client::FileHandle> handle(std::uint64_t file_id) {
    auto key = keystore.get(file_id);
    if (!key) {
      return key.error();
    }
    client::Client::FileHandle fh;
    fh.id = file_id;
    fh.key = crypto::MasterKey(key.value());
    return fh;
  }
};

/// Exports or prints the span tree on scope exit (any return path) when
/// --trace / --trace-json is active; a no-op otherwise. The JSON flavor
/// wins when both are given: one file, loadable in Perfetto. With a
/// stitch endpoint, the exported document also carries the server-side
/// segments, skew-corrected into the client's timeline.
struct TraceDumper {
  std::string json_path;
  std::string stitch_host;
  std::uint16_t stitch_port = 0;
  std::uint64_t rid = 0;
  // Reads the last V2 response's server-timing trailer; bound to the
  // Session AFTER it is constructed (the dumper is declared later in
  // main, so its destructor runs while the Session is still alive).
  std::function<std::vector<proto::TimingEntry>()> timing_source;

  void print_server_timing() const {
    if (!timing_source) {
      return;
    }
    const auto timings = timing_source();
    if (timings.empty()) {
      return;
    }
    std::fprintf(stderr, "server timing (last traced RPC):\n");
    std::uint64_t parts = 0, total = 0;
    for (const auto& t : timings) {
      const auto k = static_cast<obs::CostKind>(t.kind);
      std::fprintf(stderr, "  %-12s %10.3f ms\n", obs::cost_kind_name(k),
                   static_cast<double>(t.ns) / 1e6);
      if (k == obs::CostKind::kTotal) {
        total = t.ns;
      } else if (k != obs::CostKind::kKeyDerive) {
        parts += t.ns;
      }
    }
    if (total != 0) {
      std::fprintf(stderr, "  parts sum to %.3f ms of %.3f ms total\n",
                   static_cast<double>(parts) / 1e6,
                   static_cast<double>(total) / 1e6);
    }
  }

  /// The server-side document for this rid (already stitched with the
  /// server's own peer, i.e. the backup), merged skew-corrected.
  std::string stitched(std::string doc) const {
    std::vector<obs::ClockSample> samples;
    for (int i = 0; i < 5; ++i) {
      obs::ClockSample cs;
      cs.local_send_ns = obs::now_ns();
      const std::string body =
          montool::http_get(stitch_host, stitch_port, "/clock");
      cs.local_recv_ns = obs::now_ns();
      const std::size_t pos = body.find("\"now_ns\":");
      if (pos == std::string::npos) {
        continue;
      }
      cs.peer_ns = std::strtoull(body.c_str() + pos + 9, nullptr, 10);
      samples.push_back(cs);
    }
    const obs::OffsetEstimate off = obs::best_offset(samples);
    char rid_hex[24];
    std::snprintf(rid_hex, sizeof(rid_hex), "%016llx",
                  static_cast<unsigned long long>(rid));
    const std::string peer = montool::http_get(
        stitch_host, stitch_port, std::string("/trace.json?rid=") + rid_hex);
    if (!off.valid || peer.find("\"t0_ns\":") == std::string::npos) {
      std::fprintf(stderr,
                   "stitch: no server-side trace from %s:%u (local only)\n",
                   stitch_host.c_str(), stitch_port);
      return doc;
    }
    std::fprintf(stderr,
                 "stitch: clock offset %+lld ns (rtt %llu ns) from %s:%u\n",
                 static_cast<long long>(off.offset_ns),
                 static_cast<unsigned long long>(off.rtt_ns),
                 stitch_host.c_str(), stitch_port);
    return obs::trace_stitch(doc, peer, off.offset_ns, /*pid_delta=*/1);
  }

  ~TraceDumper() {
    if (obs::trace_active()) {
      print_server_timing();
      // Costs charged locally under the same rid — today just the
      // client-side item-key derivation chain.
      const auto local = obs::CostLedger::instance().take(rid);
      const std::uint64_t derive =
          local.ns[static_cast<std::size_t>(obs::CostKind::kKeyDerive)];
      if (derive != 0) {
        std::fprintf(stderr, "client timing: key_derive %.3f ms\n",
                     static_cast<double>(derive) / 1e6);
      }
    }
    if (!json_path.empty() && obs::trace_active()) {
      std::string doc = obs::trace_render_chrome_json();
      if (stitch_port != 0 && rid != 0) {
        doc = stitched(std::move(doc));
      }
      std::FILE* f = std::fopen(json_path.c_str(), "wb");
      if (f == nullptr ||
          std::fwrite(doc.data(), 1, doc.size(), f) != doc.size()) {
        std::fprintf(stderr, "trace export failed: cannot write %s\n",
                     json_path.c_str());
      } else {
        std::fprintf(stderr, "trace written to %s\n", json_path.c_str());
      }
      if (f != nullptr) {
        std::fclose(f);
      }
      return;
    }
    obs::trace_dump(stderr);
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::string store_path;
  std::string passphrase;
  std::string host = "127.0.0.1";
  std::uint16_t port = 4270;
  int timeout_ms = 30000;
  int retries = 4;
  bool trace = false;
  std::string trace_json;
  std::string stitch;
  std::vector<std::string> args;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--store" && i + 1 < argc) {
      store_path = argv[++i];
    } else if (arg == "--pass" && i + 1 < argc) {
      passphrase = argv[++i];
    } else if (arg == "--host" && i + 1 < argc) {
      host = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
    } else if (arg == "--timeout-ms" && i + 1 < argc) {
      timeout_ms = std::atoi(argv[++i]);
    } else if (arg == "--retries" && i + 1 < argc) {
      retries = std::atoi(argv[++i]);
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--trace-json" && i + 1 < argc) {
      trace = true;
      trace_json = argv[++i];
    } else if (arg == "--stitch" && i + 1 < argc) {
      trace = true;
      stitch = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      args.push_back(arg);
    }
  }
  if (store_path.empty() || passphrase.empty() || args.empty()) {
    return usage();
  }
  const std::string cmd = args[0];
  crypto::SystemRandom rnd;

  // Declared before the dumper so the dumper's destructor (which reads
  // the client's last server-timing trailer) runs while it is alive.
  Session s;
  TraceDumper trace_dumper;
  trace_dumper.json_path = trace_json;
  if (!stitch.empty()) {
    const auto hp = montool::split_host_port(stitch);
    if (hp.second == 0) {
      std::fprintf(stderr, "bad --stitch endpoint: %s\n", stitch.c_str());
      return 2;
    }
    trace_dumper.stitch_host = hp.first;
    trace_dumper.stitch_port = hp.second;
  }
  if (trace) {
    const std::uint64_t rid = obs::generate_request_id();
    std::fprintf(stderr, "trace: request id %016llx\n",
                 static_cast<unsigned long long>(rid));
    obs::trace_set_process_label("client");
    obs::trace_begin(rid);
    obs::CostLedger::instance().set_enabled(true);
    trace_dumper.rid = rid;
    trace_dumper.timing_source = [&s]() {
      return s.client ? s.client->last_server_timing()
                      : std::vector<proto::TimingEntry>{};
    };
  }

  // `init` needs no connection.
  if (cmd == "init") {
    client::Keystore ks;
    if (auto st = ks.save_to_file(store_path, passphrase, rnd); !st) {
      std::fprintf(stderr, "%s\n", st.to_string().c_str());
      return 1;
    }
    std::printf("created keystore %s\n", store_path.c_str());
    return 0;
  }

  {
    auto ks = client::Keystore::load_from_file(store_path, passphrase);
    if (!ks) {
      std::fprintf(stderr, "keystore: %s\n",
                   ks.status().to_string().c_str());
      return 1;
    }
    s.keystore = std::move(ks).value();
  }

  if (cmd == "files") {
    for (std::uint64_t id : s.keystore.file_ids()) {
      std::printf("%llu\n", static_cast<unsigned long long>(id));
    }
    return 0;
  }

  // Everything else talks to the server — through a reconnecting channel
  // over its one endpoint, so transient stalls/resets only fail read-style
  // commands after the bounded backoff budget, and mutating commands
  // (put/rm/...) surface a typed error instead of being resent blind.
  {
    net::TcpChannel::Options tcp_opts;
    tcp_opts.connect_timeout_ms = timeout_ms;
    tcp_opts.io_timeout_ms = timeout_ms;
    net::FailoverChannel::Options retry_opts;
    retry_opts.max_attempts = retries;
    retry_opts.retryable = [](BytesView frame) {
      return proto::retryable_request(frame);
    };
    auto retry = std::make_unique<net::FailoverChannel>(
        net::static_endpoints({{host, port}}),
        net::tcp_endpoint_dial(tcp_opts), retry_opts);
    // Dial eagerly so an unreachable server fails fast and obviously.
    auto probe = net::TcpChannel::connect(host, port, tcp_opts);
    if (!probe) {
      std::fprintf(stderr, "connect %s:%u failed: %s\n", host.c_str(), port,
                   probe.status().to_string().c_str());
      return 1;
    }
    s.channel = std::move(retry);
    s.client = std::make_unique<client::Client>(*s.channel, rnd);
    s.client->set_counter(s.keystore.counter());
  }

  const auto persist = [&]() -> int {
    s.keystore.set_counter(s.client->counter());
    if (auto st = s.keystore.save_to_file(store_path, passphrase, rnd); !st) {
      std::fprintf(stderr, "keystore save failed: %s\n",
                   st.to_string().c_str());
      return 1;
    }
    return 0;
  };

  if (cmd == "outsource" && args.size() >= 3) {
    const std::uint64_t file_id = std::strtoull(args[1].c_str(), nullptr, 10);
    if (s.keystore.contains(file_id)) {
      std::fprintf(stderr, "file %llu already in keystore\n",
                   static_cast<unsigned long long>(file_id));
      return 1;
    }
    std::vector<Bytes> items;
    for (std::size_t i = 2; i < args.size(); ++i) {
      auto data = read_file(args[i]);
      if (!data) {
        std::fprintf(stderr, "%s\n", data.status().to_string().c_str());
        return 1;
      }
      items.push_back(std::move(data).value());
    }
    auto fh = s.client->outsource(file_id, items);
    if (!fh) {
      std::fprintf(stderr, "outsource failed: %s\n",
                   fh.status().to_string().c_str());
      return 1;
    }
    s.keystore.put(file_id, fh.value().key.value());
    std::printf("outsourced %zu items as file %llu\n", items.size(),
                static_cast<unsigned long long>(file_id));
    return persist();
  }

  if (cmd == "ls" && args.size() == 2) {
    auto fh = s.handle(std::strtoull(args[1].c_str(), nullptr, 10));
    if (!fh) {
      std::fprintf(stderr, "%s\n", fh.status().to_string().c_str());
      return 1;
    }
    auto ids = s.client->list_items(fh.value());
    if (!ids) {
      std::fprintf(stderr, "%s\n", ids.status().to_string().c_str());
      return 1;
    }
    for (std::uint64_t id : ids.value()) {
      std::printf("%llu\n", static_cast<unsigned long long>(id));
    }
    return 0;
  }

  if (cmd == "cat" && args.size() == 3) {
    auto fh = s.handle(std::strtoull(args[1].c_str(), nullptr, 10));
    if (!fh) {
      std::fprintf(stderr, "%s\n", fh.status().to_string().c_str());
      return 1;
    }
    auto item = s.client->access(
        fh.value(),
        proto::ItemRef::id(std::strtoull(args[2].c_str(), nullptr, 10)));
    if (!item) {
      std::fprintf(stderr, "%s\n", item.status().to_string().c_str());
      return 1;
    }
    std::fwrite(item.value().data(), 1, item.value().size(), stdout);
    return 0;
  }

  if (cmd == "put" && args.size() == 3) {
    auto fh = s.handle(std::strtoull(args[1].c_str(), nullptr, 10));
    if (!fh) {
      std::fprintf(stderr, "%s\n", fh.status().to_string().c_str());
      return 1;
    }
    auto data = read_file(args[2]);
    if (!data) {
      std::fprintf(stderr, "%s\n", data.status().to_string().c_str());
      return 1;
    }
    auto id = s.client->insert(fh.value(), data.value());
    if (!id) {
      std::fprintf(stderr, "insert failed: %s\n",
                   id.status().to_string().c_str());
      return 1;
    }
    std::printf("%llu\n", static_cast<unsigned long long>(id.value()));
    return persist();
  }

  if (cmd == "edit" && args.size() == 4) {
    auto fh = s.handle(std::strtoull(args[1].c_str(), nullptr, 10));
    if (!fh) {
      std::fprintf(stderr, "%s\n", fh.status().to_string().c_str());
      return 1;
    }
    auto data = read_file(args[3]);
    if (!data) {
      std::fprintf(stderr, "%s\n", data.status().to_string().c_str());
      return 1;
    }
    auto st = s.client->modify(
        fh.value(), std::strtoull(args[2].c_str(), nullptr, 10),
        data.value());
    if (!st) {
      std::fprintf(stderr, "modify failed: %s\n", st.to_string().c_str());
      return 1;
    }
    return persist();
  }

  if (cmd == "rm" && args.size() >= 3) {
    auto fh = s.handle(std::strtoull(args[1].c_str(), nullptr, 10));
    if (!fh) {
      std::fprintf(stderr, "%s\n", fh.status().to_string().c_str());
      return 1;
    }
    auto handle = std::move(fh).value();
    Status st = Status::ok();
    if (args.size() == 3) {
      st = s.client->erase_item(
          handle, proto::ItemRef::id(std::strtoull(args[2].c_str(), nullptr,
                                                   10)));
    } else {
      // Several items: merged-cut bulk deletion — one round trip, ONE key
      // rotation for the whole batch (DESIGN.md §16).
      std::vector<proto::ItemRef> refs;
      for (std::size_t i = 2; i < args.size(); ++i) {
        refs.push_back(
            proto::ItemRef::id(std::strtoull(args[i].c_str(), nullptr, 10)));
      }
      st = s.client->erase_items(handle, refs);
    }
    if (!st) {
      std::fprintf(stderr, "assured delete failed: %s\n",
                   st.to_string().c_str());
      if (st.error().code == Errc::kIndeterminate) {
        // Commit outcome unknown; the handle is poisoned. Try to prove the
        // server's epoch so the keystore ends up with the live key.
        if (auto re = s.client->resync(handle); re) {
          s.keystore.put(handle.id, handle.key.value());
          persist();
          std::fprintf(stderr, "resynced: keystore now holds the live key\n");
        }
      }
      return 1;
    }
    // The master key rotated: persist the new one, destroying the old.
    s.keystore.put(handle.id, handle.key.value());
    if (args.size() == 3) {
      std::printf("item assuredly deleted; master key rotated\n");
    } else {
      std::printf("%zu items assuredly deleted; master key rotated once\n",
                  args.size() - 2);
    }
    return persist();
  }

  if (cmd == "stats" && args.size() == 2) {
    const std::uint64_t file_id = std::strtoull(args[1].c_str(), nullptr, 10);
    auto st = s.client->stat(file_id);
    if (!st) {
      std::fprintf(stderr, "stats failed: %s\n",
                   st.status().to_string().c_str());
      return 1;
    }
    std::printf("file %llu: %llu items, %llu tree nodes, %llu tree bytes\n",
                static_cast<unsigned long long>(file_id),
                static_cast<unsigned long long>(st.value().n_items),
                static_cast<unsigned long long>(st.value().node_count),
                static_cast<unsigned long long>(st.value().tree_bytes));
    return 0;
  }

  if (cmd == "drop" && args.size() == 2) {
    auto fh = s.handle(std::strtoull(args[1].c_str(), nullptr, 10));
    if (!fh) {
      std::fprintf(stderr, "%s\n", fh.status().to_string().c_str());
      return 1;
    }
    auto handle = std::move(fh).value();
    if (auto st = s.client->drop_file(handle); !st) {
      std::fprintf(stderr, "drop failed: %s\n", st.to_string().c_str());
      return 1;
    }
    (void)s.keystore.remove(handle.id);
    std::printf("file dropped and key destroyed\n");
    return persist();
  }

  return usage();
}
