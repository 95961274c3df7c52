// fgad_mon — fleet aggregator for a set of fgad_server metrics endpoints.
//
//   fgad_mon --endpoints H:P[,H:P...] [--window 60] [--interval-ms 2000]
//            [--lag-records N] [--once] [--json]
//
// Polls every endpoint's GET /vars.json?window=<W> and GET /readyz,
// extracts the windowed RPC/error rates, handle latency quantiles, and
// the replication role/term/lag gauges (DESIGN.md §18), and merges them
// into one cluster view: total qps, cluster error rate, who is primary,
// and the worst follower lag. Between polls it diffs each node's
// role/term and flags transitions loudly — a failover shows up as one
// line naming the node, the role flip, and the term bump, without
// grepping two servers' logs. Below the cluster table, the table mode
// prints two tables per reachable node: windowed qps and p50/p95/p99 of
// every fgad_server_* histogram, and the SLO tracker's burn rates.
//
// Flagged conditions:
//   FAILOVER   a node's role or fencing term changed between polls
//   NOT-READY  /readyz reports 503 (recovery replay, shutdown, overload)
//   OVERLOAD   the node's SLO tracker reports burn-rate overload
//   LAG        follower lag exceeds --lag-records (default 1024)
//   SPLIT      more than one node claims primary (fencing in progress)
//   DOWN       endpoint unreachable
//
// --once prints a single snapshot and exits non-zero if any endpoint is
// down (CI smoke / scripting); --json emits the merged cluster view as
// one JSON document instead of the table.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "mon_util.h"

namespace {

using fgad::montool::Entry;
using fgad::montool::entries_of;
using fgad::montool::http_get;
using fgad::montool::number_field;
using fgad::montool::object_after;
using fgad::montool::split_host_port;

volatile std::sig_atomic_t g_stop = 0;
void on_sigint(int) { g_stop = 1; }

struct NodeState {
  std::string endpoint;
  std::string host;
  std::uint16_t port = 0;

  bool up = false;
  bool ready = false;
  bool overloaded = false;
  bool has_role = false;
  bool primary = false;
  double term = 0;
  double lag_records = 0;
  double lag_bytes = 0;
  double rpc_per_s = 0;
  double err_per_s = 0;
  double p99_ms = 0;
  double covered_s = 0;
  std::string histograms;  // this poll's /vars.json "histograms" object
  std::string slo;         // ... and its "slo" object

  // previous poll, for transition detection
  bool seen_before = false;
  bool prev_primary = false;
  double prev_term = 0;
};

/// One poll of one node; returns false when the endpoint is unreachable.
bool poll(NodeState& n, unsigned window_s) {
  n.up = false;
  const std::string vars = http_get(
      n.host, n.port, "/vars.json?window=" + std::to_string(window_s) + "s");
  if (vars.empty()) {
    return false;
  }
  n.up = true;
  n.covered_s = number_field(vars, "covered_s");
  for (const Entry& e : entries_of(object_after(vars, "counters"))) {
    if (e.name == "fgad_server_rpcs_total") {
      n.rpc_per_s = number_field(e.obj, "rate_per_s");
    } else if (e.name == "fgad_server_rpc_errors_total") {
      n.err_per_s = number_field(e.obj, "rate_per_s");
    }
  }
  n.has_role = false;
  for (const Entry& e : entries_of(object_after(vars, "gauges"))) {
    if (e.name == "fgad_repl_role") {
      n.has_role = true;
      n.primary = number_field(e.obj, "value") != 0;
    } else if (e.name == "fgad_repl_term") {
      n.term = number_field(e.obj, "value");
    } else if (e.name == "fgad_repl_lag_records") {
      n.lag_records = number_field(e.obj, "value");
    } else if (e.name == "fgad_repl_lag_bytes") {
      n.lag_bytes = number_field(e.obj, "value");
    }
  }
  n.histograms = object_after(vars, "histograms");
  for (const Entry& e : entries_of(n.histograms)) {
    if (e.name == "fgad_server_handle_ns") {
      n.p99_ms = number_field(e.obj, "p99_ns") / 1e6;
    }
  }
  if (!n.has_role) {
    // A freshly started node has not finished its first windowed tick,
    // so /vars.json carries no gauges yet — but a failover monitor is
    // most useful exactly around restarts. Fall back to the
    // instantaneous gauge values in /metrics.json.
    const std::string gauges =
        object_after(http_get(n.host, n.port, "/metrics.json"), "gauges");
    if (gauges.find("\"fgad_repl_role\"") != std::string::npos) {
      n.has_role = true;
      n.primary = number_field(gauges, "fgad_repl_role") != 0;
      n.term = number_field(gauges, "fgad_repl_term");
      n.lag_records = number_field(gauges, "fgad_repl_lag_records");
      n.lag_bytes = number_field(gauges, "fgad_repl_lag_bytes");
    }
  }
  n.slo = object_after(vars, "slo");
  n.overloaded = n.slo.find("\"overloaded\":true") != std::string::npos;
  // /readyz answers {"ready":true,...} with 200, or the blocking
  // reasons with 503 — the body carries the verdict either way.
  const std::string readyz = http_get(n.host, n.port, "/readyz");
  n.ready = readyz.find("\"ready\":true") != std::string::npos;
  return true;
}

void emit_transitions(NodeState& n) {
  if (n.up && n.seen_before &&
      (n.prev_primary != n.primary || n.prev_term != n.term) && n.has_role) {
    std::printf("*** FAILOVER %s: %s -> %s, term %.0f -> %.0f\n",
                n.endpoint.c_str(), n.prev_primary ? "primary" : "backup",
                n.primary ? "primary" : "backup", n.prev_term, n.term);
  }
  if (n.up) {
    n.seen_before = true;
    n.prev_primary = n.primary;
    n.prev_term = n.term;
  }
}

std::string flags_of(const NodeState& n, double lag_threshold) {
  if (!n.up) {
    return "DOWN";
  }
  std::string f;
  const auto add = [&f](const char* s) {
    if (!f.empty()) {
      f += ",";
    }
    f += s;
  };
  if (!n.ready) add("NOT-READY");
  if (n.overloaded) add("OVERLOAD");
  if (n.has_role && !n.primary && n.lag_records > lag_threshold) add("LAG");
  return f.empty() ? "-" : f;
}

/// One node's per-RPC histogram table and SLO burn-rate table.
void render_node(const NodeState& n) {
  std::printf("\n[%s]\n%-44s %10s %10s %10s %10s\n", n.endpoint.c_str(),
              "histogram", "qps", "p50(ms)", "p95(ms)", "p99(ms)");
  for (const Entry& e : entries_of(n.histograms)) {
    if (e.name.rfind("fgad_server_", 0) != 0) {
      continue;
    }
    std::printf("%-44s %10.1f %10.3f %10.3f %10.3f\n", e.name.c_str(),
                number_field(e.obj, "rate_per_s"),
                number_field(e.obj, "p50_ns") / 1e6,
                number_field(e.obj, "p95_ns") / 1e6,
                number_field(e.obj, "p99_ns") / 1e6);
  }
  if (n.slo.empty()) {
    return;
  }
  std::printf("\n%-28s %12s %12s %10s %9s\n", "slo objective", "burn(short)",
              "burn(long)", "breached", "breaches");
  // Objectives are an array of objects: scan for their "name" fields.
  std::size_t pos = 0;
  while ((pos = n.slo.find("{\"name\":\"", pos)) != std::string::npos) {
    const std::size_t n1 = pos + 9;
    const std::size_t n2 = n.slo.find('"', n1);
    if (n2 == std::string::npos) {
      break;
    }
    std::size_t end = n.slo.find('}', n2);
    if (end == std::string::npos) {
      end = n.slo.size();
    }
    const std::string obj = n.slo.substr(pos, end - pos + 1);
    std::printf("%-28s %12.3f %12.3f %10s %9.0f\n",
                n.slo.substr(n1, n2 - n1).c_str(),
                number_field(obj, "short_burn"), number_field(obj, "long_burn"),
                obj.find("\"breached\":true") != std::string::npos ? "YES"
                                                                   : "no",
                number_field(obj, "breaches"));
    pos = end + 1;
  }
}

void render_table(std::vector<NodeState>& nodes, double lag_threshold,
                  bool clear) {
  if (clear) {
    std::printf("\x1b[H\x1b[2J");
  }
  double total_rpc = 0, total_err = 0, max_lag = 0;
  int primaries = 0, down = 0;
  std::printf("%-22s %-8s %6s %5s %10s %10s %10s  %s\n", "endpoint", "role",
              "term", "ready", "rpc/s", "err/s", "p99(ms)", "flags");
  for (NodeState& n : nodes) {
    emit_transitions(n);
    total_rpc += n.rpc_per_s;
    total_err += n.err_per_s;
    if (n.up && n.has_role && n.primary) {
      ++primaries;
    }
    if (n.up && n.has_role && !n.primary) {
      max_lag = std::max(max_lag, n.lag_records);
    }
    if (!n.up) {
      ++down;
    }
    std::printf("%-22s %-8s %6.0f %5s %10.1f %10.3f %10.3f  %s\n",
                n.endpoint.c_str(),
                !n.up ? "?" : (n.has_role ? (n.primary ? "primary" : "backup")
                                          : "single"),
                n.term, n.up ? (n.ready ? "yes" : "NO") : "?", n.rpc_per_s,
                n.err_per_s, n.p99_ms, flags_of(n, lag_threshold).c_str());
  }
  std::printf("\ncluster: %.1f rpc/s  %.3f err/s  %d primar%s  max lag %.0f "
              "records  %d down\n",
              total_rpc, total_err, primaries, primaries == 1 ? "y" : "ies",
              max_lag, down);
  if (primaries > 1) {
    std::printf("*** SPLIT: %d nodes claim primary — fencing in progress\n",
                primaries);
  }
  for (const NodeState& n : nodes) {
    if (n.up) {
      render_node(n);
    }
  }
  std::fflush(stdout);
}

void render_json(std::vector<NodeState>& nodes, double lag_threshold) {
  double total_rpc = 0, total_err = 0, max_lag = 0;
  int primaries = 0, down = 0;
  std::printf("{\"nodes\":[");
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    NodeState& n = nodes[i];
    total_rpc += n.rpc_per_s;
    total_err += n.err_per_s;
    if (n.up && n.has_role && n.primary) {
      ++primaries;
    }
    if (n.up && n.has_role && !n.primary) {
      max_lag = std::max(max_lag, n.lag_records);
    }
    if (!n.up) {
      ++down;
    }
    std::printf(
        "%s{\"endpoint\":\"%s\",\"up\":%s,\"ready\":%s,\"role\":\"%s\","
        "\"term\":%.0f,\"lag_records\":%.0f,\"lag_bytes\":%.0f,"
        "\"rpc_per_s\":%.3f,\"err_per_s\":%.3f,\"p99_ms\":%.3f,"
        "\"flags\":\"%s\"}",
        i == 0 ? "" : ",", n.endpoint.c_str(), n.up ? "true" : "false",
        n.ready ? "true" : "false",
        !n.up ? "unknown"
              : (n.has_role ? (n.primary ? "primary" : "backup") : "single"),
        n.term, n.lag_records, n.lag_bytes, n.rpc_per_s, n.err_per_s,
        n.p99_ms, flags_of(n, lag_threshold).c_str());
  }
  std::printf("],\"cluster\":{\"rpc_per_s\":%.3f,\"err_per_s\":%.3f,"
              "\"primaries\":%d,\"max_lag_records\":%.0f,\"down\":%d,"
              "\"split\":%s}}\n",
              total_rpc, total_err, primaries, max_lag, down,
              primaries > 1 ? "true" : "false");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string endpoints;
  unsigned window_s = 60;
  unsigned interval_ms = 2000;
  double lag_threshold = 1024;
  bool once = false;
  bool json = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--endpoints" && i + 1 < argc) {
      endpoints = argv[++i];
    } else if (arg == "--window" && i + 1 < argc) {
      window_s = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (arg == "--interval-ms" && i + 1 < argc) {
      interval_ms = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (arg == "--lag-records" && i + 1 < argc) {
      lag_threshold = std::atof(argv[++i]);
    } else if (arg == "--once") {
      once = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: fgad_mon --endpoints H:P[,H:P...] [--window S]\n"
          "                [--interval-ms N] [--lag-records N] [--once] "
          "[--json]\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (endpoints.empty()) {
    std::fprintf(stderr, "fgad_mon: --endpoints is required\n");
    return 2;
  }

  std::vector<NodeState> nodes;
  std::size_t pos = 0;
  while (pos <= endpoints.size()) {
    std::size_t comma = endpoints.find(',', pos);
    if (comma == std::string::npos) {
      comma = endpoints.size();
    }
    const std::string spec = endpoints.substr(pos, comma - pos);
    if (!spec.empty()) {
      NodeState n;
      n.endpoint = spec;
      auto hp = split_host_port(spec);
      if (hp.second == 0) {
        std::fprintf(stderr, "fgad_mon: bad endpoint %s\n", spec.c_str());
        return 2;
      }
      n.host = hp.first;
      n.port = hp.second;
      nodes.push_back(std::move(n));
    }
    pos = comma + 1;
  }
  if (nodes.empty()) {
    std::fprintf(stderr, "fgad_mon: --endpoints is required\n");
    return 2;
  }

  std::signal(SIGINT, on_sigint);
  do {
    int down = 0;
    for (NodeState& n : nodes) {
      if (!poll(n, window_s)) {
        ++down;
      }
    }
    if (json) {
      render_json(nodes, lag_threshold);
    } else {
      render_table(nodes, lag_threshold, /*clear=*/!once);
    }
    if (once) {
      return down > 0 ? 1 : 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  } while (!g_stop);
  return 0;
}
