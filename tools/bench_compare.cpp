// bench_compare — the perf-regression gate (DESIGN.md §14).
//
//   bench_compare [options] OLD.json NEW.json
//   bench_compare [options] --old-dir DIR --new-dir DIR
//
// Diffs a fresh bench run against a recorded baseline (the
// bench/results/BENCH_*.json snapshots), matching rows by their
// non-metric fields and flagging any metric that moved past its relative
// tolerance in the bad direction. Directory mode compares every
// BENCH_*.json present in both directories.
//
// Options:
//   --tolerance PCT        default relative tolerance (default 15)
//   --p99-tolerance PCT    tolerance for *_p99_* quantiles (default 35)
//   --metric NAME=PCT      per-metric override (repeatable)
//   --report FILE          write the machine-readable JSON verdict here
//   --warn-only            print regressions but exit 0 (shared CI runners,
//                          where a noisy neighbor is not a regression)
//
// Exit codes: 0 = within tolerance (or --warn-only), 1 = regression
// detected or no row of a baseline matched, 2 = usage or I/O error.
#include <dirent.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_compare_core.h"
#include "common/fsio.h"

namespace {

using namespace fgad;

Result<benchcmp::BenchFile> load(const std::string& path) {
  auto data = fsio::read_file(path);
  if (!data) {
    return data.error();
  }
  const Bytes& b = data.value();
  auto parsed = benchcmp::parse_bench_json(
      std::string(reinterpret_cast<const char*>(b.data()), b.size()));
  if (!parsed) {
    return Error(parsed.code(), path + ": " + parsed.status().to_string());
  }
  return parsed;
}

std::vector<std::string> list_bench_files(const std::string& dir) {
  std::vector<std::string> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return out;
  }
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.size() > 11 && name.compare(0, 6, "BENCH_") == 0 &&
        name.compare(name.size() - 5, 5, ".json") == 0) {
      out.push_back(name);
    }
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: bench_compare [--tolerance PCT] [--p99-tolerance PCT]\n"
      "                     [--metric NAME=PCT]... [--report FILE]\n"
      "                     [--warn-only] OLD.json NEW.json\n"
      "       bench_compare [options] --old-dir DIR --new-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  benchcmp::CompareOptions opts;
  std::string report_path;
  std::string old_dir;
  std::string new_dir;
  bool warn_only = false;
  std::vector<std::string> positional;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tolerance" && i + 1 < argc) {
      opts.tolerance = std::atof(argv[++i]) / 100.0;
    } else if (arg == "--p99-tolerance" && i + 1 < argc) {
      opts.p99_tolerance = std::atof(argv[++i]) / 100.0;
    } else if (arg == "--metric" && i + 1 < argc) {
      const std::string spec = argv[++i];
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "--metric needs NAME=PCT, got %s\n",
                     spec.c_str());
        return 2;
      }
      opts.per_metric[spec.substr(0, eq)] =
          std::atof(spec.c_str() + eq + 1) / 100.0;
    } else if (arg == "--report" && i + 1 < argc) {
      report_path = argv[++i];
    } else if (arg == "--old-dir" && i + 1 < argc) {
      old_dir = argv[++i];
    } else if (arg == "--new-dir" && i + 1 < argc) {
      new_dir = argv[++i];
    } else if (arg == "--warn-only") {
      warn_only = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return 2;
    } else {
      positional.push_back(arg);
    }
  }

  // Assemble (name, old path, new path) pairs for either mode.
  struct Pair {
    std::string name, old_path, new_path;
  };
  std::vector<Pair> pairs;
  if (!old_dir.empty() || !new_dir.empty()) {
    if (old_dir.empty() || new_dir.empty() || !positional.empty()) {
      return usage();
    }
    const auto old_files = list_bench_files(old_dir);
    for (const std::string& f : old_files) {
      if (fsio::exists(new_dir + "/" + f)) {
        pairs.push_back(Pair{f, old_dir + "/" + f, new_dir + "/" + f});
      } else {
        std::fprintf(stderr, "note: %s has no counterpart in %s (skipped)\n",
                     f.c_str(), new_dir.c_str());
      }
    }
    if (pairs.empty()) {
      std::fprintf(stderr, "no BENCH_*.json pairs between %s and %s\n",
                   old_dir.c_str(), new_dir.c_str());
      return 2;
    }
  } else {
    if (positional.size() != 2) {
      return usage();
    }
    pairs.push_back(Pair{positional[1], positional[0], positional[1]});
  }

  std::string report = "{\"comparisons\":[";
  bool any_regression = false;
  bool io_error = false;
  bool first = true;
  for (const Pair& p : pairs) {
    auto oldf = load(p.old_path);
    auto newf = load(p.new_path);
    if (!oldf || !newf) {
      std::fprintf(stderr, "%s\n",
                   (!oldf ? oldf.status() : newf.status()).to_string().c_str());
      io_error = true;
      continue;
    }
    const auto result =
        benchcmp::compare(oldf.value(), newf.value(), opts);
    const std::string name =
        oldf.value().bench.empty() ? p.name : oldf.value().bench;
    std::fputs(benchcmp::render_report_text(name, result).c_str(), stdout);
    report += (first ? "" : ",") + benchcmp::render_report_json(name, result);
    first = false;
    any_regression = any_regression || !result.ok();
  }
  report += "],\"verdict\":\"";
  report += any_regression ? "regression" : "ok";
  report += "\"}";

  if (!report_path.empty()) {
    if (auto st = fsio::atomic_write_file(
            report_path,
            BytesView(reinterpret_cast<const std::uint8_t*>(report.data()),
                      report.size()));
        !st) {
      std::fprintf(stderr, "cannot write report: %s\n",
                   st.to_string().c_str());
      return 2;
    }
    std::printf("report written to %s\n", report_path.c_str());
  }
  if (io_error) {
    return 2;
  }
  if (any_regression) {
    std::printf("%s\n", warn_only
                            ? "verdict: regression (warn-only mode, exit 0)"
                            : "verdict: regression");
    return warn_only ? 0 : 1;
  }
  std::printf("verdict: ok\n");
  return 0;
}
