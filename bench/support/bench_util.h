// Shared benchmark scaffolding for the paper-reproduction harnesses.
//
// Each bench binary regenerates one table or figure of the paper. They all
// build the two-party stack natively (Outsourcer -> CloudServer) so setup
// cost does not pollute the measured operations, then drive the measured
// operations through the real wire protocol behind a CountingChannel.
//
// Environment knobs:
//   FGAD_MAX_N  — caps the largest n in sweeps (default: paper scale, 1e7)
//   FGAD_SAMPLES — operations averaged per data point (default 200)
#pragma once

#include <sys/statfs.h>
#include <sys/utsname.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "client/client.h"
#include "cloud/server.h"
#include "common/stopwatch.h"
#include "core/outsource.h"
#include "net/transport.h"

namespace fgad::bench {

inline std::size_t env_size(const char* name, std::size_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    return def;
  }
  return static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

inline std::size_t max_n() {
  return env_size("FGAD_MAX_N", 10'000'000);
}

inline std::size_t sample_count() {
  return env_size("FGAD_SAMPLES", 200);
}

/// Deterministic small payload (the sweep benches measure protocol
/// overhead, which excludes item payloads; see the paper's metric note).
inline Bytes small_item(std::size_t i) {
  Bytes b(16, 0);
  for (int k = 0; k < 8; ++k) {
    b[static_cast<std::size_t>(k)] = static_cast<std::uint8_t>(i >> (8 * k));
  }
  return b;
}

/// 4 KB payload (Table II / Table III use the paper's item size).
inline Bytes item_4k(std::size_t i) {
  Bytes b(4096, static_cast<std::uint8_t>(i * 131 + 7));
  for (int k = 0; k < 8; ++k) {
    b[static_cast<std::size_t>(k)] = static_cast<std::uint8_t>(i >> (8 * k));
  }
  return b;
}

/// A fully assembled two-party stack with byte counting.
struct Stack {
  cloud::CloudServer server;
  net::DirectChannel direct;
  net::CountingChannel channel;
  crypto::DeterministicRandom rnd;
  client::Client client;
  client::Client::FileHandle fh;

  explicit Stack(crypto::HashAlg alg = crypto::HashAlg::kSha1,
                 std::uint64_t seed = 1)
      : server(cloud::CloudServer::Options{/*track_duplicates=*/false,
                                           /*enable_integrity=*/false}),
        direct([this](BytesView req) { return server.handle(req); }),
        channel(direct),
        rnd(seed),
        client(channel, rnd, client::Client::Options{alg}) {}

  /// Builds a file of n items natively (bypassing the wire for setup).
  void build_file(std::uint64_t file_id, std::size_t n,
                  const std::function<Bytes(std::size_t)>& item_at) {
    core::Outsourcer out(client.math().alg(), /*track_duplicates=*/false);
    fh.id = file_id;
    fh.key = crypto::MasterKey::generate(rnd, client.math().width());
    std::uint64_t counter = client.counter();
    auto built = out.build(fh.key, n, item_at, counter, rnd);
    client.set_counter(counter);
    std::vector<cloud::FileStore::IngestItem> items;
    items.reserve(built.items.size());
    for (auto& it : built.items) {
      items.push_back(cloud::FileStore::IngestItem{
          it.item_id, std::move(it.ciphertext), it.plain_size});
    }
    built.items.clear();
    built.items.shrink_to_fit();
    auto st = server.outsource(file_id, std::move(built.tree),
                               std::move(items));
    if (!st) {
      std::fprintf(stderr, "bench setup failed: %s\n",
                   st.to_string().c_str());
      std::abort();
    }
  }
};

/// Picks `count` pseudo-random live item ids from [0, n).
inline std::vector<std::uint64_t> sample_ids(std::size_t n, std::size_t count,
                                             std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> ids;
  ids.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ids.push_back(rng.next_below(n));
  }
  return ids;
}

inline std::string human_bytes(double b) {
  char buf[64];
  if (b >= 1024.0 * 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.2f GB", b / (1024.0 * 1024.0 * 1024.0));
  } else if (b >= 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.2f MB", b / (1024.0 * 1024.0));
  } else if (b >= 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.2f KB", b / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f B", b);
  }
  return buf;
}

// ---- machine-readable results -------------------------------------------
//
// Every bench binary, in addition to its human-readable table, writes
// BENCH_<name>.json (into $FGAD_BENCH_JSON_DIR, default the working
// directory) so results can be diffed, plotted, and regression-checked
// without scraping stdout. Format:
//
//   { "bench": "<name>", "schema": 1,
//     "meta": { ...free-form run parameters... },
//     "rows": [ { ...one object per table row... }, ... ] }
//
// Values are numbers or strings; rows need not share a column set.
class BenchJson {
 public:
  /// One JSON object ({"k": v, ...}) built by chained set() calls.
  class Obj {
   public:
    template <typename T>
    Obj& set(const std::string& key, const T& value) {
      fields_.emplace_back(key, encode(value));
      return *this;
    }

   private:
    friend class BenchJson;

    static std::string encode(double v) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      return buf;
    }
    template <typename T>
      requires std::is_integral_v<T>
    static std::string encode(T v) {
      char buf[32];
      if constexpr (std::is_signed_v<T>) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
      } else {
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(v));
      }
      return buf;
    }
    static std::string encode(const std::string& v) {
      std::string out = "\"";
      for (char c : v) {
        if (c == '"' || c == '\\') {
          out.push_back('\\');
          out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
      }
      out.push_back('"');
      return out;
    }
    static std::string encode(const char* v) { return encode(std::string(v)); }

    std::string to_json() const {
      std::string out = "{";
      for (std::size_t i = 0; i < fields_.size(); ++i) {
        if (i > 0) out += ", ";
        out += encode(fields_[i].first) + ": " + fields_[i].second;
      }
      out += "}";
      return out;
    }

    std::vector<std::pair<std::string, std::string>> fields_;
  };

  explicit BenchJson(std::string name) : name_(std::move(name)) {
    meta_.set("max_n", max_n()).set("samples", sample_count());
  }
  ~BenchJson() { write(); }
  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;

  /// Run-level parameters recorded once per file.
  Obj& meta() { return meta_; }
  /// Appends and returns a fresh result row.
  Obj& row() { return rows_.emplace_back(); }

  /// Writes BENCH_<name>.json; called automatically on destruction.
  void write() {
    if (written_) return;
    written_ = true;
    std::string dir = ".";
    if (const char* d = std::getenv("FGAD_BENCH_JSON_DIR");
        d != nullptr && *d != '\0') {
      dir = d;
    }
    const std::string path = dir + "/BENCH_" + name_ + ".json";
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "BenchJson: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": %s,\n  \"schema\": 1,\n  \"meta\": %s,\n"
                    "  \"rows\": [\n",
                 Obj::encode(name_).c_str(), meta_.to_json().c_str());
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "    %s%s\n", rows_[i].to_json().c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s (%zu rows)\n", path.c_str(), rows_.size());
  }

 private:
  std::string name_;
  Obj meta_;
  std::vector<Obj> rows_;
  bool written_ = false;
};

/// Records the host a snapshot was captured on: cores, the filesystem
/// holding `dir` and the kernel release.
inline void set_host_meta(BenchJson::Obj& meta, const std::string& dir) {
  const char* fs = "unknown";
  struct statfs sf {};
  if (::statfs(dir.c_str(), &sf) == 0) {
    switch (static_cast<unsigned long>(sf.f_type)) {
      case 0xEF53: fs = "ext2/3/4"; break;
      case 0x01021994: fs = "tmpfs"; break;
      case 0x58465342: fs = "xfs"; break;
      case 0x9123683E: fs = "btrfs"; break;
      case 0x794c7630: fs = "overlayfs"; break;
      default: fs = "other"; break;
    }
  }
  struct utsname u {};
  meta.set("cores", std::thread::hardware_concurrency())
      .set("fs", fs)
      .set("kernel", ::uname(&u) == 0 ? std::string(u.release) : "unknown");
}

// ---- per-operation latency quantiles ------------------------------------
//
// The sweeps report averages (matching the paper's tables); the recorder
// adds exact p50/p95/p99 per operation on top, timed with the same
// common/stopwatch.h clock the averages use. Samples are kept raw and
// sorted on demand — bench rep counts are small, exactness beats bucketing.
class LatencyRecorder {
 public:
  void record_ns(std::uint64_t ns) { samples_.push_back(ns); }
  void reset() { samples_.clear(); }
  std::size_t count() const { return samples_.size(); }

  /// Exact p-th quantile (nearest-rank) in microseconds; 0 when empty.
  double quantile_us(double p) const {
    if (samples_.empty()) {
      return 0.0;
    }
    std::vector<std::uint64_t> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    const double rank = p * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    const double ns = static_cast<double>(sorted[lo]) +
                      frac * (static_cast<double>(sorted[hi]) -
                              static_cast<double>(sorted[lo]));
    return ns / 1e3;
  }

  /// Writes <prefix>_p50_us / _p95_us / _p99_us / _samples into a row.
  void emit(BenchJson::Obj& row, const std::string& prefix) const {
    row.set(prefix + "_p50_us", quantile_us(0.50))
        .set(prefix + "_p95_us", quantile_us(0.95))
        .set(prefix + "_p99_us", quantile_us(0.99))
        .set(prefix + "_samples", count());
  }

  /// RAII: times one operation into the recorder.
  class Timed {
   public:
    explicit Timed(LatencyRecorder& r) : r_(r) {}
    ~Timed() { r_.record_ns(sw_.elapsed_ns()); }
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

   private:
    LatencyRecorder& r_;
    Stopwatch sw_;
  };

 private:
  std::vector<std::uint64_t> samples_;
};

inline std::string human_time(double seconds) {
  char buf[64];
  if (seconds >= 60.0) {
    std::snprintf(buf, sizeof(buf), "%.1f min", seconds / 60.0);
  } else if (seconds >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2f s", seconds);
  } else if (seconds >= 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", seconds * 1e3);
  } else if (seconds >= 1e-6) {
    std::snprintf(buf, sizeof(buf), "%.2f us", seconds * 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f ns", seconds * 1e9);
  }
  return buf;
}

}  // namespace fgad::bench
