// Process-wide metrics: monotonic counters, gauges, and fixed-bucket
// latency histograms with quantile extraction (DESIGN.md §12).
//
// Design constraints, in order:
//   1. The hot path must be one relaxed fetch-add — no locks, no
//      allocation, no syscalls. Counters shard across cache lines so
//      concurrent writers do not bounce one line. There is no off switch:
//      every deployed binary records.
//   2. Instruments have stable addresses for the life of the process, so
//      call sites cache `Counter&` in a function-local static and skip the
//      registry lookup forever after.
//
// Exposition: `Registry::render_text()` emits a Prometheus-style text page
// (histograms as summaries with p50/p95/p99), `render_json()` the same
// data as one JSON object. Both are served by obs::MetricsHttpServer.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace fgad::obs {

/// Monotonic counter, sharded so concurrent increments from different
/// threads land on different cache lines.
class Counter {
 public:
  static constexpr std::size_t kShards = 8;

  void inc(std::uint64_t n = 1) {
    shards_[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Zeroes the counter (tests / bench resets only; not atomic as a whole).
  void reset() {
    for (Shard& s : shards_) {
      s.v.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };

  /// Threads pick a fixed shard round-robin at first use.
  static std::size_t shard_index() {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t idx =
        next.fetch_add(1, std::memory_order_relaxed) % kShards;
    return idx;
  }

  std::array<Shard, kShards> shards_;
};

/// A point-in-time value (worker occupancy, queue depth, ...).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket log-linear histogram for latency samples in nanoseconds.
//
// Bucket layout: values < 16 are exact; above that each power of two is
// split into 16 linear sub-buckets, so the relative quantile error is
// bounded by 1/16 ≈ 6% at any magnitude. Recording is a relaxed
// fetch-add on one bucket plus one on the sum — no locks.
class Histogram {
 public:
  // 16 exact buckets + 16 sub-buckets for each exponent 4..63.
  static constexpr std::size_t kBucketCount = 16 + 16 * 60;

  void observe(std::uint64_t v) {
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  std::uint64_t count() const {
    std::uint64_t total = 0;
    for (const auto& b : buckets_) {
      total += b.load(std::memory_order_relaxed);
    }
    return total;
  }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Quantile estimate (p in [0,1]) with linear interpolation inside the
  /// containing bucket. Returns 0 when empty.
  double quantile(double p) const;

  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    double p50 = 0;
    double p95 = 0;
    double p99 = 0;
    // Full per-bucket counts (size kBucketCount) when captured with
    // snapshot(/*with_buckets=*/true); empty otherwise. Carrying the
    // buckets is what makes snapshots an abelian group: the windowed
    // registry subtracts consecutive cumulative snapshots to get
    // per-interval deltas and merges deltas back into window totals
    // (DESIGN.md §17).
    std::vector<std::uint64_t> buckets;

    /// Adds `other` into this snapshot (counts, sum, buckets). Both
    /// sides must carry buckets unless one is empty.
    void merge(const Snapshot& other);
    /// Subtracts `other` (an earlier cumulative snapshot of the same
    /// histogram) from this one. Clamps at zero per bucket, so a racing
    /// writer can never produce an underflowed window.
    void subtract(const Snapshot& other);
    /// Quantile over the carried buckets (0 when empty or bucket-less).
    double quantile(double p) const;
    /// Refreshes p50/p95/p99 from the carried buckets.
    void recompute_quantiles();
  };
  Snapshot snapshot(bool with_buckets = false) const;

  void reset() {
    for (auto& b : buckets_) {
      b.store(0, std::memory_order_relaxed);
    }
    sum_.store(0, std::memory_order_relaxed);
  }

  static std::size_t bucket_of(std::uint64_t v);
  /// Inclusive lower bound of bucket `idx`.
  static std::uint64_t bucket_lower(std::size_t idx);

 private:
  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
};

/// RAII timer feeding a histogram in nanoseconds.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& h);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Nanoseconds elapsed so far.
  std::uint64_t elapsed_ns() const;

 private:
  Histogram& h_;
  const std::uint64_t start_ns_;
};

/// Monotonic wall clock in nanoseconds (steady_clock).
std::uint64_t now_ns();

/// Raw CPU tick counter for span/cost timing (DESIGN.md §19): a traced
/// request reads the clock twice per span, and at that rate the ~25 ns
/// vDSO clock_gettime dominates the instrumentation cost. rdtsc (x86) or
/// cntvct_el0 (arm64) reads in single-digit nanoseconds; ticks convert to
/// nanoseconds via the one-shot calibrated ratio in ticks_to_ns(). Falls
/// back to now_ns() (ratio 1) on other targets.
inline std::uint64_t now_ticks() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_ia32_rdtsc();
#elif defined(__aarch64__) && (defined(__GNUC__) || defined(__clang__))
  std::uint64_t v;
  asm volatile("mrs %0, cntvct_el0" : "=r"(v));
  return v;
#else
  return now_ns();
#endif
}

/// Converts a tick delta from now_ticks() to nanoseconds. Calibrates
/// lazily if calibrate_tick_clock() has not run yet.
std::uint64_t ticks_to_ns(std::uint64_t ticks);

/// One-shot (~200 µs spin) measurement of the tick clock's rate against
/// now_ns(). Idempotent and thread-safe; trace_begin() and
/// CostLedger::set_enabled(true) call it so the spin lands in setup, not
/// on a request path.
void calibrate_tick_clock();

/// JSON string-body escaping shared by every exposition surface
/// (/metrics.json, /vars.json, /readyz): `"` and `\` get a backslash,
/// control characters become \uXXXX. Metric names are caller-chosen
/// strings, so emitting them unescaped would let one odd name corrupt
/// the whole document.
std::string json_escape(std::string_view s);

/// Process-wide readiness state: a set of named conditions that block
/// serving (recovery replay in progress, shutdown checkpoint mid-flight,
/// sustained SLO overload). /healthz stays a cheap liveness probe;
/// /readyz returns 503 with these reasons while any condition is set.
class Readiness {
 public:
  static Readiness& instance();

  /// Sets (blocked=true, with a human-readable reason) or clears
  /// (blocked=false) one named condition.
  void set(std::string_view condition, bool blocked,
           std::string_view reason = "");
  bool ready() const;
  /// {"ready":bool,"reasons":{"condition":"reason",...}}
  std::string render_json() const;

  /// RAII guard: blocks `condition` for its lifetime.
  class Block {
   public:
    Block(std::string_view condition, std::string_view reason)
        : condition_(condition) {
      Readiness::instance().set(condition_, true, reason);
    }
    ~Block() { Readiness::instance().set(condition_, false); }
    Block(const Block&) = delete;
    Block& operator=(const Block&) = delete;

   private:
    std::string condition_;
  };

 private:
  Readiness() = default;
  mutable std::mutex mu_;
  std::map<std::string, std::string, std::less<>> blocked_;
};

/// Name → instrument map. Lookups take a mutex; instruments have stable
/// addresses, so call sites cache the reference:
///
///   static obs::Counter& c =
///       obs::Registry::instance().counter("fgad_..._total");
///   c.inc();
///
/// Naming scheme (DESIGN.md §12): fgad_<subsystem>_<what>[_<unit>], with
/// `_total` for counters and `_ns` for latency histograms.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Prometheus-style text exposition (counters/gauges as-is, histograms
  /// as summaries with quantile labels).
  std::string render_text() const;
  /// The same data as a single JSON object.
  std::string render_json() const;

  /// Stable-address instrument listings, sorted by name. The pointers
  /// stay valid for the life of the process (instruments are never
  /// destroyed), so the windowed registry can hold them across ticks.
  std::vector<std::pair<std::string, const Counter*>> all_counters() const;
  std::vector<std::pair<std::string, const Gauge*>> all_gauges() const;
  std::vector<std::pair<std::string, const Histogram*>> all_histograms() const;

  /// Zeroes every instrument without invalidating references (tests).
  void reset_all();

 private:
  Registry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace fgad::obs
