#include "obs/metrics.h"

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <mutex>

namespace fgad::obs {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

std::atomic<double> g_ns_per_tick{0.0};  // 0 = not yet calibrated

}  // namespace

void calibrate_tick_clock() {
  static std::once_flag once;
  std::call_once(once, [] {
    const std::uint64_t ns0 = now_ns();
    const std::uint64_t t0 = now_ticks();
    std::uint64_t ns1 = ns0;
    std::uint64_t t1 = t0;
    // A ~200 µs window keeps the ratio error from the ~25 ns clock-read
    // jitter below 0.05% while staying invisible inside process startup.
    do {
      ns1 = now_ns();
      t1 = now_ticks();
    } while (ns1 - ns0 < 200'000);
    g_ns_per_tick.store(t1 == t0 ? 1.0
                                 : static_cast<double>(ns1 - ns0) /
                                       static_cast<double>(t1 - t0),
                        std::memory_order_relaxed);
  });
}

std::uint64_t ticks_to_ns(std::uint64_t ticks) {
  double r = g_ns_per_tick.load(std::memory_order_relaxed);
  if (r == 0.0) {
    calibrate_tick_clock();
    r = g_ns_per_tick.load(std::memory_order_relaxed);
  }
  return static_cast<std::uint64_t>(static_cast<double>(ticks) * r);
}

std::size_t Histogram::bucket_of(std::uint64_t v) {
  if (v < 16) {
    return static_cast<std::size_t>(v);
  }
  // v in [2^k, 2^(k+1)), k >= 4: exponent group k-4, linear sub-bucket
  // from the 4 bits below the leading one.
  const unsigned k = static_cast<unsigned>(std::bit_width(v)) - 1;
  const std::size_t sub = static_cast<std::size_t>((v >> (k - 4)) - 16);
  return 16 + (static_cast<std::size_t>(k) - 4) * 16 + sub;
}

std::uint64_t Histogram::bucket_lower(std::size_t idx) {
  if (idx < 16) {
    return idx;
  }
  const std::size_t e = (idx - 16) / 16;
  const std::size_t sub = (idx - 16) % 16;
  return (16 + static_cast<std::uint64_t>(sub)) << e;
}

namespace {

/// Shared quantile kernel over any bucket-count array laid out with the
/// Histogram bucket geometry (used by both the live histogram and
/// windowed Snapshot deltas).
double quantile_over(const std::uint64_t* counts, std::size_t n_buckets,
                     std::uint64_t total, double p) {
  if (total == 0) {
    return 0;
  }
  if (p < 0) p = 0;
  if (p > 1) p = 1;
  const double rank = p * static_cast<double>(total);
  double cum = 0;
  for (std::size_t i = 0; i < n_buckets; ++i) {
    if (counts[i] == 0) {
      continue;
    }
    const double next = cum + static_cast<double>(counts[i]);
    if (next >= rank) {
      const double lo = static_cast<double>(Histogram::bucket_lower(i));
      const double hi = i + 1 < n_buckets
                            ? static_cast<double>(Histogram::bucket_lower(i + 1))
                            : lo * 2;
      const double frac = (rank - cum) / static_cast<double>(counts[i]);
      return lo + (hi - lo) * frac;
    }
    cum = next;
  }
  return static_cast<double>(Histogram::bucket_lower(n_buckets - 1));
}

}  // namespace

double Histogram::quantile(double p) const {
  std::array<std::uint64_t, kBucketCount> counts;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  return quantile_over(counts.data(), kBucketCount, total, p);
}

Histogram::Snapshot Histogram::snapshot(bool with_buckets) const {
  Snapshot s;
  if (with_buckets) {
    s.buckets.resize(kBucketCount);
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
      s.count += s.buckets[i];
    }
    s.sum = sum();
    s.recompute_quantiles();
    return s;
  }
  s.count = count();
  s.sum = sum();
  s.p50 = quantile(0.50);
  s.p95 = quantile(0.95);
  s.p99 = quantile(0.99);
  return s;
}

void Histogram::Snapshot::merge(const Snapshot& other) {
  count += other.count;
  sum += other.sum;
  if (other.buckets.empty()) {
    return;
  }
  if (buckets.empty()) {
    buckets = other.buckets;
    return;
  }
  for (std::size_t i = 0; i < buckets.size() && i < other.buckets.size();
       ++i) {
    buckets[i] += other.buckets[i];
  }
}

void Histogram::Snapshot::subtract(const Snapshot& other) {
  count = count > other.count ? count - other.count : 0;
  sum = sum > other.sum ? sum - other.sum : 0;
  for (std::size_t i = 0; i < buckets.size() && i < other.buckets.size();
       ++i) {
    buckets[i] = buckets[i] > other.buckets[i] ? buckets[i] - other.buckets[i]
                                               : 0;
  }
}

double Histogram::Snapshot::quantile(double p) const {
  if (buckets.empty()) {
    return 0;
  }
  std::uint64_t total = 0;
  for (std::uint64_t c : buckets) {
    total += c;
  }
  return quantile_over(buckets.data(), buckets.size(), total, p);
}

void Histogram::Snapshot::recompute_quantiles() {
  p50 = quantile(0.50);
  p95 = quantile(0.95);
  p99 = quantile(0.99);
}

ScopedTimer::ScopedTimer(Histogram& h) : h_(h), start_ns_(now_ns()) {}

ScopedTimer::~ScopedTimer() {
  h_.observe(now_ns() - start_ns_);
}

std::uint64_t ScopedTimer::elapsed_ns() const {
  return now_ns() - start_ns_;
}

Registry& Registry::instance() {
  static Registry r;
  return r;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

namespace {
void append_num(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}
void append_num(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(v));
  out += buf;
}
void append_num(std::string& out, std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out += buf;
}
}  // namespace

std::string Registry::render_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out.reserve(4096);
  for (const auto& [name, c] : counters_) {
    out += "# TYPE " + name + " counter\n" + name + " ";
    append_num(out, c->value());
    out += "\n";
  }
  for (const auto& [name, g] : gauges_) {
    out += "# TYPE " + name + " gauge\n" + name + " ";
    append_num(out, g->value());
    out += "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const Histogram::Snapshot s = h->snapshot();
    out += "# TYPE " + name + " summary\n";
    out += name + "{quantile=\"0.5\"} ";
    append_num(out, s.p50);
    out += "\n" + name + "{quantile=\"0.95\"} ";
    append_num(out, s.p95);
    out += "\n" + name + "{quantile=\"0.99\"} ";
    append_num(out, s.p99);
    out += "\n" + name + "_sum ";
    append_num(out, s.sum);
    out += "\n" + name + "_count ";
    append_num(out, s.count);
    out += "\n";
  }
  return out;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    const auto u = static_cast<unsigned char>(ch);
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", u);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::string Registry::render_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(name) + "\":";
    append_num(out, c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(name) + "\":";
    append_num(out, g->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ",";
    first = false;
    const Histogram::Snapshot s = h->snapshot();
    out += "\"" + json_escape(name) + "\":{\"count\":";
    append_num(out, s.count);
    out += ",\"sum_ns\":";
    append_num(out, s.sum);
    out += ",\"p50_ns\":";
    append_num(out, s.p50);
    out += ",\"p95_ns\":";
    append_num(out, s.p95);
    out += ",\"p99_ns\":";
    append_num(out, s.p99);
    out += "}";
  }
  out += "}}";
  return out;
}

std::vector<std::pair<std::string, const Counter*>> Registry::all_counters()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, const Counter*>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    out.emplace_back(name, c.get());
  }
  return out;
}

std::vector<std::pair<std::string, const Gauge*>> Registry::all_gauges()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, const Gauge*>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    out.emplace_back(name, g.get());
  }
  return out;
}

std::vector<std::pair<std::string, const Histogram*>> Registry::all_histograms()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, const Histogram*>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    out.emplace_back(name, h.get());
  }
  return out;
}

// ---- readiness -------------------------------------------------------------

Readiness& Readiness::instance() {
  static Readiness r;
  return r;
}

void Readiness::set(std::string_view condition, bool blocked,
                    std::string_view reason) {
  std::lock_guard<std::mutex> lock(mu_);
  if (blocked) {
    blocked_[std::string(condition)] = std::string(reason);
  } else {
    const auto it = blocked_.find(condition);
    if (it != blocked_.end()) {
      blocked_.erase(it);
    }
  }
}

bool Readiness::ready() const {
  std::lock_guard<std::mutex> lock(mu_);
  return blocked_.empty();
}

std::string Readiness::render_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out =
      blocked_.empty() ? "{\"ready\":true,\"reasons\":{"
                       : "{\"ready\":false,\"reasons\":{";
  bool first = true;
  for (const auto& [cond, reason] : blocked_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(cond) + "\":\"" + json_escape(reason) + "\"";
  }
  out += "}}";
  return out;
}

void Registry::reset_all() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) {
    c->reset();
  }
  for (auto& [name, g] : gauges_) {
    g->reset();
  }
  for (auto& [name, h] : histograms_) {
    h->reset();
  }
}

}  // namespace fgad::obs
