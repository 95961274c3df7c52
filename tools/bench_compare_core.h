// bench_compare engine (DESIGN.md §14): parse two BenchJson files (the
// `BENCH_<name>.json` schema from bench/support/bench_util.h, plus
// google-benchmark's native JSON for micro_core), match their rows by the
// non-metric fields, and flag metrics that moved past a relative
// tolerance in the *worse* direction — lower-is-better for latencies,
// higher-is-better for rates.
//
// Header-only so tests/bench_compare_test.cpp can drive the engine
// directly without spawning the binary; tools/bench_compare.cpp is a thin
// CLI around compare() + render_report_json().
//
// Tolerances: 15% by default, 35% for p99 quantiles (a tail quantile of a
// 20-200 sample run is noisy by construction). A metric only counts as a
// regression when it moves beyond tolerance in its bad direction —
// getting faster never fails the gate. A baseline none of whose rows
// match fails as well: nothing was compared.
#pragma once

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"

namespace fgad::benchcmp {

// ---- minimal JSON ----------------------------------------------------------
//
// Just enough for the bench schema: objects, arrays, strings (no \u
// escapes beyond pass-through), numbers, true/false/null. Anything the
// benches never emit is a parse error, loudly.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> items;                        // kArray
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : members) {
      if (k == key) {
        return &v;
      }
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  Result<JsonValue> parse() {
    auto v = value();
    if (!v) {
      return v;
    }
    skip_ws();
    if (pos_ != s_.size()) {
      return fail("trailing garbage");
    }
    return v;
  }

 private:
  Error fail(const std::string& why) const {
    return Error(Errc::kDecodeError,
                 "json at byte " + std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool eat(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<JsonValue> value() {
    skip_ws();
    if (pos_ >= s_.size()) {
      return fail("unexpected end");
    }
    const char c = s_[pos_];
    if (c == '{') {
      return object();
    }
    if (c == '[') {
      return array();
    }
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::kString;
      auto str = string_lit();
      if (!str) {
        return str.error();
      }
      v.str = std::move(str).value();
      return v;
    }
    if (c == 't' || c == 'f') {
      const char* word = c == 't' ? "true" : "false";
      if (s_.compare(pos_, std::strlen(word), word) != 0) {
        return fail("bad literal");
      }
      pos_ += std::strlen(word);
      JsonValue v;
      v.kind = JsonValue::Kind::kBool;
      v.boolean = c == 't';
      return v;
    }
    if (c == 'n') {
      if (s_.compare(pos_, 4, "null") != 0) {
        return fail("bad literal");
      }
      pos_ += 4;
      return JsonValue{};
    }
    return number();
  }

  Result<JsonValue> number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '-' || s_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) {
      return fail("expected number");
    }
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    try {
      v.number = std::stod(s_.substr(start, pos_ - start));
    } catch (...) {
      return fail("bad number: " + s_.substr(start, pos_ - start));
    }
    return v;
  }

  Result<std::string> string_lit() {
    if (!eat('"')) {
      return fail("expected string");
    }
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) {
          return fail("bad escape");
        }
        const char e = s_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          default:
            return fail(std::string("unsupported escape \\") + e);
        }
      }
      out.push_back(c);
    }
    if (!eat('"')) {
      return fail("unterminated string");
    }
    return out;
  }

  Result<JsonValue> array() {
    if (!eat('[')) {
      return fail("expected array");
    }
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    if (eat(']')) {
      return v;
    }
    for (;;) {
      auto item = value();
      if (!item) {
        return item;
      }
      v.items.push_back(std::move(item).value());
      if (eat(']')) {
        return v;
      }
      if (!eat(',')) {
        return fail("expected , or ]");
      }
    }
  }

  Result<JsonValue> object() {
    if (!eat('{')) {
      return fail("expected object");
    }
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    if (eat('}')) {
      return v;
    }
    for (;;) {
      auto key = string_lit();
      if (!key) {
        return key.error();
      }
      if (!eat(':')) {
        return fail("expected :");
      }
      auto val = value();
      if (!val) {
        return val;
      }
      v.members.emplace_back(std::move(key).value(), std::move(val).value());
      if (eat('}')) {
        return v;
      }
      if (!eat(',')) {
        return fail("expected , or }");
      }
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---- metric classification -------------------------------------------------

inline bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Sample-count bookkeeping, never compared.
inline bool is_count_key(const std::string& key) {
  return ends_with(key, "_samples") || key == "samples" || key == "pairs" ||
         key == "reps" || key == "iterations" || key == "repetitions";
}

/// Higher is better: rates and throughputs.
inline bool is_rate_key(const std::string& key) {
  return ends_with(key, "_per_s") || ends_with(key, "per_second") ||
         ends_with(key, "_mbps") || ends_with(key, "_ops");
}

/// Lower is better: latencies, per-op costs, overheads, sizes.
inline bool is_latency_key(const std::string& key) {
  return ends_with(key, "_ns") || ends_with(key, "_us") ||
         ends_with(key, "_ms") || ends_with(key, "ns_per_op") ||
         ends_with(key, "us_per_op") || ends_with(key, "_pct") ||
         ends_with(key, "_bytes_per_item") || key == "real_time" ||
         key == "cpu_time";
}

inline bool is_metric_key(const std::string& key) {
  return !is_count_key(key) && (is_rate_key(key) || is_latency_key(key));
}

// ---- parsed bench file -----------------------------------------------------

struct Row {
  std::string key;  // identity: every non-metric field, "k=v|k=v|..."
  std::map<std::string, double> metrics;
};

struct BenchFile {
  std::string bench;
  std::vector<Row> rows;
};

/// Flattens one row object into identity key + metric map.
inline Row flatten_row(const JsonValue& obj) {
  Row row;
  std::string key;
  for (const auto& [k, v] : obj.members) {
    const bool numeric = v.kind == JsonValue::Kind::kNumber;
    if (numeric && is_metric_key(k)) {
      row.metrics[k] = v.number;
      continue;
    }
    if (numeric && is_count_key(k)) {
      continue;  // bookkeeping: not identity, not compared
    }
    if (!key.empty()) {
      key += "|";
    }
    if (v.kind == JsonValue::Kind::kString) {
      key += k + "=" + v.str;
    } else if (numeric) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%s=%.17g", k.c_str(), v.number);
      key += buf;
    } else if (v.kind == JsonValue::Kind::kBool) {
      key += k + "=" + (v.boolean ? "true" : "false");
    }
    // arrays/objects/null inside a row are ignored for identity
  }
  row.key = key;
  return row;
}

/// Parses either schema: fgad BenchJson ({"bench","rows":[...]}) or
/// google-benchmark native JSON ({"context","benchmarks":[...]}).
inline Result<BenchFile> parse_bench_json(const std::string& text) {
  auto parsed = JsonParser(text).parse();
  if (!parsed) {
    return parsed.error();
  }
  const JsonValue root = std::move(parsed).value();
  if (root.kind != JsonValue::Kind::kObject) {
    return Error(Errc::kDecodeError, "bench json: top level is not an object");
  }
  BenchFile out;
  const JsonValue* rows = root.find("rows");
  if (rows == nullptr) {
    rows = root.find("benchmarks");  // google-benchmark native
  }
  if (const JsonValue* name = root.find("bench");
      name != nullptr && name->kind == JsonValue::Kind::kString) {
    out.bench = name->str;
  } else if (rows != nullptr && root.find("benchmarks") != nullptr) {
    out.bench = "micro_core";
  }
  if (rows == nullptr || rows->kind != JsonValue::Kind::kArray) {
    return Error(Errc::kDecodeError, "bench json: no rows/benchmarks array");
  }
  for (const JsonValue& r : rows->items) {
    if (r.kind != JsonValue::Kind::kObject) {
      return Error(Errc::kDecodeError, "bench json: row is not an object");
    }
    out.rows.push_back(flatten_row(r));
  }
  return out;
}

// ---- comparison ------------------------------------------------------------

struct MetricDiff {
  std::string row_key;
  std::string metric;
  double old_value = 0;
  double new_value = 0;
  /// Signed relative change in the metric's *bad* direction: positive
  /// means worse (slower / lower-throughput), negative means better.
  double worse_by = 0;
  double tolerance = 0;
  bool regression = false;
};

struct CompareOptions {
  double tolerance = 0.15;       // default relative tolerance
  double p99_tolerance = 0.35;   // tail quantiles are noisy
  /// Exact-metric-name overrides (beats the defaults above).
  std::map<std::string, double> per_metric;

  double tolerance_for(const std::string& metric) const {
    if (const auto it = per_metric.find(metric); it != per_metric.end()) {
      return it->second;
    }
    if (ends_with(metric, "_p99_us") || ends_with(metric, "_p99_ns")) {
      return p99_tolerance;
    }
    return tolerance;
  }
};

struct CompareResult {
  std::vector<MetricDiff> diffs;       // every matched metric, worst first
  std::size_t regressions = 0;
  std::size_t metrics_compared = 0;
  std::size_t rows_matched = 0;
  std::vector<std::string> unmatched_old;  // row keys without a new-side twin
  std::vector<std::string> unmatched_new;

  /// The old file had rows and none found a twin: nothing was compared,
  /// so the comparison cannot pass.
  bool nothing_matched() const {
    return rows_matched == 0 && !unmatched_old.empty();
  }
  bool ok() const { return regressions == 0 && !nothing_matched(); }
  const char* verdict() const {
    return nothing_matched() ? "no_rows_matched"
                             : regressions > 0 ? "regression" : "ok";
  }
};

inline CompareResult compare(const BenchFile& oldf, const BenchFile& newf,
                             const CompareOptions& opts = {}) {
  CompareResult out;
  std::map<std::string, const Row*> new_by_key;
  for (const Row& r : newf.rows) {
    new_by_key[r.key] = &r;  // duplicate keys: last row wins
  }
  std::map<std::string, bool> new_seen;
  for (const Row& oldr : oldf.rows) {
    const auto it = new_by_key.find(oldr.key);
    if (it == new_by_key.end()) {
      out.unmatched_old.push_back(oldr.key);
      continue;
    }
    new_seen[oldr.key] = true;
    ++out.rows_matched;
    for (const auto& [metric, old_v] : oldr.metrics) {
      const auto mit = it->second->metrics.find(metric);
      if (mit == it->second->metrics.end()) {
        continue;  // metric added/removed between versions: not comparable
      }
      const double new_v = mit->second;
      if (!(std::isfinite(old_v) && std::isfinite(new_v)) || old_v <= 0) {
        continue;  // zero/negative baselines have no meaningful ratio
      }
      MetricDiff d;
      d.row_key = oldr.key;
      d.metric = metric;
      d.old_value = old_v;
      d.new_value = new_v;
      const double rel = (new_v - old_v) / old_v;
      d.worse_by = is_rate_key(metric) ? -rel : rel;
      d.tolerance = opts.tolerance_for(metric);
      d.regression = d.worse_by > d.tolerance;
      ++out.metrics_compared;
      if (d.regression) {
        ++out.regressions;
      }
      out.diffs.push_back(std::move(d));
    }
  }
  for (const Row& r : newf.rows) {
    if (new_seen.find(r.key) == new_seen.end()) {
      out.unmatched_new.push_back(r.key);
    }
  }
  std::stable_sort(out.diffs.begin(), out.diffs.end(),
                   [](const MetricDiff& a, const MetricDiff& b) {
                     return a.worse_by > b.worse_by;
                   });
  return out;
}

// ---- report rendering ------------------------------------------------------

inline std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Machine-readable verdict for one bench comparison; CI parses `.verdict`.
inline std::string render_report_json(const std::string& bench,
                                      const CompareResult& r) {
  char buf[256];
  std::string out = "{\"bench\":\"" + json_escape(bench) + "\",";
  out += "\"verdict\":\"" + std::string(r.verdict()) + "\",";
  std::snprintf(buf, sizeof(buf),
                "\"regressions\":%zu,\"metrics_compared\":%zu,"
                "\"rows_matched\":%zu,",
                r.regressions, r.metrics_compared, r.rows_matched);
  out += buf;
  out += "\"diffs\":[";
  bool first = true;
  for (const MetricDiff& d : r.diffs) {
    if (!d.regression && d.worse_by <= d.tolerance * 0.5) {
      continue;  // keep the report small: only notable movement
    }
    std::snprintf(buf, sizeof(buf),
                  "%s{\"row\":\"%s\",\"metric\":\"%s\",\"old\":%.6g,"
                  "\"new\":%.6g,\"worse_by_pct\":%.2f,"
                  "\"tolerance_pct\":%.2f,\"regression\":%s}",
                  first ? "" : ",", json_escape(d.row_key).c_str(),
                  json_escape(d.metric).c_str(), d.old_value, d.new_value,
                  d.worse_by * 100.0, d.tolerance * 100.0,
                  d.regression ? "true" : "false");
    out += buf;
    first = false;
  }
  out += "],\"unmatched_old\":" + std::to_string(r.unmatched_old.size());
  out += ",\"unmatched_new\":" + std::to_string(r.unmatched_new.size());
  out += "}";
  return out;
}

/// Human-readable summary for the terminal / CI log.
inline std::string render_report_text(const std::string& bench,
                                      const CompareResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s: %s (%zu regression%s, %zu metrics, %zu rows)\n",
                bench.c_str(),
                r.nothing_matched() ? "FAIL, no old row matched"
                : r.ok()            ? "OK"
                                    : "REGRESSION",
                r.regressions,
                r.regressions == 1 ? "" : "s", r.metrics_compared,
                r.rows_matched);
  std::string out = buf;
  for (const MetricDiff& d : r.diffs) {
    if (!d.regression) {
      continue;
    }
    std::snprintf(buf, sizeof(buf),
                  "  %s [%s]: %.6g -> %.6g (worse by %.1f%%, tolerance "
                  "%.0f%%)\n",
                  d.metric.c_str(), d.row_key.c_str(), d.old_value,
                  d.new_value, d.worse_by * 100.0, d.tolerance * 100.0);
    out += buf;
  }
  for (const std::string& k : r.unmatched_old) {
    out += "  (old row unmatched: " + k + ")\n";
  }
  return out;
}

}  // namespace fgad::benchcmp
