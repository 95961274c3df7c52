#include "obs/slo.h"

#include <algorithm>
#include <charconv>
#include <cstdio>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace fgad::obs {

namespace {

const char* kind_name(SloTracker::Kind k) {
  switch (k) {
    case SloTracker::Kind::kLatency:
      return "latency";
    case SloTracker::Kind::kErrorRatio:
      return "error_ratio";
    case SloTracker::Kind::kGaugeAbove:
      return "gauge_above";
  }
  return "?";
}

void append_f(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

/// Fraction of window samples strictly worse than threshold_ns, from the
/// merged bucket counts. A bucket whose lower bound is at or above the
/// threshold counts fully; the bucket containing the threshold counts
/// pro-rata by linear interpolation (same model the quantile kernel
/// uses), so a threshold mid-bucket does not jump between 0 and 1.
double bad_fraction(const Histogram::Snapshot& s, std::uint64_t threshold_ns) {
  if (s.count == 0 || s.buckets.empty()) {
    return 0;
  }
  const std::size_t t_idx = Histogram::bucket_of(threshold_ns);
  double bad = 0;
  for (std::size_t i = t_idx; i < s.buckets.size(); ++i) {
    if (s.buckets[i] == 0) {
      continue;
    }
    if (i == t_idx) {
      const double lo = static_cast<double>(Histogram::bucket_lower(i));
      const double hi =
          i + 1 < s.buckets.size()
              ? static_cast<double>(Histogram::bucket_lower(i + 1))
              : lo * 2;
      const double over =
          hi <= lo ? 0
                   : std::clamp(
                         (hi - static_cast<double>(threshold_ns)) / (hi - lo),
                         0.0, 1.0);
      bad += static_cast<double>(s.buckets[i]) * over;
    } else {
      bad += static_cast<double>(s.buckets[i]);
    }
  }
  return bad / static_cast<double>(s.count);
}

}  // namespace

SloTracker& SloTracker::instance() {
  static SloTracker t;
  return t;
}

void SloTracker::configure(std::vector<Objective> objectives) {
  std::lock_guard<std::mutex> lock(mu_);
  states_.clear();
  states_.reserve(objectives.size());
  for (Objective& o : objectives) {
    State st;
    st.obj = std::move(o);
    states_.push_back(std::move(st));
  }
  overloaded_ = false;
  Readiness::instance().set("overloaded", false);
}

void SloTracker::add(Objective objective) {
  std::lock_guard<std::mutex> lock(mu_);
  State st;
  st.obj = std::move(objective);
  states_.push_back(std::move(st));
}

void SloTracker::clear() {
  configure({});
}

std::size_t SloTracker::objective_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return states_.size();
}

void SloTracker::set_overload_evals(std::uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  overload_evals_ = n == 0 ? 1 : n;
}

void SloTracker::attach() {
  WindowedRegistry::instance().set_tick_hook([] {
    SloTracker::instance().evaluate();
  });
}

double SloTracker::burn_over_window(const Objective& obj,
                                    std::uint64_t window_s) const {
  const WindowedRegistry& w = WindowedRegistry::instance();
  switch (obj.kind) {
    case Kind::kLatency: {
      const auto hw = w.histogram_window(obj.metric, window_s);
      if (!hw || hw->delta.count == 0) {
        return 0;
      }
      const double budget = std::max(1e-9, 1.0 - obj.target_quantile);
      return bad_fraction(hw->delta, obj.threshold_ns) / budget;
    }
    case Kind::kErrorRatio: {
      const auto err = w.counter_window(obj.metric, window_s);
      const auto total = w.counter_window(obj.total_metric, window_s);
      if (!err || !total || total->delta == 0) {
        return 0;
      }
      const double ratio = static_cast<double>(err->delta) /
                           static_cast<double>(total->delta);
      return ratio / std::max(1e-12, obj.max_error_rate);
    }
    case Kind::kGaugeAbove: {
      const auto gw = w.gauge_window(obj.metric, window_s);
      if (!gw) {
        return 0;
      }
      return gw->avg / std::max(1e-12, static_cast<double>(obj.threshold_ns));
    }
  }
  return 0;
}

void SloTracker::evaluate() {
  static Counter& breaches_total =
      Registry::instance().counter("fgad_slo_breaches_total");
  std::lock_guard<std::mutex> lock(mu_);
  bool any_sustained = false;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    State& st = states_[i];
    st.short_burn = burn_over_window(st.obj, st.obj.short_window_s);
    st.long_burn = burn_over_window(st.obj, st.obj.long_window_s);
    const bool now_breached = st.short_burn > st.obj.burn_threshold &&
                              st.long_burn > st.obj.burn_threshold;
    if (now_breached) {
      ++st.consecutive;
      if (!st.breached) {
        // Breach edge: count it once and leave a forensic breadcrumb
        // (a = objective index, b = short burn in milli-units).
        ++st.breaches;
        breaches_total.inc();
        Registry::instance()
            .counter("fgad_slo_" + st.obj.name + "_breaches_total")
            .inc();
        FlightRecorder::instance().record(
            FrEvent::kSloBreach, /*rid=*/0, /*a=*/i,
            /*b=*/static_cast<std::uint64_t>(st.short_burn * 1000.0));
      }
    } else {
      st.consecutive = 0;
    }
    st.breached = now_breached;
    if (st.consecutive >= overload_evals_) {
      any_sustained = true;
    }
  }
  if (any_sustained != overloaded_) {
    overloaded_ = any_sustained;
    if (any_sustained) {
      std::string reason = "slo burn over threshold:";
      for (const State& st : states_) {
        if (st.consecutive >= overload_evals_) {
          reason += " " + st.obj.name;
        }
      }
      Readiness::instance().set("overloaded", true, reason);
    } else {
      Readiness::instance().set("overloaded", false);
    }
  }
}

std::optional<SloTracker::ObjectiveStatus> SloTracker::status(
    std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const State& st : states_) {
    if (st.obj.name == name) {
      return ObjectiveStatus{st.obj.name, st.short_burn, st.long_burn,
                             st.breached,  st.breaches,  st.consecutive};
    }
  }
  return std::nullopt;
}

std::vector<SloTracker::ObjectiveStatus> SloTracker::all_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ObjectiveStatus> out;
  out.reserve(states_.size());
  for (const State& st : states_) {
    out.push_back(ObjectiveStatus{st.obj.name, st.short_burn, st.long_burn,
                                  st.breached, st.breaches, st.consecutive});
  }
  return out;
}

bool SloTracker::overloaded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return overloaded_;
}

std::string SloTracker::render_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"objectives\":[";
  bool first = true;
  for (const State& st : states_) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + json_escape(st.obj.name) + "\",\"kind\":\"";
    out += kind_name(st.obj.kind);
    out += "\",\"metric\":\"" + json_escape(st.obj.metric) +
           "\",\"short_burn\":";
    append_f(out, st.short_burn);
    out += ",\"long_burn\":";
    append_f(out, st.long_burn);
    out += ",\"burn_threshold\":";
    append_f(out, st.obj.burn_threshold);
    out += st.breached ? ",\"breached\":true" : ",\"breached\":false";
    out += ",\"breaches\":";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(st.breaches));
    out += buf;
    out += "}";
  }
  out += overloaded_ ? "],\"overloaded\":true}" : "],\"overloaded\":false}";
  return out;
}

namespace {

std::vector<std::string_view> split_colon(std::string_view s) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(':', start);
    if (pos == std::string_view::npos) {
      parts.push_back(s.substr(start));
      return parts;
    }
    parts.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

bool parse_f(std::string_view s, double& out) {
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && p == s.data() + s.size();
}

bool parse_u(std::string_view s, std::uint64_t& out) {
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && p == s.data() + s.size();
}

}  // namespace

Result<SloTracker::Objective> SloTracker::parse(std::string_view spec) {
  const auto parts = split_colon(spec);
  auto err = [&](const char* what) {
    return Result<Objective>(
        Errc::kInvalidArgument,
        std::string("bad --slo spec '") + std::string(spec) + "': " + what);
  };
  if (parts.size() < 3 || parts[0].empty()) {
    return err("want name:kind:...");
  }
  Objective o;
  o.name = std::string(parts[0]);
  const std::string_view kind = parts[1];
  if (kind == "latency") {
    // name:latency:<hist>:<quantile>:<threshold_ns>[:burn]
    if (parts.size() < 5 || parts.size() > 6) {
      return err("latency wants name:latency:hist:quantile:threshold_ns[:burn]");
    }
    o.kind = Kind::kLatency;
    o.metric = std::string(parts[2]);
    if (!parse_f(parts[3], o.target_quantile) || o.target_quantile <= 0 ||
        o.target_quantile >= 1) {
      return err("quantile must be in (0,1)");
    }
    if (!parse_u(parts[4], o.threshold_ns) || o.threshold_ns == 0) {
      return err("threshold_ns must be a positive integer");
    }
    if (parts.size() == 6 && !parse_f(parts[5], o.burn_threshold)) {
      return err("burn must be a number");
    }
  } else if (kind == "error_ratio") {
    // name:error_ratio:<err_counter>:<total_counter>:<max_rate>[:burn]
    if (parts.size() < 5 || parts.size() > 6) {
      return err(
          "error_ratio wants name:error_ratio:err:total:max_rate[:burn]");
    }
    o.kind = Kind::kErrorRatio;
    o.metric = std::string(parts[2]);
    o.total_metric = std::string(parts[3]);
    if (!parse_f(parts[4], o.max_error_rate) || o.max_error_rate <= 0) {
      return err("max_rate must be positive");
    }
    if (parts.size() == 6 && !parse_f(parts[5], o.burn_threshold)) {
      return err("burn must be a number");
    }
  } else if (kind == "gauge_above") {
    // name:gauge_above:<gauge>:<threshold>[:burn]
    if (parts.size() < 4 || parts.size() > 5) {
      return err("gauge_above wants name:gauge_above:gauge:threshold[:burn]");
    }
    o.kind = Kind::kGaugeAbove;
    o.metric = std::string(parts[2]);
    if (!parse_u(parts[3], o.threshold_ns) || o.threshold_ns == 0) {
      return err("threshold must be a positive integer");
    }
    if (parts.size() == 5 && !parse_f(parts[4], o.burn_threshold)) {
      return err("burn must be a number");
    }
  } else {
    return err("kind must be latency|error_ratio|gauge_above");
  }
  return o;
}

std::vector<SloTracker::Objective> SloTracker::default_server_objectives() {
  std::vector<Objective> out;
  {
    Objective o;
    o.name = "delete_commit_p99";
    o.kind = Kind::kLatency;
    o.metric = "fgad_server_delete_commit_ns";
    o.target_quantile = 0.99;
    o.threshold_ns = 5'000'000;  // 5 ms — the paper's tail-latency story
    out.push_back(std::move(o));
  }
  {
    Objective o;
    o.name = "access_p99";
    o.kind = Kind::kLatency;
    o.metric = "fgad_server_access_ns";
    o.target_quantile = 0.99;
    o.threshold_ns = 5'000'000;
    out.push_back(std::move(o));
  }
  {
    Objective o;
    o.name = "rpc_errors";
    o.kind = Kind::kErrorRatio;
    o.metric = "fgad_server_rpc_errors_total";
    o.total_metric = "fgad_server_rpcs_total";
    o.max_error_rate = 0.001;  // 0.1%
    out.push_back(std::move(o));
  }
  {
    // Reactor backpressure: any sustained window where connections sit
    // paused (avg >= 1) burns the objective and feeds the overload
    // readiness signal.
    Objective o;
    o.name = "reactor_backpressure";
    o.kind = Kind::kGaugeAbove;
    o.metric = "fgad_net_backpressure_paused";
    o.threshold_ns = 1;
    out.push_back(std::move(o));
  }
  {
    // Replication lag: staged-but-unacked bytes on the primary. Sitting
    // above 16 MiB for a sustained window means the follower is not
    // keeping up — every commit in that backlog is still waiting for its
    // ACK, or timing out — so it burns toward the overload signal. The
    // gauge reads 0 on non-replicated deployments (objective is inert).
    Objective o;
    o.name = "repl_lag";
    o.kind = Kind::kGaugeAbove;
    o.metric = "fgad_repl_lag_bytes";
    o.threshold_ns = 16ull * 1024 * 1024;
    out.push_back(std::move(o));
  }
  return out;
}

}  // namespace fgad::obs
