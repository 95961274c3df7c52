// Windowed time-series layer and SLO burn-rate tracking (DESIGN.md §17).
//
// The rotation tick is driven by hand everywhere (never start()), so
// slot boundaries land exactly where each fixture says they do and the
// hand-computed burn rates below are exact, not racy approximations.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/flight_recorder.h"
#include "obs/http.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeseries.h"

namespace fgad {
namespace {

using obs::Histogram;
using obs::Registry;
using obs::SloTracker;
using obs::WindowedRegistry;

/// Small deterministic geometry: 1s ticks, 4 fine slots, 2 fine per
/// coarse slot, 3 coarse slots.
WindowedRegistry::Options small_geometry() {
  WindowedRegistry::Options o;
  o.interval_ns = 1'000'000'000;
  o.slots = 4;
  o.coarse_factor = 2;
  o.coarse_slots = 3;
  return o;
}

std::uint64_t slo_breach_events() {
  std::uint64_t n = 0;
  for (const auto& ev : obs::FlightRecorder::instance().snapshot()) {
    if (ev.type == obs::FrEvent::kSloBreach) {
      ++n;
    }
  }
  return n;
}

// ---- Snapshot algebra ------------------------------------------------------

TEST(SnapshotAlgebra, SubtractThenMergeRoundTrips) {
  Histogram h;
  for (int i = 0; i < 100; ++i) {
    h.observe(1000);
  }
  const Histogram::Snapshot a = h.snapshot(/*with_buckets=*/true);
  for (int i = 0; i < 50; ++i) {
    h.observe(50'000);
  }
  const Histogram::Snapshot b = h.snapshot(/*with_buckets=*/true);

  // delta = b - a holds exactly the second batch.
  Histogram::Snapshot delta = b;
  delta.subtract(a);
  EXPECT_EQ(delta.count, 50u);
  EXPECT_EQ(delta.sum, 50u * 50'000u);

  // a + delta = b, bucket for bucket.
  Histogram::Snapshot merged = a;
  merged.merge(delta);
  EXPECT_EQ(merged.count, b.count);
  EXPECT_EQ(merged.sum, b.sum);
  ASSERT_EQ(merged.buckets.size(), b.buckets.size());
  for (std::size_t i = 0; i < merged.buckets.size(); ++i) {
    EXPECT_EQ(merged.buckets[i], b.buckets[i]) << "bucket " << i;
  }
  merged.recompute_quantiles();
  EXPECT_NEAR(merged.p50, b.p50, 1e-9);
}

TEST(SnapshotAlgebra, SubtractClampsAtZero) {
  Histogram h;
  h.observe(100);
  const Histogram::Snapshot small = h.snapshot(true);
  h.observe(100);
  const Histogram::Snapshot big = h.snapshot(true);

  Histogram::Snapshot s = small;
  s.subtract(big);  // subtracting a superset must clamp, not underflow
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0u);
  for (const std::uint64_t c : s.buckets) {
    EXPECT_EQ(c, 0u);
  }
}

TEST(SnapshotAlgebra, MergeWithBucketlessSides) {
  Histogram h;
  h.observe(500);
  Histogram::Snapshot with = h.snapshot(true);
  Histogram::Snapshot without = h.snapshot(false);
  EXPECT_TRUE(without.buckets.empty());

  // bucketless += bucketed adopts the buckets.
  Histogram::Snapshot a;
  a.merge(with);
  EXPECT_EQ(a.count, 1u);
  EXPECT_FALSE(a.buckets.empty());

  // bucketed += bucketless keeps its own buckets and adds the counts.
  with.merge(without);
  EXPECT_EQ(with.count, 2u);
}

// ---- windowed registry -----------------------------------------------------

TEST(WindowedRegistryTest, CounterSlotRotationAcrossBoundaries) {
  WindowedRegistry& w = WindowedRegistry::instance();
  w.configure(small_geometry());
  obs::Counter& c = Registry::instance().counter("fgad_test_ts_rot_total");
  const std::uint64_t base = c.value();
  (void)base;

  w.tick();  // baseline: pre-existing value must not land in any slot
  EXPECT_EQ(w.ticks(), 1u);

  c.inc(5);
  w.tick();  // slot 1: delta 5
  c.inc(3);
  w.tick();  // slot 2: delta 3

  auto w1 = w.counter_window("fgad_test_ts_rot_total", 1);
  ASSERT_TRUE(w1.has_value());
  EXPECT_EQ(w1->delta, 3u);
  EXPECT_DOUBLE_EQ(w1->covered_s, 1.0);
  EXPECT_DOUBLE_EQ(w1->rate_per_s, 3.0);

  auto w2 = w.counter_window("fgad_test_ts_rot_total", 2);
  ASSERT_TRUE(w2.has_value());
  EXPECT_EQ(w2->delta, 8u);

  // Window larger than history: clamped to what the ring has seen.
  auto w4 = w.counter_window("fgad_test_ts_rot_total", 4);
  ASSERT_TRUE(w4.has_value());
  EXPECT_EQ(w4->delta, 8u);
  EXPECT_DOUBLE_EQ(w4->covered_s, 3.0);

  // Wrap the 4-slot ring: old deltas must age out.
  for (int i = 0; i < 4; ++i) {
    w.tick();
  }
  auto w1b = w.counter_window("fgad_test_ts_rot_total", 2);
  ASSERT_TRUE(w1b.has_value());
  EXPECT_EQ(w1b->delta, 0u);
}

TEST(WindowedRegistryTest, CoarseRingServesLongWindows) {
  WindowedRegistry& w = WindowedRegistry::instance();
  w.configure(small_geometry());  // 4 fine slots; >4s must go coarse
  obs::Counter& c = Registry::instance().counter("fgad_test_ts_coarse_total");

  w.tick();  // baseline (tick 1)
  c.inc(5);
  w.tick();  // tick 2 closes coarse group 0 with delta 5
  c.inc(3);
  w.tick();  // tick 3: open coarse group holds 3

  auto big = w.counter_window("fgad_test_ts_coarse_total", 100);
  ASSERT_TRUE(big.has_value());
  // 1 closed coarse group (5) + the open group (3).
  EXPECT_EQ(big->delta, 8u);
  EXPECT_DOUBLE_EQ(big->covered_s, 3.0);  // 1 group × 2s + 1 partial fine

  // Fill enough groups to wrap the 3-slot coarse ring.
  for (int g = 0; g < 4; ++g) {
    c.inc(10);
    w.tick();
    w.tick();
  }
  auto after = w.counter_window("fgad_test_ts_coarse_total", 100);
  ASSERT_TRUE(after.has_value());
  // Only the 3 newest coarse groups survive the wrap.
  EXPECT_LE(after->delta, 40u);
  EXPECT_GT(after->delta, 0u);
}

TEST(WindowedRegistryTest, HistogramWindowQuantilesFromDeltas) {
  WindowedRegistry& w = WindowedRegistry::instance();
  w.configure(small_geometry());
  Histogram& h = Registry::instance().histogram("fgad_test_ts_hist_ns");

  // Pre-baseline samples must not appear in any window.
  for (int i = 0; i < 1000; ++i) {
    h.observe(100);
  }
  w.tick();

  for (int i = 0; i < 200; ++i) {
    h.observe(8000);
  }
  w.tick();

  auto hw = w.histogram_window("fgad_test_ts_hist_ns", 1);
  ASSERT_TRUE(hw.has_value());
  EXPECT_EQ(hw->delta.count, 200u);
  EXPECT_EQ(hw->delta.sum, 200u * 8000u);
  // All window samples are 8000ns; quantile error ≤ 1/16 relative.
  EXPECT_NEAR(hw->delta.p50, 8000, 8000.0 / 8);
  EXPECT_NEAR(hw->delta.p99, 8000, 8000.0 / 8);
  EXPECT_DOUBLE_EQ(hw->rate_per_s, 200.0);
}

TEST(WindowedRegistryTest, GaugeWindowAveragesSlots) {
  WindowedRegistry& w = WindowedRegistry::instance();
  w.configure(small_geometry());
  obs::Gauge& g = Registry::instance().gauge("fgad_test_ts_gauge");

  g.set(10);
  w.tick();
  g.set(20);
  w.tick();
  g.set(40);
  w.tick();

  auto gw = w.gauge_window("fgad_test_ts_gauge", 2);
  ASSERT_TRUE(gw.has_value());
  EXPECT_EQ(gw->last, 40);
  EXPECT_DOUBLE_EQ(gw->avg, 30.0);  // slots hold 20 and 40
}

TEST(WindowedRegistryTest, RenderVarsJsonListsInstruments) {
  WindowedRegistry& w = WindowedRegistry::instance();
  w.configure(small_geometry());
  obs::Counter& c = Registry::instance().counter("fgad_test_ts_json_total");
  Histogram& h = Registry::instance().histogram("fgad_test_ts_json_ns");
  w.tick();
  c.inc(7);
  h.observe(12345);
  w.tick();

  const std::string json = w.render_vars_json(60);
  EXPECT_NE(json.find("\"fgad_test_ts_json_total\":{\"delta\":7"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"fgad_test_ts_json_ns\":{\"count\":1"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"window_s\":60"), std::string::npos);
  EXPECT_NE(json.find("\"p99_ns\":"), std::string::npos);
}

// ---- SLO burn rates --------------------------------------------------------

TEST(SloTrackerTest, LatencyBurnRateMatchesHandComputedFixture) {
  WindowedRegistry& w = WindowedRegistry::instance();
  w.configure(small_geometry());
  SloTracker& slo = SloTracker::instance();

  SloTracker::Objective o;
  o.name = "fixture_lat";
  o.kind = SloTracker::Kind::kLatency;
  o.metric = "fgad_test_slo_lat_ns";
  o.target_quantile = 0.9;   // budget = 0.1
  o.threshold_ns = 1'000'000;
  o.burn_threshold = 1.5;    // clear margin above the burn-1.0 phase
  o.short_window_s = 2;
  o.long_window_s = 4;
  slo.configure({o});

  Histogram& h = Registry::instance().histogram("fgad_test_slo_lat_ns");
  w.tick();  // baseline

  // 90 good + 10 bad → bad_fraction 0.1 → burn 0.1/0.1 = 1.0, under the
  // 1.5 breach threshold: no breach.
  for (int i = 0; i < 90; ++i) {
    h.observe(100'000);
  }
  for (int i = 0; i < 10; ++i) {
    h.observe(16'000'000);
  }
  w.tick();
  slo.evaluate();
  auto st = slo.status("fixture_lat");
  ASSERT_TRUE(st.has_value());
  EXPECT_NEAR(st->short_burn, 1.0, 1e-9);
  EXPECT_FALSE(st->breached);
  EXPECT_EQ(st->breaches, 0u);

  // 50 more bad samples: window bad_fraction = 60/150 = 0.4 → burn 4.0.
  const std::uint64_t events_before = slo_breach_events();
  obs::Counter& breach_counter =
      Registry::instance().counter("fgad_slo_fixture_lat_breaches_total");
  const std::uint64_t counter_before = breach_counter.value();
  for (int i = 0; i < 50; ++i) {
    h.observe(16'000'000);
  }
  w.tick();
  slo.evaluate();
  st = slo.status("fixture_lat");
  ASSERT_TRUE(st.has_value());
  EXPECT_NEAR(st->short_burn, 4.0, 1e-9);
  EXPECT_TRUE(st->breached);
  EXPECT_EQ(st->breaches, 1u);
  EXPECT_EQ(breach_counter.value(), counter_before + 1);
  EXPECT_EQ(slo_breach_events(), events_before + 1);

  // Still breaching on the next evaluation: the edge counter must not
  // double-count a continuing breach.
  w.tick();
  slo.evaluate();
  st = slo.status("fixture_lat");
  EXPECT_EQ(st->breaches, 1u);
  EXPECT_EQ(slo_breach_events(), events_before + 1);

  // Let the short window age past the spike: breach clears (the long
  // window may still burn, but breach requires BOTH).
  w.tick();
  w.tick();
  slo.evaluate();
  st = slo.status("fixture_lat");
  EXPECT_FALSE(st->breached);
  EXPECT_EQ(st->consecutive, 0u);

  slo.clear();
}

TEST(SloTrackerTest, ErrorRatioBurnFixture) {
  WindowedRegistry& w = WindowedRegistry::instance();
  w.configure(small_geometry());
  SloTracker& slo = SloTracker::instance();

  SloTracker::Objective o;
  o.name = "fixture_err";
  o.kind = SloTracker::Kind::kErrorRatio;
  o.metric = "fgad_test_slo_err_total";
  o.total_metric = "fgad_test_slo_req_total";
  o.max_error_rate = 0.01;  // 1%
  o.short_window_s = 2;
  o.long_window_s = 4;
  o.burn_threshold = 2.0;
  slo.configure({o});

  obs::Counter& err = Registry::instance().counter("fgad_test_slo_err_total");
  obs::Counter& req = Registry::instance().counter("fgad_test_slo_req_total");
  w.tick();  // baseline

  // 4 errors in 100 requests = 4% = burn 4.0 > 2.0 on both windows.
  req.inc(100);
  err.inc(4);
  w.tick();
  slo.evaluate();
  auto st = slo.status("fixture_err");
  ASSERT_TRUE(st.has_value());
  EXPECT_NEAR(st->short_burn, 4.0, 1e-9);
  EXPECT_NEAR(st->long_burn, 4.0, 1e-9);
  EXPECT_TRUE(st->breached);

  slo.clear();
}

TEST(SloTrackerTest, SustainedBreachFlipsOverloadReadiness) {
  WindowedRegistry& w = WindowedRegistry::instance();
  w.configure(small_geometry());
  SloTracker& slo = SloTracker::instance();

  SloTracker::Objective o;
  o.name = "fixture_gauge";
  o.kind = SloTracker::Kind::kGaugeAbove;
  o.metric = "fgad_test_slo_paused";
  o.threshold_ns = 1;  // avg >= 1 paused connection burns
  o.short_window_s = 1;
  o.long_window_s = 2;
  slo.configure({o});
  slo.set_overload_evals(2);

  obs::Gauge& g = Registry::instance().gauge("fgad_test_slo_paused");
  g.set(3);
  w.tick();
  slo.evaluate();
  // One breaching evaluation: not yet sustained.
  EXPECT_FALSE(slo.overloaded());
  EXPECT_TRUE(obs::Readiness::instance().ready());

  w.tick();
  slo.evaluate();
  EXPECT_TRUE(slo.overloaded());
  EXPECT_FALSE(obs::Readiness::instance().ready());
  EXPECT_NE(obs::Readiness::instance().render_json().find("fixture_gauge"),
            std::string::npos);

  // Recovery: gauge drops, the next evaluation clears the condition.
  g.set(0);
  w.tick();
  slo.evaluate();
  EXPECT_FALSE(slo.overloaded());
  EXPECT_TRUE(obs::Readiness::instance().ready());

  slo.clear();
}

TEST(SloTrackerTest, TickHookDrivesEvaluation) {
  WindowedRegistry& w = WindowedRegistry::instance();
  w.configure(small_geometry());
  SloTracker& slo = SloTracker::instance();

  SloTracker::Objective o;
  o.name = "fixture_hook";
  o.kind = SloTracker::Kind::kErrorRatio;
  o.metric = "fgad_test_slo_hook_err_total";
  o.total_metric = "fgad_test_slo_hook_req_total";
  o.max_error_rate = 0.01;
  o.short_window_s = 1;
  o.long_window_s = 2;
  slo.configure({o});
  slo.attach();

  obs::Counter& err =
      Registry::instance().counter("fgad_test_slo_hook_err_total");
  obs::Counter& req =
      Registry::instance().counter("fgad_test_slo_hook_req_total");
  w.tick();
  req.inc(10);
  err.inc(10);
  w.tick();  // hook runs evaluate() with the fresh window
  auto st = slo.status("fixture_hook");
  ASSERT_TRUE(st.has_value());
  EXPECT_TRUE(st->breached);

  w.set_tick_hook({});
  slo.clear();
}

TEST(SloTrackerTest, ParseSpecRoundTrip) {
  auto lat = SloTracker::parse("del_p99:latency:fgad_x_ns:0.99:5000000:2.5");
  ASSERT_TRUE(lat.is_ok()) << lat.status().to_string();
  EXPECT_EQ(lat.value().name, "del_p99");
  EXPECT_EQ(lat.value().kind, SloTracker::Kind::kLatency);
  EXPECT_EQ(lat.value().threshold_ns, 5'000'000u);
  EXPECT_DOUBLE_EQ(lat.value().target_quantile, 0.99);
  EXPECT_DOUBLE_EQ(lat.value().burn_threshold, 2.5);

  auto err = SloTracker::parse("errs:error_ratio:fgad_e_total:fgad_t_total:0.001");
  ASSERT_TRUE(err.is_ok());
  EXPECT_EQ(err.value().total_metric, "fgad_t_total");

  auto gauge = SloTracker::parse("bp:gauge_above:fgad_g:1");
  ASSERT_TRUE(gauge.is_ok());
  EXPECT_EQ(gauge.value().kind, SloTracker::Kind::kGaugeAbove);

  EXPECT_FALSE(SloTracker::parse("nope").is_ok());
  EXPECT_FALSE(SloTracker::parse("x:latency:h:1.5:100").is_ok());
  EXPECT_FALSE(SloTracker::parse("x:latency:h:0.99:zero").is_ok());
  EXPECT_FALSE(SloTracker::parse("x:unknown_kind:h:1").is_ok());

  // The stock server set parses into evaluable objectives.
  EXPECT_GE(SloTracker::default_server_objectives().size(), 3u);
}

// ---- concurrency hammer (TSan target) --------------------------------------

TEST(WindowedHammer, ConcurrentRecordAndRotate) {
  WindowedRegistry& w = WindowedRegistry::instance();
  w.configure(small_geometry());
  obs::Counter& c = Registry::instance().counter("fgad_test_hammer_total");
  Histogram& h = Registry::instance().histogram("fgad_test_hammer_ns");

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        c.inc();
        h.observe(1000 + (c.value() & 0xFFF));
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)w.counter_window("fgad_test_hammer_total", 2);
      (void)w.histogram_window("fgad_test_hammer_ns", 2);
      (void)w.render_vars_json(3);
    }
  });
  for (int i = 0; i < 200; ++i) {
    w.tick();
  }
  stop.store(true);
  for (auto& t : writers) {
    t.join();
  }
  reader.join();

  // Sanity: total of all per-slot deltas never exceeds the live counter.
  auto win = w.counter_window("fgad_test_hammer_total", 1000);
  ASSERT_TRUE(win.has_value());
  EXPECT_LE(win->delta, c.value());
}

// ---- endpoints -------------------------------------------------------------

std::string http_get_raw(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return "";
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n";
  (void)!::send(fd, req.data(), req.size(), 0);
  std::string resp;
  char buf[4096];
  ssize_t r;
  while ((r = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    resp.append(buf, static_cast<std::size_t>(r));
  }
  ::close(fd);
  return resp;
}

TEST(VarsEndpoint, VarsJsonAndReadyzServed) {
  WindowedRegistry& w = WindowedRegistry::instance();
  w.configure(small_geometry());
  obs::Counter& c = Registry::instance().counter("fgad_test_ep_total");
  w.tick();
  c.inc(3);
  w.tick();

  auto server = obs::MetricsHttpServer::create(0);
  ASSERT_TRUE(server.is_ok());
  const std::uint16_t port = server.value()->port();

  const std::string vars = http_get_raw(port, "/vars.json?window=60s");
  EXPECT_NE(vars.find("200 OK"), std::string::npos);
  EXPECT_NE(vars.find("\"fgad_test_ep_total\":{\"delta\":3"),
            std::string::npos)
      << vars;
  EXPECT_NE(vars.find("\"slo\":{"), std::string::npos);

  // Liveness stays green while readiness is blocked.
  EXPECT_NE(http_get_raw(port, "/healthz").find("200 OK"), std::string::npos);
  EXPECT_NE(http_get_raw(port, "/readyz").find("200 OK"), std::string::npos);
  {
    obs::Readiness::Block blk("test-block", "unit test in progress");
    const std::string notready = http_get_raw(port, "/readyz");
    EXPECT_NE(notready.find("503"), std::string::npos);
    EXPECT_NE(notready.find("\"test-block\":\"unit test in progress\""),
              std::string::npos)
        << notready;
    EXPECT_NE(http_get_raw(port, "/healthz").find("200 OK"),
              std::string::npos);
  }
  EXPECT_NE(http_get_raw(port, "/readyz").find("200 OK"), std::string::npos);
  server.value()->stop();
}

}  // namespace
}  // namespace fgad
