// Observability subsystem (DESIGN.md §12): metrics registry and histogram
// math, request-id propagation through the tagged wire envelope, span
// tracing, the audit-log line format, and the HTTP scrape endpoint over a
// real socket. The registry hammer runs under TSan in CI.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "client/client.h"
#include "cloud/server.h"
#include "net/transport.h"
#include "obs/http.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "proto/messages.h"

namespace fgad {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::Registry;

/// Captures a FILE* sink in memory (POSIX open_memstream).
class MemSink {
 public:
  MemSink() : f_(open_memstream(&buf_, &len_)) {}
  ~MemSink() {
    std::fclose(f_);
    std::free(buf_);
  }
  std::FILE* file() { return f_; }
  std::string text() {
    std::fflush(f_);
    return std::string(buf_, len_);
  }

 private:
  std::FILE* f_;
  char* buf_ = nullptr;
  std::size_t len_ = 0;
};

TEST(ObsMetrics, CounterCountsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsMetrics, GaugeSetAddValue) {
  Gauge g;
  g.set(7);
  g.add(-10);
  EXPECT_EQ(g.value(), -3);
}

TEST(ObsHistogram, BucketLayoutIsMonotoneAndConsistent) {
  // Small values are exact.
  for (std::uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(Histogram::bucket_of(v), v);
    EXPECT_EQ(Histogram::bucket_lower(v), v);
  }
  // bucket_lower inverts bucket_of on bucket boundaries, and bucket
  // indices never decrease with the value.
  for (std::size_t idx = 0; idx < Histogram::kBucketCount; ++idx) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_lower(idx)), idx);
  }
  std::size_t prev = 0;
  for (std::uint64_t v = 1; v < (1u << 20); v = v * 2 + 3) {
    const std::size_t idx = Histogram::bucket_of(v);
    EXPECT_GE(idx, prev);
    EXPECT_LE(Histogram::bucket_lower(idx), v);
    prev = idx;
  }
}

TEST(ObsHistogram, QuantilesBoundedRelativeError) {
  Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty
  // Constant distribution: every quantile must land within one sub-bucket
  // (1/16 relative width) of the true value.
  const std::uint64_t v = 100'000;
  for (int i = 0; i < 1000; ++i) {
    h.observe(v);
  }
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.sum(), 1000u * v);
  for (double p : {0.5, 0.95, 0.99}) {
    EXPECT_NEAR(h.quantile(p), static_cast<double>(v),
                static_cast<double>(v) / 8.0);
  }
  // Uniform 1..1000: p50 must sit near 500.
  Histogram u;
  for (std::uint64_t x = 1; x <= 1000; ++x) {
    u.observe(x);
  }
  EXPECT_NEAR(u.quantile(0.5), 500.0, 500.0 / 8.0);
  const auto s = u.snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_LT(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99 + 1e-9);
}

TEST(ObsRegistry, StableAddressesAndRendering) {
  Registry& reg = Registry::instance();
  Counter& a = reg.counter("fgad_test_render_total");
  Counter& b = reg.counter("fgad_test_render_total");
  EXPECT_EQ(&a, &b);  // call sites may cache the reference forever
  a.reset();
  a.inc(3);
  reg.gauge("fgad_test_render_gauge").set(-5);
  Histogram& h = reg.histogram("fgad_test_render_ns");
  h.reset();
  h.observe(64);

  const std::string text = reg.render_text();
  EXPECT_NE(text.find("# TYPE fgad_test_render_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("fgad_test_render_total 3"), std::string::npos);
  EXPECT_NE(text.find("fgad_test_render_gauge -5"), std::string::npos);
  EXPECT_NE(text.find("fgad_test_render_ns{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("fgad_test_render_ns_count 1"), std::string::npos);

  const std::string json = reg.render_json();
  EXPECT_NE(json.find("\"fgad_test_render_total\":3"), std::string::npos);
  EXPECT_NE(json.find("\"fgad_test_render_ns\":{\"count\":1"),
            std::string::npos);
}

TEST(ObsJsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(obs::json_escape("plain_name"), "plain_name");
  EXPECT_EQ(obs::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::json_escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(obs::json_escape("\b\f"), "\\b\\f");
  EXPECT_EQ(obs::json_escape(std::string("a\x01z", 3)), "a\\u0001z");
}

// Round trip: a metric name containing every character class the escaper
// handles must come back out of render_json() in escaped form, and the
// raw (invalid-JSON-producing) bytes must not appear unescaped.
TEST(ObsJsonEscape, RenderJsonSurvivesHostileMetricNames) {
  Registry& reg = Registry::instance();
  const std::string evil = "fgad_test_evil\"name\\with\ncontrol";
  reg.counter(evil).inc(9);
  const std::string json = reg.render_json();
  EXPECT_NE(json.find("\"fgad_test_evil\\\"name\\\\with\\ncontrol\":9"),
            std::string::npos)
      << json;
  // No raw quote-in-name or raw newline may survive into the document.
  EXPECT_EQ(json.find("evil\"name"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

// Writers on every instrument kind race against renderers; run under TSan
// in CI. The final counts must be exact (no lost increments).
TEST(ObsRegistry, ConcurrentWritersAndRenderers) {
  Registry& reg = Registry::instance();
  Counter& c = reg.counter("fgad_test_hammer_total");
  Histogram& h = reg.histogram("fgad_test_hammer_ns");
  Gauge& g = reg.gauge("fgad_test_hammer_gauge");
  c.reset();
  h.reset();
  constexpr int kThreads = 4;
  constexpr int kIters = 20'000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c, &h, &g, t] {
      for (int i = 0; i < kIters; ++i) {
        c.inc();
        h.observe(static_cast<std::uint64_t>(i));
        g.set(t);
      }
    });
  }
  workers.emplace_back([&reg] {
    for (int i = 0; i < 50; ++i) {
      (void)reg.render_text();
      (void)reg.render_json();
    }
  });
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kIters);
}

// ---- request-id propagation on the wire ---------------------------------

/// A tagged request as an untraced client seals it (span id 0).
Bytes tag_frame(std::uint64_t rid, BytesView inner) {
  return proto::seal_tagged_v2(rid, 0, 0, {}, inner);
}

TEST(ObsTaggedWire, SealSplitRoundtrip) {
  const Bytes inner = proto::StatReq{7}.to_frame();
  const Bytes tagged = tag_frame(0xabcdef0123456789ull, inner);
  ASSERT_EQ(tagged.size(), inner.size() + 27);

  const auto opened = proto::open_tagged(tagged);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(opened->request_id, 0xabcdef0123456789ull);
  EXPECT_EQ(Bytes(opened->inner.begin(), opened->inner.end()), inner);

  // Untagged frames do not open and are byte-identical to the seed
  // protocol: the tag is strictly additive.
  EXPECT_FALSE(proto::open_tagged(inner).has_value());
  EXPECT_EQ(proto::seal_message(proto::MsgType::kStatReq, BytesView(inner).
            subspan(2)), inner);
}

TEST(ObsTaggedWire, PeekTypeLooksThroughOneTagOnly) {
  const Bytes inner = proto::AccessReq{1, proto::ItemRef::id(2)}.to_frame();
  EXPECT_EQ(proto::peek_type(inner), proto::MsgType::kAccessReq);
  const Bytes tagged = tag_frame(42, inner);
  EXPECT_EQ(proto::peek_type(tagged), proto::MsgType::kAccessReq);
  // Nested tags are invalid, truncated frames yield nothing.
  EXPECT_FALSE(proto::peek_type(tag_frame(43, tagged)).has_value());
  EXPECT_FALSE(proto::peek_type(BytesView(tagged).first(9)).has_value());
  EXPECT_FALSE(proto::peek_type(BytesView()).has_value());
}

TEST(ObsTaggedWire, OpenMessageUnwrapsRequestId) {
  const Bytes inner = proto::StatReq{9}.to_frame();
  auto plain = proto::open_message(inner);
  ASSERT_TRUE(plain.is_ok());
  EXPECT_FALSE(plain.value().request_id.has_value());

  auto tagged = proto::open_message(tag_frame(0x1122, inner));
  ASSERT_TRUE(tagged.is_ok());
  EXPECT_EQ(tagged.value().type, proto::MsgType::kStatReq);
  ASSERT_TRUE(tagged.value().request_id.has_value());
  EXPECT_EQ(tagged.value().request_id.value(), 0x1122u);

  // Nested tag and truncated envelope are decode errors.
  EXPECT_FALSE(proto::open_message(
                   tag_frame(1, tag_frame(2, inner)))
                   .is_ok());
  const Bytes tag_only = tag_frame(3, inner);
  EXPECT_FALSE(proto::open_message(BytesView(tag_only).first(10)).is_ok());
}

TEST(ObsTaggedWire, RetryPredicateSeesThroughTag) {
  const Bytes access = proto::AccessReq{1, proto::ItemRef::id(0)}.to_frame();
  const Bytes del = proto::DeleteBeginReq{1, proto::ItemRef::id(0)}.to_frame();
  EXPECT_TRUE(proto::retryable_request(access));
  EXPECT_TRUE(proto::retryable_request(tag_frame(5, access)));
  EXPECT_FALSE(proto::retryable_request(del));
  EXPECT_FALSE(proto::retryable_request(tag_frame(5, del)));
}

TEST(ObsServerRid, ResponseEchoesRequestTag) {
  cloud::CloudServer server;
  const Bytes req = proto::StatReq{1}.to_frame();

  // Untagged request -> untagged response (legacy peers see no change).
  const Bytes plain_resp = server.handle(req);
  EXPECT_FALSE(proto::open_tagged(plain_resp).has_value());

  // Tagged request -> response tagged with the same id, even for errors
  // (StatReq on a missing file fails but must stay correlated).
  const std::uint64_t rid = 0xfeedface12345678ull;
  const Bytes resp = server.handle(tag_frame(rid, req));
  const auto opened = proto::open_tagged(resp);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(opened->request_id, rid);
  EXPECT_EQ(Bytes(opened->inner.begin(), opened->inner.end()), plain_resp);
}

// ---- audit log -----------------------------------------------------------

TEST(ObsAudit, LineFormatOkAndError) {
  MemSink sink;
  obs::AuditLog::instance().set_sink(sink.file());
  obs::AuditLog::Entry e;
  e.op = "delete_commit";
  e.request_id = 0x00a1b2c3d4e5f607ull;
  e.file_id = 3;
  e.item = 42;
  e.path_len = 5;
  e.cut_size = 4;
  obs::AuditLog::instance().record(e, Status::ok());
  obs::AuditLog::instance().record(
      e, Status(Error(Errc::kNotFound, "no such item")));
  obs::AuditLog::instance().set_sink(nullptr);

  const std::string text = sink.text();
  EXPECT_NE(text.find("audit ts="), std::string::npos);
  EXPECT_NE(text.find("rid=00a1b2c3d4e5f607 op=delete_commit file=3 item=42 "
                      "path_len=5 cut=4 outcome=ok"),
            std::string::npos);
  EXPECT_NE(text.find("outcome=error err=NOT_FOUND msg=\"no such item\""),
            std::string::npos);
  // Exactly two single-line records.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
}

TEST(ObsAudit, SilentWithoutSink) {
  // Default state: recording must be a no-op (and not crash).
  ASSERT_FALSE(obs::AuditLog::instance().on());
  obs::AuditLog::instance().record(obs::AuditLog::Entry{}, Status::ok());
}

// ---- span tracing --------------------------------------------------------

TEST(ObsTrace, SpanTreeDumpAndLifecycle) {
  EXPECT_FALSE(obs::trace_active());
  { obs::Span idle("not_collected"); }  // no-op without an active trace

  obs::trace_begin(0x77);
  EXPECT_TRUE(obs::trace_active());
  EXPECT_EQ(obs::current_request_id(), 0x77u);
  {
    obs::Span outer("outer_op");
    obs::Span inner("inner_step");
  }
  MemSink sink;
  obs::trace_dump(sink.file());
  const std::string text = sink.text();
  EXPECT_NE(text.find("trace rid=0000000000000077 spans=2"),
            std::string::npos);
  EXPECT_NE(text.find("outer_op"), std::string::npos);
  // Nested span is indented two extra columns under its parent.
  EXPECT_NE(text.find("    inner_step"), std::string::npos);

  // Dump ends the trace and clears the thread's request id.
  EXPECT_FALSE(obs::trace_active());
  EXPECT_EQ(obs::current_request_id(), 0u);
  MemSink again;
  obs::trace_dump(again.file());
  EXPECT_TRUE(again.text().empty());
}

TEST(ObsTrace, RequestScopeRestoresPreviousId) {
  EXPECT_EQ(obs::current_request_id(), 0u);
  {
    obs::RequestScope outer(11);
    EXPECT_EQ(obs::current_request_id(), 11u);
    {
      obs::RequestScope inner(22);
      EXPECT_EQ(obs::current_request_id(), 22u);
    }
    EXPECT_EQ(obs::current_request_id(), 11u);
  }
  EXPECT_EQ(obs::current_request_id(), 0u);
  EXPECT_NE(obs::generate_request_id(), 0u);
  EXPECT_NE(obs::generate_request_id(), obs::generate_request_id());
}

// ---- HTTP scrape endpoint ------------------------------------------------

std::string http_get(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string resp;
  char buf[4096];
  for (;;) {
    const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    if (r <= 0) {
      break;
    }
    resp.append(buf, static_cast<std::size_t>(r));
  }
  ::close(fd);
  return resp;
}

TEST(ObsHttp, ServesMetricsHealthzAndErrors) {
  Registry::instance().counter("fgad_test_http_total").inc();
  auto server = obs::MetricsHttpServer::create(0);
  ASSERT_TRUE(server.is_ok()) << server.status().to_string();
  const std::uint16_t port = server.value()->port();
  ASSERT_NE(port, 0);

  const std::string metrics =
      http_get(port, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("fgad_test_http_total"), std::string::npos);

  const std::string json =
      http_get(port, "GET /metrics.json?x=1 HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(json.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(json.find("application/json"), std::string::npos);
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);

  const std::string health =
      http_get(port, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok\n"), std::string::npos);

  EXPECT_NE(http_get(port, "GET /nope HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 404 Not Found"),
            std::string::npos);
  EXPECT_NE(http_get(port, "POST /metrics HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 405 Method Not Allowed"),
            std::string::npos);

  server.value()->stop();
}

// ---- full-stack correlation ---------------------------------------------

// A traced client deletion produces (a) a client span tree and (b) server
// audit lines, both carrying the same request id — the PR's acceptance
// scenario, run over the in-process channel.
TEST(ObsEndToEnd, TraceAndAuditShareRequestId) {
  cloud::CloudServer server;
  net::DirectChannel ch([&server](BytesView req) {
    return server.handle(req);
  });
  crypto::DeterministicRandom rnd(99);
  client::Client client(ch, rnd);
  auto fh = client.outsource(1, 8, [](std::size_t i) {
    return Bytes(16, static_cast<std::uint8_t>(i));
  });
  ASSERT_TRUE(fh.is_ok()) << fh.status().to_string();

  MemSink audit;
  obs::AuditLog::instance().set_sink(audit.file());
  const std::uint64_t rid = obs::generate_request_id();
  obs::trace_begin(rid);
  ASSERT_TRUE(client.erase_item(fh.value(), proto::ItemRef::id(3)).is_ok());
  MemSink trace;
  obs::trace_dump(trace.file());
  obs::AuditLog::instance().set_sink(nullptr);

  char rid_hex[32];
  std::snprintf(rid_hex, sizeof(rid_hex), "%016llx",
                static_cast<unsigned long long>(rid));

  const std::string trace_text = trace.text();
  EXPECT_NE(trace_text.find(std::string("trace rid=") + rid_hex),
            std::string::npos);
  EXPECT_NE(trace_text.find("client:erase_item"), std::string::npos);
  EXPECT_NE(trace_text.find("delete_begin_req"), std::string::npos);
  EXPECT_NE(trace_text.find("delete_commit_req"), std::string::npos);

  const std::string audit_text = audit.text();
  EXPECT_NE(audit_text.find(std::string("rid=") + rid_hex +
                            " op=delete_begin"),
            std::string::npos);
  EXPECT_NE(audit_text.find(std::string("rid=") + rid_hex +
                            " op=delete_commit"),
            std::string::npos);
  EXPECT_NE(audit_text.find("outcome=ok"), std::string::npos);
}

}  // namespace
}  // namespace fgad
