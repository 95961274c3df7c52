// Span propagation over the V2 tagged envelope, clock-offset estimation,
// and cross-process trace stitching (DESIGN.md §19).
//
// Three layers under test:
//   * wire — seal_tagged_v2 / open_tagged roundtrips, and the backward-
//     compatibility guarantee: untagged frames are byte-identical to the
//     pre-§19 protocol, and V1-tagged frames still decode;
//   * math — the NTP-style midpoint offset estimate and the stitched
//     timestamp rewrite, against hand-computed fixtures;
//   * system — an in-process client / primary / backup trio where one
//     traced deletion produces correlated span segments on all three
//     parties under a single request id.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "cloud/recovery.h"
#include "cloud/replica.h"
#include "net/transport.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/stitch.h"
#include "obs/trace.h"
#include "proto/messages.h"
#include "support/scoped_dir.h"

namespace fgad {
namespace {

using client::Client;

// ---- wire: envelope compatibility ------------------------------------------

Bytes inner_frame() {
  proto::StatReq req;
  req.file_id = 7;
  return req.to_frame();
}

TEST(TraceProp, UntaggedFramesAreNotTagged) {
  const Bytes frame = inner_frame();
  EXPECT_FALSE(proto::open_tagged(frame).has_value());
  ASSERT_TRUE(proto::peek_type(frame).has_value());
  EXPECT_EQ(*proto::peek_type(frame), proto::MsgType::kStatReq);
}

TEST(TraceProp, V1EnvelopeLayoutUnchanged) {
  // The pre-§19 envelope: exactly u16 tag + u64 rid prepended. It is no
  // longer written, but logs from before it was retired hold it, so it
  // must still decode.
  const Bytes frame = inner_frame();
  proto::Writer w;
  w.u16(static_cast<std::uint16_t>(proto::MsgType::kTaggedEnvelope));
  w.u64(0x1122334455667788ull);
  w.raw(frame);
  const Bytes tagged = std::move(w).take();
  ASSERT_EQ(tagged.size(), frame.size() + 10);
  EXPECT_TRUE(std::equal(frame.begin(), frame.end(), tagged.begin() + 10));

  const auto tag = proto::open_tagged(tagged);
  ASSERT_TRUE(tag.has_value());
  EXPECT_EQ(tag->request_id, 0x1122334455667788ull);
  EXPECT_FALSE(tag->v2);
  EXPECT_EQ(tag->span_id, 0u);
  EXPECT_EQ(tag->parent_span_id, 0u);
  EXPECT_TRUE(tag->timings.empty());
  EXPECT_EQ(tag->inner.size(), frame.size());
}

TEST(TraceProp, V2SealOpenRoundtrip) {
  const Bytes frame = inner_frame();
  std::vector<proto::TimingEntry> timings;
  timings.push_back({1, 1111});
  timings.push_back({4, 444444});
  const Bytes tagged =
      proto::seal_tagged_v2(0xAAu, 0xBBu, 0xCCu, timings, frame);

  const auto tag = proto::open_tagged(tagged);
  ASSERT_TRUE(tag.has_value());
  EXPECT_TRUE(tag->v2);
  EXPECT_EQ(tag->request_id, 0xAAu);
  EXPECT_EQ(tag->span_id, 0xBBu);
  EXPECT_EQ(tag->parent_span_id, 0xCCu);
  ASSERT_EQ(tag->timings.size(), 2u);
  EXPECT_EQ(tag->timings[0].kind, 1);
  EXPECT_EQ(tag->timings[0].ns, 1111u);
  EXPECT_EQ(tag->timings[1].kind, 4);
  EXPECT_EQ(tag->timings[1].ns, 444444u);
  ASSERT_EQ(tag->inner.size(), frame.size());
  EXPECT_TRUE(std::equal(frame.begin(), frame.end(), tag->inner.begin()));

  // peek_type looks through the envelope.
  ASSERT_TRUE(proto::peek_type(tagged).has_value());
  EXPECT_EQ(*proto::peek_type(tagged), proto::MsgType::kStatReq);
}

TEST(TraceProp, V2RejectsTruncatedAndOverrunningFrames) {
  const Bytes tagged =
      proto::seal_tagged_v2(1, 2, 3, {{1, 10}, {2, 20}}, inner_frame());
  // Every truncation of the header region must be rejected, not read
  // out of bounds.
  for (std::size_t len = 0; len < 29; ++len) {
    EXPECT_FALSE(
        proto::open_tagged(BytesView(tagged.data(), len)).has_value())
        << "len=" << len;
  }
  // A timing count that overruns the frame is rejected.
  Bytes corrupt = tagged;
  corrupt[26] = 0xFF;  // n_timing byte
  EXPECT_FALSE(proto::open_tagged(corrupt).has_value());
}

// ---- math: offset estimation -----------------------------------------------

TEST(TraceProp, OffsetFromSampleIsMidpointEstimate) {
  // Hand-computed: request sent at 1000, answered with peer clock 5000,
  // received at 2000. Midpoint 1500, so offset = 5000 - 1500 = 3500.
  obs::ClockSample s;
  s.local_send_ns = 1000;
  s.peer_ns = 5000;
  s.local_recv_ns = 2000;
  EXPECT_EQ(obs::offset_from_sample(s), 3500);

  // A peer clock far *behind* the local clock gives a negative offset:
  // sent 10000, peer 400, received 11000 -> 400 - 10500 = -10100.
  s.local_send_ns = 10000;
  s.peer_ns = 400;
  s.local_recv_ns = 11000;
  EXPECT_EQ(obs::offset_from_sample(s), -10100);
}

TEST(TraceProp, BestOffsetPrefersMinimumRtt) {
  std::vector<obs::ClockSample> samples;
  samples.push_back({1000, 9000, 9000});  // rtt 8000, offset 4000
  samples.push_back({1000, 6000, 3000});  // rtt 2000, offset 4000
  samples.push_back({1000, 7000, 5000});  // rtt 4000, offset 4000
  const auto est = obs::best_offset(samples);
  ASSERT_TRUE(est.valid);
  EXPECT_EQ(est.rtt_ns, 2000u);
  EXPECT_EQ(est.offset_ns, 4000);
}

TEST(TraceProp, BestOffsetDiscardsNonCausalSamples) {
  std::vector<obs::ClockSample> samples;
  samples.push_back({5000, 1, 4000});  // recv before send: clock bug
  EXPECT_FALSE(obs::best_offset(samples).valid);
  EXPECT_FALSE(obs::best_offset({}).valid);

  samples.push_back({5000, 9000, 6000});
  const auto est = obs::best_offset(samples);
  ASSERT_TRUE(est.valid);
  EXPECT_EQ(est.offset_ns, 9000 - 5500);
}

// ---- math: stitching -------------------------------------------------------

/// A minimal but well-formed trace document in the renderer's shape.
std::string doc_with(std::uint64_t t0_ns, double ts_us, int pid,
                     const char* name) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"displayTimeUnit\":\"ms\",\"meta\":{\"rid\":\"%016x\","
      "\"t0_ns\":%llu,\"proc\":\"test\"},\"traceEvents\":["
      "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":1.000,"
      "\"pid\":%d,\"tid\":1}]}",
      1, static_cast<unsigned long long>(t0_ns), name, ts_us, pid);
  return buf;
}

TEST(TraceProp, StitchDocT0Parses) {
  EXPECT_EQ(obs::trace_doc_t0_ns(doc_with(123456789, 0, 1, "a")),
            123456789u);
  EXPECT_EQ(obs::trace_doc_t0_ns("{}"), 0u);
}

TEST(TraceProp, StitchRewritesPeerTimestampsAndPid) {
  // Base trace began at absolute local time 1'000'000 ns. The peer's
  // trace began at peer-absolute 2'000'000 ns, and the peer clock runs
  // 500'000 ns ahead of ours. A peer event at ts=100 µs therefore
  // happened at local-absolute 2'000'000 + 100'000 - 500'000 ns
  // = 1'600'000 ns, i.e. ts=600 µs in the base timeline.
  const std::string base = doc_with(1'000'000, 10.0, 1, "local_span");
  const std::string peer = doc_with(2'000'000, 100.0, 1, "peer_span");
  const std::string merged =
      obs::trace_stitch(base, peer, /*offset_ns=*/500'000, /*pid_delta=*/1);

  // Both events present; the local one untouched.
  EXPECT_NE(merged.find("local_span"), std::string::npos);
  EXPECT_NE(merged.find("\"ts\":10.000"), std::string::npos);
  // The peer event lands at 600 µs on pid lane 2.
  const std::size_t peer_pos = merged.find("peer_span");
  ASSERT_NE(peer_pos, std::string::npos);
  const std::string peer_part = merged.substr(peer_pos);
  EXPECT_NE(peer_part.find("\"ts\":600.000"), std::string::npos);
  EXPECT_NE(peer_part.find("\"pid\":2"), std::string::npos);
  // The merged document keeps the base meta (one t0 per document).
  EXPECT_EQ(obs::trace_doc_t0_ns(merged), 1'000'000u);
}

TEST(TraceProp, StitchPreservesCausalOrderAcrossSkew) {
  // Whatever the skew, events that happened in a causal request order
  // (peer handled the RPC *inside* the client's send/recv window) must
  // render in that order after correction. Client span 100..300 µs;
  // peer handled it 50 µs after the client sent, on a clock 2 ms ahead.
  const std::uint64_t base_t0 = 5'000'000;
  const std::int64_t offset = 2'000'000;  // peer ahead 2 ms
  // Peer trace began when the client was at 150 µs into its trace:
  // peer_t0 = base_t0 + 150'000 + offset.
  const std::uint64_t peer_t0 = base_t0 + 150'000 + offset;
  const std::string base = doc_with(base_t0, 100.0, 1, "client_rpc");
  const std::string peer = doc_with(peer_t0, 0.0, 1, "server_handle");
  const std::string merged = obs::trace_stitch(base, peer, offset, 1);
  const std::size_t pos = merged.find("server_handle");
  ASSERT_NE(pos, std::string::npos);
  // ts_local = (peer_t0 + 0 - offset - base_t0) / 1e3 = 150 µs — inside
  // the client RPC span, after its start.
  EXPECT_NE(merged.substr(pos).find("\"ts\":150.000"), std::string::npos);
}

TEST(TraceProp, StitchLeavesBaseAloneOnGarbagePeer) {
  const std::string base = doc_with(1000, 1.0, 1, "keep_me");
  EXPECT_EQ(obs::trace_stitch(base, "not json at all", 0, 1), base);
  EXPECT_EQ(obs::trace_stitch(base, "", 0, 1), base);
}

// ---- TraceStore eviction forensics -----------------------------------------

TEST(TraceProp, EvictionRecordsSpanDroppedEvent) {
  obs::FlightRecorder& fr = obs::FlightRecorder::instance();
  fr.configure(64);
  obs::Counter& dropped =
      obs::Registry::instance().counter("fgad_trace_dropped_total");
  const std::uint64_t dropped_before = dropped.value();

  obs::TraceStore& store = obs::TraceStore::instance();
  store.set_capacity(2);
  store.put(0x1001, "{\"traceEvents\":[]}");
  store.put(0x1002, "{\"traceEvents\":[]}");
  store.put(0x1003, "{\"traceEvents\":[]}");  // evicts 0x1001

  EXPECT_EQ(store.get(0x1001), "");
  EXPECT_NE(store.get(0x1003), "");
  EXPECT_EQ(store.rids().size(), 2u);
  EXPECT_EQ(dropped.value(), dropped_before + 1);

  bool saw_drop = false;
  for (const auto& e : fr.snapshot()) {
    if (e.type == obs::FrEvent::kSpanDropped && e.rid == 0x1001) {
      saw_drop = true;
    }
  }
  EXPECT_TRUE(saw_drop);
  store.set_capacity(0);
}

// ---- system: client / primary / backup correlation -------------------------

TEST(TraceProp, TrioCorrelatesOneRidAcrossAllParties) {
  using cloud::DurableServer;
  using cloud::ReplAckMode;
  using cloud::Replicator;
  using cloud::ReplRole;

  const test::ScopedDir popts_dir("traceprop_primary");
  DurableServer::Options popts;
  popts.dir = popts_dir.path();
  popts.role = ReplRole::kPrimary;
  auto p = DurableServer::open(popts);
  ASSERT_TRUE(p.is_ok()) << p.status().to_string();
  auto primary = std::move(p).value();

  const test::ScopedDir bopts_dir("traceprop_backup");
  DurableServer::Options bopts;
  bopts.dir = bopts_dir.path();
  bopts.role = ReplRole::kBackup;
  auto b = DurableServer::open(bopts);
  ASSERT_TRUE(b.is_ok()) << b.status().to_string();
  auto backup = std::move(b).value();

  // Async ship mode: records reach the backup on the replicator's ship
  // thread.
  Replicator::Options ropts;
  ropts.mode = ReplAckMode::kAsync;
  ropts.heartbeat_ms = 50;
  auto repl = std::make_shared<Replicator>(
      [&backup]() -> Result<std::unique_ptr<net::RpcChannel>> {
        return std::unique_ptr<net::RpcChannel>(new net::DirectChannel(
            [&backup](BytesView req) { return backup->handle(req); }));
      },
      ropts);
  primary->attach_replicator(repl, ropts.mode);

  // The backup applies shipped records on the replicator's ship thread,
  // where no client trace is active — exactly like a separate process —
  // so its capture lands in the TraceStore keyed by the wire-carried rid.
  obs::TraceStore& store = obs::TraceStore::instance();
  store.set_capacity(16);

  net::DirectChannel ch(
      [&primary](BytesView req) { return primary->handle(req); });
  crypto::DeterministicRandom rnd{99};
  Client::Options copts;
  copts.tag_mutations = true;
  Client client(ch, rnd, copts);

  auto fh = client.outsource(3, 8, [](std::size_t i) {
    return Bytes(16, static_cast<std::uint8_t>(i));
  });
  ASSERT_TRUE(fh.is_ok()) << fh.status().to_string();
  auto ids = client.list_items(fh.value());
  ASSERT_TRUE(ids.is_ok());
  ASSERT_FALSE(ids.value().empty());

  // One traced user operation = one rid, carried by every RPC of it.
  const std::uint64_t rid = obs::generate_request_id();
  obs::trace_begin(rid);
  ASSERT_TRUE(client.erase_item(fh.value(),
                                proto::ItemRef::id(ids.value().front())));

  // Client-side document: the whole traced operation, with the primary's
  // spans (same thread through the DirectChannel) nested inline, the
  // wait for the group commit included.
  const std::string client_doc = obs::trace_render_chrome_json();
  EXPECT_NE(client_doc.find("wal_append"), std::string::npos);
  EXPECT_NE(client_doc.find("commit_wait"), std::string::npos);

  // Backup-side segment: captured under the same rid, containing the
  // repl_apply span, once the ship thread has delivered the record.
  std::string backup_doc;
  for (int waited = 0; waited < 5000 && backup_doc.empty(); waited += 10) {
    backup_doc = store.get(rid);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_NE(backup_doc, "") << "backup did not capture a segment for rid";
  EXPECT_NE(backup_doc.find("repl_apply"), std::string::npos);
  EXPECT_GT(obs::trace_doc_t0_ns(backup_doc), 0u);

  // Stitched (same process, so offset 0): one document, both segments.
  const std::string merged = obs::trace_stitch(client_doc, backup_doc, 0, 1);
  EXPECT_NE(merged.find("repl_apply"), std::string::npos);
  EXPECT_NE(merged.find("wal_append"), std::string::npos);

  obs::trace_stop();
  store.set_capacity(0);
  repl->stop();
}

}  // namespace
}  // namespace fgad
