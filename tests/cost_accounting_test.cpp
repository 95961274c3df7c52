// Per-request cost accounting (DESIGN.md §19): the CostLedger, ScopedCost
// attribution, the server-timing trailer on V2 responses through the
// durable server's group-commit pipeline (handle() and handle_async), and
// the audit log's fencing-term / commit-LSN stamps.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "cloud/recovery.h"
#include "cloud/server.h"
#include "net/transport.h"
#include "obs/cost.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "proto/messages.h"

namespace fgad {
namespace {

using client::Client;
using obs::CostKind;
using obs::CostLedger;

/// A new, empty directory: unlike a pid-based name, mkdtemp never hands
/// back one that an earlier process with a recycled pid left behind.
std::string fresh_state_dir(const std::string& name) {
  std::string d = ::testing::TempDir() + "/" + name + ".XXXXXX";
  EXPECT_NE(::mkdtemp(d.data()), nullptr) << d;
  return d;
}

/// Captures a FILE* sink in memory (POSIX open_memstream).
class MemSink {
 public:
  MemSink() : f_(open_memstream(&buf_, &len_)) {}
  ~MemSink() {
    if (f_ != nullptr) {
      std::fclose(f_);
    }
    free(buf_);
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

/// RAII: ledger on for the test, cleared and off afterwards.
struct LedgerOn {
  LedgerOn() {
    CostLedger::instance().clear();
    CostLedger::instance().set_enabled(true);
  }
  ~LedgerOn() {
    CostLedger::instance().clear();
    CostLedger::instance().set_enabled(false);
  }
};

std::uint64_t ns_of(const std::vector<proto::TimingEntry>& timings,
                    CostKind k) {
  for (const auto& t : timings) {
    if (t.kind == static_cast<std::uint8_t>(k)) {
      return t.ns;
    }
  }
  return 0;
}

// ---- ledger unit behavior --------------------------------------------------

TEST(CostAcct, DisabledLedgerIsNoOp) {
  CostLedger& ledger = CostLedger::instance();
  ledger.clear();
  ledger.set_enabled(false);
  ledger.add(42, CostKind::kApply, 1000);
  EXPECT_FALSE(ledger.take(42).any());
}

TEST(CostAcct, AddAccumulatesAndTakeRemoves) {
  LedgerOn on;
  CostLedger& ledger = CostLedger::instance();
  ledger.add(42, CostKind::kApply, 1000);
  ledger.add(42, CostKind::kApply, 500);
  ledger.add(42, CostKind::kWalAppend, 7);
  ledger.add(0, CostKind::kApply, 99);  // rid 0 = unattributed, dropped

  const auto row = ledger.take(42);
  EXPECT_EQ(row.ns[static_cast<std::size_t>(CostKind::kApply)], 1500u);
  EXPECT_EQ(row.ns[static_cast<std::size_t>(CostKind::kWalAppend)], 7u);
  // take() removed the row.
  EXPECT_FALSE(ledger.take(42).any());
}

TEST(CostAcct, AbandonedRowsEvictFifoAtCapacity) {
  LedgerOn on;
  CostLedger& ledger = CostLedger::instance();
  // Rows for rids a client never claims must not grow without bound.
  for (std::uint64_t rid = 1; rid <= CostLedger::kMaxEntries + 1; ++rid) {
    ledger.add(rid, CostKind::kApply, rid);
  }
  EXPECT_FALSE(ledger.take(1).any()) << "oldest row should be evicted";
  EXPECT_TRUE(ledger.take(2).any());
  EXPECT_TRUE(ledger.take(CostLedger::kMaxEntries + 1).any());
}

TEST(CostAcct, ScopedCostChargesTheActiveRequestId) {
  LedgerOn on;
  {
    obs::RequestScope scope(77);
    obs::ScopedCost cost(CostKind::kKeyDerive);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto row = CostLedger::instance().take(77);
  EXPECT_GE(row.ns[static_cast<std::size_t>(CostKind::kKeyDerive)],
            1'000'000u);

  // No active rid -> nothing charged anywhere.
  { obs::ScopedCost cost(CostKind::kKeyDerive); }
  EXPECT_FALSE(CostLedger::instance().take(0).any());
}

// ---- audit term/lsn stamps -------------------------------------------------

TEST(CostAcct, CommitContextIsThreadLocal) {
  obs::AuditLog::set_commit_context(5, 42);
  EXPECT_EQ(obs::AuditLog::commit_term(), 5u);
  EXPECT_EQ(obs::AuditLog::commit_lsn(), 42u);
  std::thread([] {
    EXPECT_EQ(obs::AuditLog::commit_term(), 0u);
    EXPECT_EQ(obs::AuditLog::commit_lsn(), 0u);
  }).join();
  obs::AuditLog::clear_commit_context();
  EXPECT_EQ(obs::AuditLog::commit_term(), 0u);
}

TEST(CostAcct, DurableDeletesStampTermAndLsn) {
  cloud::DurableServer::Options opts;
  opts.dir = fresh_state_dir("costacct_audit");
  auto opened = cloud::DurableServer::open(opts);
  ASSERT_TRUE(opened.is_ok()) << opened.status().to_string();
  auto durable = std::move(opened).value();

  net::DirectChannel ch(
      [&durable](BytesView req) { return durable->handle(req); });
  crypto::DeterministicRandom rnd{7};
  Client::Options copts;
  copts.tag_mutations = true;
  Client client(ch, rnd, copts);

  auto fh = client.outsource(9, 8, [](std::size_t i) {
    return Bytes(16, static_cast<std::uint8_t>(i));
  });
  ASSERT_TRUE(fh.is_ok());
  auto ids = client.list_items(fh.value());
  ASSERT_TRUE(ids.is_ok());

  MemSink audit;
  obs::AuditLog::instance().set_sink(audit.file());
  ASSERT_TRUE(client.erase_item(fh.value(),
                                proto::ItemRef::id(ids.value().front())));
  obs::AuditLog::instance().set_sink(nullptr);

  // Every audit line of a WAL-committed deletion carries the fencing
  // term (a fresh primary bootstraps to 1) and the record's LSN.
  const std::string text = audit.text();
  ASSERT_NE(text.find("audit"), std::string::npos) << text;
  EXPECT_NE(text.find(" term=1 "), std::string::npos) << text;
  EXPECT_NE(text.find(" lsn="), std::string::npos) << text;
}

TEST(CostAcct, InMemoryDeletesOmitTermAndLsn) {
  // Without a durable commit there is no term/LSN; the line must stay
  // byte-identical to the pre-§19 format (obs_test pins it exactly).
  cloud::CloudServer server{cloud::CloudServer::Options{}};
  net::DirectChannel ch([&server](BytesView req) { return server.handle(req); });
  crypto::DeterministicRandom rnd{8};
  Client client(ch, rnd, Client::Options{});

  auto fh = client.outsource(3, 4, [](std::size_t i) {
    return Bytes(16, static_cast<std::uint8_t>(i));
  });
  ASSERT_TRUE(fh.is_ok());
  auto ids = client.list_items(fh.value());
  ASSERT_TRUE(ids.is_ok());

  MemSink audit;
  obs::AuditLog::instance().set_sink(audit.file());
  ASSERT_TRUE(client.erase_item(fh.value(),
                                proto::ItemRef::id(ids.value().front())));
  obs::AuditLog::instance().set_sink(nullptr);

  const std::string text = audit.text();
  ASSERT_NE(text.find("audit"), std::string::npos);
  EXPECT_EQ(text.find(" term="), std::string::npos) << text;
  EXPECT_EQ(text.find(" lsn="), std::string::npos) << text;
}

// ---- the server-timing trailer, end to end ---------------------------------

TEST(CostAcct, V2ResponseCarriesServerTimingTrailer) {
  LedgerOn on;
  cloud::DurableServer::Options opts;
  opts.dir = fresh_state_dir("costacct_trailer");
  auto opened = cloud::DurableServer::open(opts);
  ASSERT_TRUE(opened.is_ok()) << opened.status().to_string();
  auto durable = std::move(opened).value();

  net::DirectChannel ch(
      [&durable](BytesView req) { return durable->handle(req); });
  crypto::DeterministicRandom rnd{11};
  Client::Options copts;
  copts.tag_mutations = true;
  Client client(ch, rnd, copts);

  auto fh = client.outsource(4, 16, [](std::size_t i) {
    return Bytes(32, static_cast<std::uint8_t>(i));
  });
  ASSERT_TRUE(fh.is_ok());
  auto ids = client.list_items(fh.value());
  ASSERT_TRUE(ids.is_ok());

  // One traced operation = one rid (the durable dedup table would treat
  // a second mutation under the same rid as a resend).
  obs::trace_begin(obs::generate_request_id());
  ASSERT_TRUE(client.erase_item(fh.value(),
                                proto::ItemRef::id(ids.value().front())));
  obs::trace_stop();

  const auto& timings = client.last_server_timing();
  ASSERT_FALSE(timings.empty());
  // A durable mutation always pays a WAL append, its share of a group
  // fsync, and the apply; total covers dispatch -> response.
  EXPECT_GT(ns_of(timings, CostKind::kWalAppend), 0u);
  EXPECT_GT(ns_of(timings, CostKind::kFsyncShare), 0u);
  EXPECT_GT(ns_of(timings, CostKind::kApply), 0u);
  const std::uint64_t total = ns_of(timings, CostKind::kTotal);
  ASSERT_GT(total, 0u);

  // The parts must account for the total: nothing big is unattributed
  // (>= 50% guards against scheduler noise in CI; in practice ~95%+),
  // and no part is double-counted past the total by more than 10%.
  std::uint64_t parts = 0;
  for (const auto& t : timings) {
    const auto k = static_cast<CostKind>(t.kind);
    if (k != CostKind::kTotal && k != CostKind::kKeyDerive) {
      parts += t.ns;
    }
  }
  EXPECT_GE(parts, total / 2) << "parts " << parts << " total " << total;
  EXPECT_LE(parts, total + total / 10)
      << "parts " << parts << " total " << total;
}

TEST(CostAcct, V1AndUntaggedResponsesCarryNoTrailer) {
  LedgerOn on;
  cloud::DurableServer::Options opts;
  opts.dir = fresh_state_dir("costacct_v1");
  auto opened = cloud::DurableServer::open(opts);
  ASSERT_TRUE(opened.is_ok());
  auto durable = std::move(opened).value();

  // V1-tagged mutation (tag_mutations without a trace): the response
  // must be the V1 echo — same envelope, no timing table.
  net::DirectChannel ch(
      [&durable](BytesView req) { return durable->handle(req); });
  crypto::DeterministicRandom rnd{12};
  Client::Options copts;
  copts.tag_mutations = true;
  Client client(ch, rnd, copts);
  auto fh = client.outsource(5, 4, [](std::size_t i) {
    return Bytes(16, static_cast<std::uint8_t>(i));
  });
  ASSERT_TRUE(fh.is_ok());
  EXPECT_TRUE(client.last_server_timing().empty());

  // Hand-rolled check on the raw frames: a V1 request gets a V1 reply.
  proto::StatReq stat;
  stat.file_id = fh.value().id;
  const Bytes v1 = proto::seal_tagged(1234, stat.to_frame());
  const Bytes resp = durable->handle(v1);
  const auto rtag = proto::open_tagged(resp);
  ASSERT_TRUE(rtag.has_value());
  EXPECT_FALSE(rtag->v2);
  EXPECT_TRUE(rtag->timings.empty());

  // An untagged request gets an untagged reply.
  const Bytes plain_resp = durable->handle(stat.to_frame());
  EXPECT_FALSE(proto::open_tagged(plain_resp).has_value());
}

TEST(CostAcct, GroupCommitPathAttributesSharesAndQueueWait) {
  LedgerOn on;
  cloud::DurableServer::Options opts;
  opts.dir = fresh_state_dir("costacct_async");
  auto opened = cloud::DurableServer::open(opts);
  ASSERT_TRUE(opened.is_ok()) << opened.status().to_string();
  auto durable = std::move(opened).value();

  // The reactor's async path: respond via the group committer, exactly
  // like tools/fgad_server wires it.
  net::DirectChannel ch([&durable](BytesView req) {
    std::promise<Bytes> p;
    durable->handle_async(Bytes(req.begin(), req.end()),
                          [&p](Bytes resp) { p.set_value(std::move(resp)); });
    return p.get_future().get();
  });
  crypto::DeterministicRandom rnd{13};
  Client::Options copts;
  copts.tag_mutations = true;
  Client client(ch, rnd, copts);

  auto fh = client.outsource(6, 8, [](std::size_t i) {
    return Bytes(16, static_cast<std::uint8_t>(i));
  });
  ASSERT_TRUE(fh.is_ok());
  auto ids = client.list_items(fh.value());
  ASSERT_TRUE(ids.is_ok());

  // One traced operation = one rid (the durable dedup table would treat
  // a second mutation under the same rid as a resend).
  obs::trace_begin(obs::generate_request_id());
  ASSERT_TRUE(client.erase_item(fh.value(),
                                proto::ItemRef::id(ids.value().front())));
  obs::trace_stop();

  const auto& timings = client.last_server_timing();
  ASSERT_FALSE(timings.empty());
  // The batch's fsync is charged as an amortized share, and the wait
  // between enqueue and flush pickup shows up as queue_wait.
  EXPECT_GT(ns_of(timings, CostKind::kFsyncShare), 0u);
  EXPECT_GT(ns_of(timings, CostKind::kQueueWait), 0u);
  EXPECT_GT(ns_of(timings, CostKind::kApply), 0u);
  EXPECT_GT(ns_of(timings, CostKind::kTotal), 0u);
}

}  // namespace
}  // namespace fgad
