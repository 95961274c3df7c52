// Primary–backup WAL replication (DESIGN.md §18): ack-mode semantics,
// stale-term fencing, snapshot catch-up, queue-overflow fallback, and
// exactly-once convergence of tagged mutations resent across a failover.
//
// Everything here is in-process: two DurableServers in one address space,
// the replication link a Result-returning channel whose "wire" can be cut
// by flipping an atomic. The two-process kill -9 drill lives in
// tools/fgad_repl_smoke.cpp (run by the CI failover smoke job).
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>

#include "client/client.h"
#include "cloud/recovery.h"
#include "cloud/replica.h"
#include "cloud/server.h"
#include "net/transport.h"
#include "support/harness.h"

namespace fgad::cloud {
namespace {

using client::Client;
using test::payload_for;

/// A new, empty directory: unlike a pid-based name, mkdtemp never hands
/// back one that an earlier process with a recycled pid left behind.
std::string fresh_state_dir(const std::string& name) {
  std::string d = ::testing::TempDir() + "/" + name + ".XXXXXX";
  EXPECT_NE(::mkdtemp(d.data()), nullptr) << d;
  return d;
}

/// Replication "wire": invokes the follower's handler in-process, but
/// fails like a dead TCP link while `up` is false.
class LinkChannel final : public net::RpcChannel {
 public:
  LinkChannel(std::function<Bytes(BytesView)> handler, std::atomic<bool>& up)
      : handler_(std::move(handler)), up_(up) {}

  Result<Bytes> roundtrip(BytesView request) override {
    if (!up_.load()) {
      return Error(Errc::kConnReset, "test link down");
    }
    return handler_(request);
  }

 private:
  std::function<Bytes(BytesView)> handler_;
  std::atomic<bool>& up_;
};

bool wait_until(const std::function<bool()>& pred, int deadline_ms = 5000) {
  for (int waited = 0; waited < deadline_ms; waited += 10) {
    if (pred()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

/// Two durable servers joined by an in-process replication link, plus a
/// tagged client whose channel can be re-pointed at the survivor after a
/// "kill" — the in-memory analogue of the fgad_repl_smoke topology.
struct ReplPair {
  explicit ReplPair(ReplAckMode mode,
                    Replicator::Options ropts = Replicator::Options{},
                    bool attach = true) {
    DurableServer::Options popts;
    popts.dir = fresh_state_dir("repl_primary");
    popts.role = ReplRole::kPrimary;
    auto p = DurableServer::open(popts);
    EXPECT_TRUE(p.is_ok()) << p.status().to_string();
    primary = std::move(p).value();

    DurableServer::Options bopts;
    bopts.dir = fresh_state_dir("repl_backup");
    bopts.role = ReplRole::kBackup;
    auto b = DurableServer::open(bopts);
    EXPECT_TRUE(b.is_ok()) << b.status().to_string();
    backup = std::move(b).value();

    ropts.mode = mode;
    ropts.heartbeat_ms = 50;
    ropts.redial_backoff_ms = 5;
    ropts.max_backoff_ms = 20;
    repl = std::make_shared<Replicator>(
        [this]() -> Result<std::unique_ptr<net::RpcChannel>> {
          if (!link_up.load()) {
            return Error(Errc::kConnReset, "test link down");
          }
          return std::unique_ptr<net::RpcChannel>(new LinkChannel(
              [this](BytesView req) { return backup->handle(req); }, link_up));
        },
        ropts);
    if (attach) {
      primary->attach_replicator(repl, mode);
    }

    // The client talks to whichever node `target` points at; a test
    // "fails over" by re-aiming it. Every mutating frame and its response
    // are recorded so exactly-once can be audited by byte-exact resends.
    target = primary.get();
    ch = std::make_unique<net::DirectChannel>([this](BytesView req) -> Bytes {
      Bytes resp = target->handle(req);
      if (proto::split_tagged(req)) {
        frames.emplace_back(req.begin(), req.end());
        responses.push_back(resp);
      }
      return resp;
    });
    Client::Options copts;
    copts.tag_mutations = true;
    client = std::make_unique<Client>(*ch, rnd, copts);
  }

  ~ReplPair() {
    repl->stop();  // ship thread references backup; stop it first
  }

  /// kill -9 of the primary + SIGHUP promotion of the backup, in-process.
  void failover() {
    repl->stop();
    primary.reset();
    ASSERT_TRUE(backup->promote());
    target = backup.get();
  }

  std::unique_ptr<DurableServer> primary;
  std::unique_ptr<DurableServer> backup;
  std::shared_ptr<Replicator> repl;
  std::atomic<bool> link_up{true};
  DurableServer* target = nullptr;
  std::unique_ptr<net::DirectChannel> ch;
  crypto::DeterministicRandom rnd{1234};
  std::unique_ptr<Client> client;
  std::vector<Bytes> frames;     // tagged mutation frames, client order
  std::vector<Bytes> responses;  // the primary's original responses
};

// ---- role plumbing ---------------------------------------------------------

TEST(Replication, BackupBouncesClientTraffic) {
  DurableServer::Options opts;
  opts.dir = fresh_state_dir("backup_bounce");
  opts.role = ReplRole::kBackup;
  auto ds = DurableServer::open(opts);
  ASSERT_TRUE(ds.is_ok());
  EXPECT_EQ(ds.value()->role(), ReplRole::kBackup);

  // Reads bounce too: a backup may hold a stale, un-deleted view of an
  // item the primary has already assured-deleted, so serving it would
  // break the deletion contract.
  proto::StatReq stat;
  stat.file_id = 1;
  const Bytes resp = ds.value()->handle(stat.to_frame());
  auto env = proto::open_message(resp);
  ASSERT_TRUE(env.is_ok());
  ASSERT_EQ(env.value().type, proto::MsgType::kError);
  proto::Reader r(env.value().payload);
  auto err = proto::ErrorMsg::from(r);
  ASSERT_TRUE(err.is_ok());
  EXPECT_EQ(err.value().code, Errc::kNotPrimary);

  // Replication traffic is what a backup is for.
  proto::ReplHeartbeat hb;
  hb.term = 1;
  hb.last_lsn = 0;
  auto hb_env = proto::open_message(ds.value()->handle(hb.to_frame()));
  ASSERT_TRUE(hb_env.is_ok());
  EXPECT_EQ(hb_env.value().type, proto::MsgType::kReplAck);
}

TEST(Replication, PrimaryBootstrapsFencingTermToOne) {
  DurableServer::Options opts;
  opts.dir = fresh_state_dir("term_bootstrap");
  opts.role = ReplRole::kPrimary;
  auto ds = DurableServer::open(opts);
  ASSERT_TRUE(ds.is_ok());
  // Term 0 never appears on the wire: a fresh primary starts at 1 so a
  // fresh backup (term 0) always accepts its stream.
  EXPECT_EQ(ds.value()->term(), 1u);
}

TEST(Replication, TermSurvivesRestart) {
  DurableServer::Options opts;
  opts.dir = fresh_state_dir("term_restart");
  opts.role = ReplRole::kBackup;
  {
    auto ds = DurableServer::open(opts);
    ASSERT_TRUE(ds.is_ok());
    EXPECT_EQ(ds.value()->term(), 0u);
    ASSERT_TRUE(ds.value()->promote());
    EXPECT_EQ(ds.value()->role(), ReplRole::kPrimary);
    EXPECT_EQ(ds.value()->term(), 1u);
  }  // destructor = clean shutdown; promote() already checkpointed v2+term
  {
    auto ds = DurableServer::open(opts);  // still role=kBackup options
    ASSERT_TRUE(ds.is_ok());
    EXPECT_EQ(ds.value()->term(), 1u) << "fencing term lost across restart";
    EXPECT_EQ(ds.value()->role(), ReplRole::kBackup);
  }
}

// ---- fencing ---------------------------------------------------------------

TEST(Replication, StaleTermRejectedWithStaleTerm) {
  DurableServer::Options opts;
  opts.dir = fresh_state_dir("fence_direct");
  opts.role = ReplRole::kBackup;
  auto ds = DurableServer::open(opts);
  ASSERT_TRUE(ds.is_ok());
  ASSERT_TRUE(ds.value()->promote());  // term 1, primary

  proto::ReplHeartbeat hb;
  hb.term = 0;  // older than the receiver's
  auto env = proto::open_message(ds.value()->handle_repl(hb.to_frame()));
  ASSERT_TRUE(env.is_ok());
  ASSERT_EQ(env.value().type, proto::MsgType::kError);
  proto::Reader r(env.value().payload);
  auto err = proto::ErrorMsg::from(r);
  ASSERT_TRUE(err.is_ok());
  EXPECT_EQ(err.value().code, Errc::kStaleTerm);
}

TEST(Replication, PrimaryHearingNewerTermStepsDown) {
  DurableServer::Options opts;
  opts.dir = fresh_state_dir("fence_stepdown");
  opts.role = ReplRole::kPrimary;
  auto ds = DurableServer::open(opts);
  ASSERT_TRUE(ds.is_ok());
  ASSERT_EQ(ds.value()->term(), 1u);

  proto::ReplHeartbeat hb;
  hb.term = 5;  // a newer primary exists somewhere
  auto env = proto::open_message(ds.value()->handle_repl(hb.to_frame()));
  ASSERT_TRUE(env.is_ok());
  EXPECT_EQ(env.value().type, proto::MsgType::kReplAck);
  EXPECT_EQ(ds.value()->role(), ReplRole::kBackup);
  EXPECT_EQ(ds.value()->term(), 5u);
}

TEST(Replication, SplitBrainSameTermRefused) {
  DurableServer::Options opts;
  opts.dir = fresh_state_dir("fence_split");
  opts.role = ReplRole::kPrimary;
  auto ds = DurableServer::open(opts);
  ASSERT_TRUE(ds.is_ok());  // term 1, primary

  proto::ReplHeartbeat hb;
  hb.term = 1;  // another primary claiming OUR term: refuse, don't guess
  auto env = proto::open_message(ds.value()->handle_repl(hb.to_frame()));
  ASSERT_TRUE(env.is_ok());
  ASSERT_EQ(env.value().type, proto::MsgType::kError);
  proto::Reader r(env.value().payload);
  auto err = proto::ErrorMsg::from(r);
  ASSERT_TRUE(err.is_ok());
  EXPECT_EQ(err.value().code, Errc::kStaleTerm);
  EXPECT_EQ(ds.value()->role(), ReplRole::kPrimary) << "must not step down";
}

TEST(Replication, FencedPrimaryDemotesAndBouncesClients) {
  ReplPair pair(ReplAckMode::kSync);
  auto fh = pair.client->outsource(1, 8,
                                   [](std::size_t i) { return payload_for(i); });
  ASSERT_TRUE(fh.is_ok());

  // Promote the backup while the old primary is still alive — the
  // split-brain scenario fencing exists for. Term goes 1 -> 2.
  ASSERT_TRUE(pair.backup->promote());

  // The old primary's next shipped record (or heartbeat) bounces with
  // kStaleTerm; the replicator's demote hook flips it to backup. In sync
  // ack mode the in-flight mutation itself fails — applied locally but
  // never acknowledged, exactly the divergence a rejoin snapshot erases.
  auto st = pair.client->erase_item(fh.value(), proto::ItemRef::id(3));
  EXPECT_FALSE(st.is_ok());
  EXPECT_TRUE(wait_until([&] { return pair.repl->demoted(); }));
  EXPECT_TRUE(
      wait_until([&] { return pair.primary->role() == ReplRole::kBackup; }));
  // The rejection frame doesn't carry the winner's term, so the demoted
  // node keeps its own until the new primary's stream reaches it...
  EXPECT_EQ(pair.primary->term(), 1u);
  proto::ReplHeartbeat hb;
  hb.term = pair.backup->term();
  hb.last_lsn = 0;
  (void)pair.primary->handle_repl(hb.to_frame());
  EXPECT_EQ(pair.primary->term(), 2u) << "...then adopts it";

  // Once demoted, client traffic bounces without touching state.
  auto st2 = pair.client->erase_item(fh.value(), proto::ItemRef::id(4));
  ASSERT_FALSE(st2.is_ok());
  EXPECT_EQ(st2.code(), Errc::kNotPrimary);
}

// ---- ack modes -------------------------------------------------------------

TEST(Replication, SyncModeAckImpliesFollowerDurability) {
  ReplPair pair(ReplAckMode::kSync);
  auto fh = pair.client->outsource(1, 16,
                                   [](std::size_t i) { return payload_for(i); });
  ASSERT_TRUE(fh.is_ok());
  // The defining invariant of sync mode: the moment a client holds an
  // ack, the follower has durably acknowledged that LSN. No polling.
  EXPECT_EQ(pair.repl->acked_lsn(), pair.primary->last_lsn());

  for (std::uint64_t id = 0; id < 5; ++id) {
    ASSERT_TRUE(pair.client->erase_item(fh.value(), proto::ItemRef::id(id)));
    EXPECT_EQ(pair.repl->acked_lsn(), pair.primary->last_lsn());
  }

  // Kill the primary, promote the backup, re-aim the client: every acked
  // deletion must be present, every survivor byte-identical.
  pair.failover();
  for (std::uint64_t id = 0; id < 16; ++id) {
    auto got = pair.client->access(fh.value(), proto::ItemRef::id(id));
    if (id < 5) {
      EXPECT_FALSE(got.is_ok()) << "acked deletion lost for item " << id;
    } else {
      ASSERT_TRUE(got.is_ok()) << "surviving item " << id;
      EXPECT_EQ(got.value(), payload_for(id));
    }
  }
  EXPECT_TRUE(fsck(pair.backup->server()));
}

TEST(Replication, AsyncModeConvergesAfterTheAck) {
  ReplPair pair(ReplAckMode::kAsync);
  auto fh = pair.client->outsource(1, 16,
                                   [](std::size_t i) { return payload_for(i); });
  ASSERT_TRUE(fh.is_ok());
  for (std::uint64_t id = 0; id < 5; ++id) {
    ASSERT_TRUE(pair.client->erase_item(fh.value(), proto::ItemRef::id(id)));
  }
  // Async mode promises convergence, not ack-coupled durability.
  ASSERT_TRUE(wait_until(
      [&] { return pair.repl->acked_lsn() == pair.primary->last_lsn(); }))
      << "acked " << pair.repl->acked_lsn() << " of "
      << pair.primary->last_lsn();

  pair.failover();
  for (std::uint64_t id = 0; id < 16; ++id) {
    auto got = pair.client->access(fh.value(), proto::ItemRef::id(id));
    if (id < 5) {
      EXPECT_FALSE(got.is_ok());
    } else {
      ASSERT_TRUE(got.is_ok());
      EXPECT_EQ(got.value(), payload_for(id));
    }
  }
}

// ---- catch-up --------------------------------------------------------------

TEST(Replication, LateAttachCatchesUpViaSnapshotShip) {
  // Mutations land on the primary BEFORE the replicator is wired: the
  // follower's log position (0) cannot be bridged by appends, so the
  // first ship must fall back to a full checkpoint image.
  ReplPair pair(ReplAckMode::kSync, Replicator::Options{}, /*attach=*/false);
  auto fh = pair.client->outsource(1, 12,
                                   [](std::size_t i) { return payload_for(i); });
  ASSERT_TRUE(fh.is_ok());
  ASSERT_TRUE(pair.client->erase_item(fh.value(), proto::ItemRef::id(0)));

  pair.primary->attach_replicator(pair.repl, ReplAckMode::kSync);
  // One post-attach mutation: its ReplAppend carries prev_lsn > 0, the
  // fresh follower answers kNeedSnapshot, the image ships, and the sync
  // gate only releases once the follower acks everything.
  ASSERT_TRUE(pair.client->erase_item(fh.value(), proto::ItemRef::id(1)));
  EXPECT_EQ(pair.repl->acked_lsn(), pair.primary->last_lsn());

  pair.failover();
  EXPECT_FALSE(pair.client->access(fh.value(), proto::ItemRef::id(0)).is_ok());
  EXPECT_FALSE(pair.client->access(fh.value(), proto::ItemRef::id(1)).is_ok());
  auto got = pair.client->access(fh.value(), proto::ItemRef::id(5));
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value(), payload_for(5));
}

TEST(Replication, QueueOverflowWhileLinkDownForcesSnapshot) {
  Replicator::Options ropts;
  ropts.max_queue_bytes = 256;  // a handful of records
  ReplPair pair(ReplAckMode::kAsync, ropts);
  pair.link_up.store(false);

  auto fh = pair.client->outsource(1, 16,
                                   [](std::size_t i) { return payload_for(i); });
  ASSERT_TRUE(fh.is_ok());
  for (std::uint64_t id = 0; id < 6; ++id) {
    ASSERT_TRUE(pair.client->erase_item(fh.value(), proto::ItemRef::id(id)));
  }
  // The staged backlog blew past max_queue_bytes: the queue is dropped
  // (bounded memory while the link is down) and a snapshot ship is owed.
  EXPECT_LT(pair.repl->pending_bytes(), ropts.max_queue_bytes);

  pair.link_up.store(true);
  ASSERT_TRUE(wait_until(
      [&] { return pair.repl->acked_lsn() == pair.primary->last_lsn(); }))
      << "acked " << pair.repl->acked_lsn() << " of "
      << pair.primary->last_lsn();

  pair.failover();
  for (std::uint64_t id = 0; id < 16; ++id) {
    auto got = pair.client->access(fh.value(), proto::ItemRef::id(id));
    if (id < 6) {
      EXPECT_FALSE(got.is_ok());
    } else {
      ASSERT_TRUE(got.is_ok());
      EXPECT_EQ(got.value(), payload_for(id));
    }
  }
  EXPECT_TRUE(fsck(pair.backup->server()));
}

// ---- exactly-once across failover ------------------------------------------

TEST(Replication, TaggedResendsConvergeOnThePromotedBackup) {
  // The replicated RidDedup table is what makes a client resend safe
  // after its primary died: replaying every recorded mutation frame —
  // byte-identical, same request ids — against the promoted backup must
  // return the original responses, not double-fold deletion deltas.
  ReplPair pair(ReplAckMode::kSync);
  auto fh = pair.client->outsource(1, 12,
                                   [](std::size_t i) { return payload_for(i); });
  ASSERT_TRUE(fh.is_ok());
  ASSERT_TRUE(pair.client->erase_item(fh.value(), proto::ItemRef::id(2)));
  ASSERT_TRUE(pair.client->erase_item(fh.value(), proto::ItemRef::id(7)));
  ASSERT_FALSE(pair.frames.empty());

  pair.failover();
  for (std::size_t i = 0; i < pair.frames.size(); ++i) {
    const Bytes replay = pair.backup->handle(pair.frames[i]);
    EXPECT_EQ(replay, pair.responses[i])
        << "resend " << i << " diverged from the original response";
  }
  // And the replays really were dedup hits: state is unchanged.
  auto got = pair.client->access(fh.value(), proto::ItemRef::id(5));
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value(), payload_for(5));
  EXPECT_TRUE(fsck(pair.backup->server()));
}

}  // namespace
}  // namespace fgad::cloud
