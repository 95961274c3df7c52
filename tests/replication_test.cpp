// Primary–backup WAL replication (DESIGN.md §18): the ACK contract (both
// disks before the ACK), stale-term fencing, snapshot catch-up,
// queue-overflow fallback, and exactly-once convergence of tagged
// mutations resent across a failover.
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
#include <future>
#include <memory>
#include <thread>

#include "client/client.h"
#include "cloud/recovery.h"
#include "cloud/replica.h"
#include "cloud/server.h"
#include "core/outsource.h"
#include "net/transport.h"
#include "support/harness.h"
#include "support/scoped_dir.h"

namespace fgad::cloud {
namespace {

using client::Client;
using test::payload_for;

/// Replication "wire": invokes the follower's handler in-process, but
/// fails like a dead TCP link while `up` is false.
class LinkChannel final : public net::RpcChannel {
 public:
  LinkChannel(std::function<Result<Bytes>(BytesView)> handler,
              std::atomic<bool>& up)
      : handler_(std::move(handler)), up_(up) {}

  Result<Bytes> roundtrip(BytesView request) override {
    if (!up_.load()) {
      return Error(Errc::kConnReset, "test link down");
    }
    return handler_(request);
  }

 private:
  std::function<Result<Bytes>(BytesView)> handler_;
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
  explicit ReplPair(Replicator::Options ropts = Replicator::Options{},
                    bool attach = true) {
    DurableServer::Options popts;
    popts.dir = primary_dir.path();
    popts.role = ReplRole::kPrimary;
    auto p = DurableServer::open(popts);
    EXPECT_TRUE(p.is_ok()) << p.status().to_string();
    primary = std::move(p).value();

    DurableServer::Options bopts;
    bopts.dir = backup_dir.path();
    bopts.role = ReplRole::kBackup;
    auto b = DurableServer::open(bopts);
    EXPECT_TRUE(b.is_ok()) << b.status().to_string();
    backup = std::move(b).value();

    ropts.heartbeat_ms = 50;
    ropts.redial_backoff_ms = 5;
    ropts.max_backoff_ms = 20;
    repl = std::make_shared<Replicator>(
        [this]() -> Result<std::unique_ptr<net::RpcChannel>> {
          if (!link_up.load()) {
            return Error(Errc::kConnReset, "test link down");
          }
          return std::unique_ptr<net::RpcChannel>(new LinkChannel(
              [this](BytesView req) { return ship(req); }, link_up));
        },
        ropts);
    if (attach) {
      primary->attach_replicator(repl);
    }

    // The client talks to whichever node `target` points at; a test
    // "fails over" by re-aiming it. Every mutating frame and its response
    // are recorded so exactly-once can be audited by byte-exact resends.
    target = primary.get();
    ch = std::make_unique<net::DirectChannel>([this](BytesView req) -> Bytes {
      Bytes resp = target->handle(req);
      if (proto::open_tagged(req)) {
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

  /// Delivers one replication frame to the backup. When armed, the next
  /// ReplAppend reaches the backup, the backup is promoted, and the ack
  /// is lost on the way back.
  Result<Bytes> ship(BytesView req) {
    Bytes resp = backup->handle(req);
    if (proto::peek_type(req) == proto::MsgType::kReplAppend &&
        promote_after_next_append.exchange(false)) {
      EXPECT_TRUE(backup->promote());
      return Error(Errc::kConnReset, "test link: ack lost");
    }
    return resp;
  }

  /// kill -9 of the primary + SIGHUP promotion of the backup, in-process.
  void failover() {
    repl->stop();
    primary.reset();
    ASSERT_TRUE(backup->promote());
    target = backup.get();
  }

  // Declared before the servers, so they close before their directories
  // are removed.
  test::ScopedDir primary_dir{"repl_primary"};
  test::ScopedDir backup_dir{"repl_backup"};
  std::unique_ptr<DurableServer> primary;
  std::unique_ptr<DurableServer> backup;
  std::shared_ptr<Replicator> repl;
  std::atomic<bool> link_up{true};
  std::atomic<bool> promote_after_next_append{false};
  DurableServer* target = nullptr;
  std::unique_ptr<net::DirectChannel> ch;
  crypto::DeterministicRandom rnd{1234};
  std::unique_ptr<Client> client;
  std::vector<Bytes> frames;     // tagged mutation frames, client order
  std::vector<Bytes> responses;  // the primary's original responses
};

// ---- role plumbing ---------------------------------------------------------

TEST(Replication, BackupBouncesClientTraffic) {
  const test::ScopedDir opts_dir("backup_bounce");
  DurableServer::Options opts;
  opts.dir = opts_dir.path();
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
  const test::ScopedDir opts_dir("term_bootstrap");
  DurableServer::Options opts;
  opts.dir = opts_dir.path();
  opts.role = ReplRole::kPrimary;
  auto ds = DurableServer::open(opts);
  ASSERT_TRUE(ds.is_ok());
  // Term 0 never appears on the wire: a fresh primary starts at 1 so a
  // fresh backup (term 0) always accepts its stream.
  EXPECT_EQ(ds.value()->term(), 1u);
}

TEST(Replication, TermSurvivesRestart) {
  const test::ScopedDir opts_dir("term_restart");
  DurableServer::Options opts;
  opts.dir = opts_dir.path();
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
  const test::ScopedDir opts_dir("fence_direct");
  DurableServer::Options opts;
  opts.dir = opts_dir.path();
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
  const test::ScopedDir opts_dir("fence_stepdown");
  DurableServer::Options opts;
  opts.dir = opts_dir.path();
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
  const test::ScopedDir opts_dir("fence_split");
  DurableServer::Options opts;
  opts.dir = opts_dir.path();
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
  ReplPair pair;
  auto fh = pair.client->outsource(1, 8,
                                   [](std::size_t i) { return payload_for(i); });
  ASSERT_TRUE(fh.is_ok());

  // Promote the backup while the old primary is still alive — the
  // split-brain scenario fencing exists for. Term goes 1 -> 2.
  ASSERT_TRUE(pair.backup->promote());

  // The old primary's next shipped record (or heartbeat) bounces with
  // kStaleTerm; the replicator's demote hook flips it to backup. The
  // in-flight mutation itself fails — applied locally but never
  // acknowledged, exactly the divergence a rejoin snapshot erases. Its
  // outcome is unknown to the client, so the handle is poisoned.
  auto st = pair.client->erase_item(fh.value(), proto::ItemRef::id(3));
  EXPECT_EQ(st.code(), Errc::kIndeterminate);
  EXPECT_TRUE(fh.value().poisoned);
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
  auto st2 = pair.client->resync(fh.value());
  ASSERT_FALSE(st2.is_ok());
  EXPECT_EQ(st2.code(), Errc::kNotPrimary);
  EXPECT_TRUE(fh.value().poisoned);
}

TEST(Replication, FencedCommitWhoseAckWasLostResyncsOnThePromotedBackup) {
  ReplPair pair;
  auto fh = pair.client->outsource(1, 8,
                                   [](std::size_t i) { return payload_for(i); });
  ASSERT_TRUE(fh.is_ok());

  // The link delivers the delete commit's record to the backup, which
  // is then promoted; the ack is lost. The primary's reship bounces with
  // kStaleTerm, yet the promoted backup holds the deletion.
  pair.promote_after_next_append = true;
  auto st = pair.client->erase_item(fh.value(), proto::ItemRef::id(3));
  EXPECT_EQ(st.code(), Errc::kIndeterminate) << st.to_string();
  ASSERT_TRUE(fh.value().poisoned);
  EXPECT_TRUE(wait_until([&] { return pair.repl->demoted(); }));

  // Re-aim at the promoted backup: resync finds the server at K'.
  pair.repl->stop();
  pair.target = pair.backup.get();
  ASSERT_TRUE(pair.client->resync(fh.value()));
  EXPECT_FALSE(fh.value().poisoned);
  for (std::uint64_t id = 0; id < 8; ++id) {
    auto got = pair.client->access(fh.value(), proto::ItemRef::id(id));
    if (id == 3) {
      EXPECT_EQ(got.code(), Errc::kNotFound);
    } else {
      ASSERT_TRUE(got.is_ok()) << "survivor " << id << ": "
                               << got.status().to_string();
      EXPECT_EQ(got.value(), payload_for(id));
    }
  }
  EXPECT_TRUE(fsck(pair.backup->server()));
}

// ---- the ACK contract ------------------------------------------------------

TEST(Replication, SyncModeAckImpliesFollowerDurability) {
  ReplPair pair;
  auto fh = pair.client->outsource(1, 16,
                                   [](std::size_t i) { return payload_for(i); });
  ASSERT_TRUE(fh.is_ok());
  // The contract: the moment a client holds an ack, the follower has
  // durably acknowledged that LSN. No polling.
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

// A key-rotating commit the backup never logged must not be ACKed: were it
// ACKed, a failover would leave the client on K' and the promoted backup
// on K, and no survivor of the file would open (Theorem 1 holds only
// while both sides agree on the epoch).
TEST(Replication, LinkCutThenFailoverKeepsOneKeyEpoch) {
  Replicator::Options ropts;
  ropts.sync_timeout_ms = 200;
  ReplPair pair(ropts);
  auto fh = pair.client->outsource(1, 16,
                                   [](std::size_t i) { return payload_for(i); });
  ASSERT_TRUE(fh.is_ok());
  ASSERT_EQ(pair.repl->acked_lsn(), pair.primary->last_lsn());

  pair.link_up.store(false);
  const Status st = pair.client->erase_item(fh.value(), proto::ItemRef::id(3));
  EXPECT_EQ(st.code(), Errc::kIndeterminate) << st.to_string();
  EXPECT_NE(st.to_string().find("TIMEOUT"), std::string::npos)
      << st.to_string();
  EXPECT_TRUE(fh.value().poisoned);

  // The promoted backup never saw the erase: resync settles on K.
  pair.failover();
  ASSERT_TRUE(pair.client->resync(fh.value()));
  EXPECT_FALSE(fh.value().poisoned);
  for (std::uint64_t id = 0; id < 16; ++id) {
    auto got = pair.client->access(fh.value(), proto::ItemRef::id(id));
    ASSERT_TRUE(got.is_ok()) << "item " << id << ": "
                             << got.status().to_string();
    EXPECT_EQ(got.value(), payload_for(id));
  }

  ASSERT_TRUE(pair.client->erase_item(fh.value(), proto::ItemRef::id(3)));
  for (std::uint64_t id = 0; id < 16; ++id) {
    auto got = pair.client->access(fh.value(), proto::ItemRef::id(id));
    if (id == 3) {
      EXPECT_EQ(got.code(), Errc::kNotFound);
    } else {
      ASSERT_TRUE(got.is_ok()) << "survivor " << id << ": "
                               << got.status().to_string();
      EXPECT_EQ(got.value(), payload_for(id));
    }
  }
  EXPECT_TRUE(fsck(pair.backup->server()));
}

// ---- catch-up --------------------------------------------------------------

TEST(Replication, LateAttachCatchesUpViaSnapshotShip) {
  // Mutations land on the primary BEFORE the replicator is wired: the
  // follower's log position (0) cannot be bridged by appends, so the
  // first ship must fall back to a full checkpoint image.
  ReplPair pair(Replicator::Options{}, /*attach=*/false);
  auto fh = pair.client->outsource(1, 12,
                                   [](std::size_t i) { return payload_for(i); });
  ASSERT_TRUE(fh.is_ok());
  ASSERT_TRUE(pair.client->erase_item(fh.value(), proto::ItemRef::id(0)));

  pair.primary->attach_replicator(pair.repl);
  // One post-attach mutation: its ReplAppend carries prev_lsn > 0, the
  // fresh follower answers kNeedSnapshot, the image ships, and the
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
  ropts.sync_timeout_ms = 100;
  ReplPair pair(ropts);
  obs::Counter& snapshots =
      obs::Registry::instance().counter("fgad_repl_snapshots_total");
  auto fh = pair.client->outsource(1, 16,
                                   [](std::size_t i) { return payload_for(i); });
  ASSERT_TRUE(fh.is_ok());
  ASSERT_TRUE(pair.client->erase_item(fh.value(), proto::ItemRef::id(0)));

  // While the link is down every commit is logged and applied here but
  // times out waiting for the backup; resync settles each one on K'.
  pair.link_up.store(false);
  for (std::uint64_t id = 1; id < 6; ++id) {
    const Status st =
        pair.client->erase_item(fh.value(), proto::ItemRef::id(id));
    EXPECT_EQ(st.code(), Errc::kIndeterminate) << st.to_string();
    ASSERT_TRUE(pair.client->resync(fh.value()));
  }
  // The staged backlog blew past max_queue_bytes: the queue is dropped
  // (bounded memory while the link is down) and a snapshot ship is owed.
  EXPECT_LT(pair.repl->pending_bytes(), ropts.max_queue_bytes);
  const std::uint64_t snapshots_before = snapshots.value();

  pair.link_up.store(true);
  ASSERT_TRUE(wait_until(
      [&] { return pair.repl->acked_lsn() == pair.primary->last_lsn(); }))
      << "acked " << pair.repl->acked_lsn() << " of "
      << pair.primary->last_lsn();
  EXPECT_GT(snapshots.value(), snapshots_before);
  ASSERT_TRUE(pair.client->erase_item(fh.value(), proto::ItemRef::id(6)));
  EXPECT_EQ(pair.repl->acked_lsn(), pair.primary->last_lsn());

  pair.failover();
  for (std::uint64_t id = 0; id < 16; ++id) {
    auto got = pair.client->access(fh.value(), proto::ItemRef::id(id));
    if (id <= 6) {
      EXPECT_EQ(got.code(), Errc::kNotFound) << "deletion lost for " << id;
    } else {
      ASSERT_TRUE(got.is_ok()) << "survivor " << id << ": "
                               << got.status().to_string();
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
  ReplPair pair;
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

// ---- outsources built before the dispatch lock -----------------------------

/// A tagged OutsourceReq for `n` fresh items of file `file_id`.
Bytes tagged_outsource(std::uint64_t file_id, std::size_t n,
                       std::uint64_t rid) {
  crypto::DeterministicRandom rnd(rid);
  const core::Outsourcer out(crypto::HashAlg::kSha1,
                             /*track_duplicates=*/false, /*threads=*/1);
  const crypto::MasterKey key = crypto::MasterKey::generate(rnd, 20);
  std::uint64_t counter = 0;
  core::OutsourcedFile built = out.build(
      key, n, [](std::size_t i) { return payload_for(i); }, counter, rnd);
  proto::OutsourceReq req;
  req.file_id = file_id;
  proto::Writer w;
  built.tree.serialize(w);
  req.tree_blob = std::move(w).take();
  for (auto& it : built.items) {
    req.items.push_back(proto::OutsourceReq::Item{
        it.item_id, std::move(it.ciphertext), it.plain_size});
  }
  return proto::seal_tagged_v2(rid, 0, 0, {}, req.to_frame());
}

/// The status an OutsourceResp reply carries.
Status outsource_status(const Bytes& sealed) {
  const auto tag = proto::open_tagged(sealed);
  if (!tag) return Status(Errc::kDecodeError, "untagged reply");
  auto env = proto::open_message(tag->inner);
  if (!env) return Status(env.error());
  auto payload = proto::response_payload(std::move(env).value(),
                                         proto::MsgType::kOutsourceResp);
  return payload ? Status::ok() : Status(payload.error());
}

Bytes image_of(const CloudServer& server) {
  proto::Writer w;
  server.save(w);
  return std::move(w).take();
}

// A primary builds each outsourced file before its dispatch lock, so
// concurrent outsources build at once and install in log order: two
// requests for one file id end with exactly one file, and the backup, a
// resend and a restart all see what the primary acknowledged.
TEST(Replication, ConcurrentOutsourcesInstallInLogOrder) {
  ReplPair pair;
  constexpr std::size_t kFiles = 8;
  std::vector<Bytes> frames;
  for (std::size_t i = 0; i < kFiles; ++i) {
    // Files 1..7, and the last request names file 3 again.
    const std::uint64_t file_id = i + 1 < kFiles ? i + 1 : 3;
    frames.push_back(tagged_outsource(file_id, 2048, 9000 + i));
  }
  std::vector<std::promise<Bytes>> acked(kFiles);
  std::vector<std::thread> senders;
  for (std::size_t i = 0; i < kFiles; ++i) {
    senders.emplace_back([&, i] {
      pair.primary->handle_async(frames[i], [&acked, i](Bytes reply) {
        acked[i].set_value(std::move(reply));
      });
    });
  }
  for (std::thread& t : senders) {
    t.join();
  }
  std::vector<Bytes> replies;
  for (auto& p : acked) {
    replies.push_back(p.get_future().get());
  }

  for (std::size_t i = 0; i + 1 < kFiles; ++i) {
    if (i == 2) continue;  // file 3, checked below
    EXPECT_TRUE(outsource_status(replies[i])) << "file " << i + 1;
  }
  const Status first = outsource_status(replies[2]);
  const Status second = outsource_status(replies[kFiles - 1]);
  ASSERT_NE(first.is_ok(), second.is_ok());
  const Status& loser = first ? second : first;
  EXPECT_EQ(loser.code(), Errc::kInvalidArgument);
  EXPECT_EQ(loser.error().message, "server: file id already exists");

  // A resend of an acknowledged frame gets the reply it first got.
  const auto inner = [](const Bytes& sealed) {
    const BytesView v = proto::open_tagged(sealed)->inner;
    return Bytes(v.begin(), v.end());
  };
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}, kFiles - 1}) {
    EXPECT_EQ(inner(pair.primary->handle(frames[i])), inner(replies[i]))
        << "resend " << i;
  }

  ASSERT_TRUE(wait_until(
      [&] { return pair.repl->acked_lsn() == pair.primary->last_lsn(); }));
  EXPECT_EQ(pair.primary->server().file_ids().size(), kFiles - 1);
  EXPECT_TRUE(fsck(pair.primary->server()));
  EXPECT_TRUE(fsck(pair.backup->server()));
  const Bytes image = image_of(pair.primary->server());
  EXPECT_EQ(image_of(pair.backup->server()), image);

  pair.repl->stop();
  pair.primary.reset();
  DurableServer::Options popts;
  popts.dir = pair.primary_dir.path();
  auto reopened = DurableServer::open(popts);
  ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
  EXPECT_EQ(image_of(reopened.value()->server()), image);
}

}  // namespace
}  // namespace fgad::cloud
