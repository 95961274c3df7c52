// Server persistence: save/load the full cloud image (files + blob tables)
// and continue operating across the "restart" — plus the crash-consistency
// suite for the durable server (DESIGN.md §13): a crash-point matrix over
// every CrashSite x mutation, WAL-tail corruption recovery, and rid-keyed
// exactly-once retry convergence.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>

#include "client/client.h"
#include "cloud/recovery.h"
#include "cloud/server.h"
#include "cloud/wal.h"
#include "common/fsio.h"
#include "common/rng.h"
#include "net/failover.h"
#include "net/tcp.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/harness.h"

namespace fgad::cloud {
namespace {

using client::Client;
using crypto::SystemRandom;
using test::payload_for;

Bytes image_of(const CloudServer& s) {
  proto::Writer w;
  s.save(w);
  return std::move(w).take();
}

TEST(Persistence, FileStoreRoundtrip) {
  test::Harness h(crypto::HashAlg::kSha1, 5);
  h.outsource(17);
  ASSERT_TRUE(h.erase(4));
  ASSERT_TRUE(h.insert(payload_for(99)).is_ok());

  proto::Writer w;
  h.store().serialize(w);
  proto::Reader r(w.data());
  auto restored = FileStore::deserialize(r, /*track_duplicates=*/true);
  ASSERT_TRUE(restored.is_ok());
  ASSERT_TRUE(r.finish());

  const FileStore& a = h.store();
  const FileStore& b = restored.value();
  ASSERT_EQ(b.item_count(), a.item_count());
  ASSERT_EQ(b.tree().node_count(), a.tree().node_count());
  EXPECT_EQ(b.items().ids_in_order(), a.items().ids_in_order());
  // Every leaf's modulators and item linkage survive.
  for (core::NodeId v = 0; v < a.tree().node_count(); ++v) {
    if (v != 0) {
      EXPECT_EQ(b.tree().link_mod(v), a.tree().link_mod(v));
    }
    if (a.tree().is_leaf(v)) {
      EXPECT_EQ(b.tree().leaf_mod(v), a.tree().leaf_mod(v));
      const auto slot_b = static_cast<std::uint32_t>(b.tree().item_slot(v));
      EXPECT_EQ(b.items().at(slot_b).leaf, v);
    }
  }
}

TEST(Persistence, ServerImageRoundtripAndContinue) {
  CloudServer server;
  SystemRandom rnd;
  net::DirectChannel ch([&server](BytesView req) { return server.handle(req); });
  Client client(ch, rnd);

  std::vector<Bytes> items;
  for (int i = 0; i < 20; ++i) items.push_back(payload_for(i));
  auto fh = client.outsource(1, items);
  ASSERT_TRUE(fh.is_ok());
  ASSERT_TRUE(client.erase_item(fh.value(), proto::ItemRef::id(3)));
  server.kv_put(7, 1, to_bytes("blob"));

  // "Crash": serialize, drop, reload.
  proto::Writer w;
  server.save(w);
  proto::Reader image_reader(w.data());
  auto reloaded = CloudServer::load(image_reader, CloudServer::Options{true});
  ASSERT_TRUE(reloaded.is_ok());
  CloudServer& server2 = *reloaded.value();

  // The client's master key is its own state; it continues seamlessly
  // against the restarted server.
  net::DirectChannel ch2(
      [&server2](BytesView req) { return server2.handle(req); });
  Client client2(ch2, rnd);
  client2.set_counter(client.counter());
  Client::FileHandle fh2;
  fh2.id = 1;
  fh2.key = fh.value().key.clone();

  for (std::uint64_t i = 0; i < 20; ++i) {
    if (i == 3) continue;
    auto got = client2.access(fh2, proto::ItemRef::id(i));
    ASSERT_TRUE(got.is_ok()) << i;
    EXPECT_EQ(got.value(), items[i]);
  }
  EXPECT_EQ(to_string(server2.kv_get(7, 1).value()), "blob");

  // Mutations continue to work after the restart.
  ASSERT_TRUE(client2.erase_item(fh2, proto::ItemRef::id(10)));
  auto id = client2.insert(fh2, payload_for(500));
  ASSERT_TRUE(id.is_ok());
  EXPECT_TRUE(client2.access(fh2, proto::ItemRef::id(id.value())).is_ok());
}

TEST(Persistence, CorruptImageRejected) {
  CloudServer server;
  proto::Writer w;
  server.save(w);
  Bytes img = w.data();

  // Bad magic.
  Bytes bad = img;
  bad[0] ^= 0xff;
  {
    proto::Reader r(bad);
    EXPECT_FALSE(CloudServer::load(r, {}).is_ok());
  }
  // Truncation at every 7th byte must fail, not crash.
  for (std::size_t keep = 0; keep < img.size(); keep += 7) {
    proto::Reader r(BytesView(img.data(), keep));
    EXPECT_FALSE(CloudServer::load(r, {}).is_ok()) << keep;
  }
}

TEST(Persistence, EmptyServerImage) {
  CloudServer server;
  proto::Writer w;
  server.save(w);
  proto::Reader r(w.data());
  auto reloaded = CloudServer::load(r, {});
  ASSERT_TRUE(reloaded.is_ok());
  EXPECT_TRUE(r.finish());
}

TEST(Persistence, DeltaImageAppliesOntoBase) {
  CloudServer server;
  SystemRandom rnd;
  net::DirectChannel ch([&server](BytesView req) { return server.handle(req); });
  Client client(ch, rnd);
  std::vector<Bytes> items;
  for (int i = 0; i < 16; ++i) items.push_back(payload_for(i, 64));
  auto f1 = client.outsource(1, items);
  auto f2 = client.outsource(2, items);
  auto f3 = client.outsource(3, items);
  ASSERT_TRUE(f1.is_ok() && f2.is_ok() && f3.is_ok());
  const auto ids1 = client.list_items(f1.value()).value();
  const auto ids2 = client.list_items(f2.value()).value();
  server.kv_put(7, 1, to_bytes("blob"));

  proto::Writer base;
  server.save(base);
  server.mark_clean();
  DeltaImage delta;
  const auto serialized_size_matches = [&delta] {
    proto::Writer w;
    delta.serialize(w);
    EXPECT_EQ(delta.size(), w.size());
  };
  serialized_size_matches();

  // Folded over two snapshots. File 1: modifies only (a patch, one item
  // replaced in both). File 2: a structural change (carried whole), then
  // a modify on top. File 3: dropped. File 4: new. Tables changed.
  ASSERT_TRUE(client.modify(f1.value(), ids1[3], payload_for(300, 80)));
  ASSERT_TRUE(client.modify(f1.value(), ids1[5], payload_for(500, 64)));
  ASSERT_TRUE(client.erase_item(f2.value(), proto::ItemRef::id(ids2[4])));
  EXPECT_TRUE(server.file(2)->structurally_changed());
  EXPECT_FALSE(server.file(1)->structurally_changed());
  EXPECT_EQ(server.file(1)->modified_items().size(), 2u);
  server.fold_changes(delta);
  serialized_size_matches();
  EXPECT_FALSE(server.file(1)->changed());

  ASSERT_TRUE(client.modify(f1.value(), ids1[3], payload_for(301, 40)));
  ASSERT_TRUE(client.modify(f2.value(), ids2[7], payload_for(700, 64)));
  ASSERT_TRUE(client.drop_file(f3.value()));
  ASSERT_TRUE(client.outsource(4, items).is_ok());
  server.kv_put(7, 2, to_bytes("more"));
  const std::uint64_t pending = server.pending_delta_size();
  const std::uint64_t before = delta.size();
  server.fold_changes(delta);
  serialized_size_matches();
  EXPECT_LE(delta.size(), before + pending);

  proto::Writer image;
  delta.serialize(image);
  EXPECT_LT(image.size(), base.size());
  proto::Reader br(base.data());
  auto restored = CloudServer::load(br, CloudServer::Options{});
  ASSERT_TRUE(restored.is_ok());
  proto::Reader dr(image.data());
  ASSERT_TRUE(restored.value()->apply_delta(dr));
  EXPECT_TRUE(dr.finish());
  EXPECT_EQ(image_of(*restored.value()), image_of(server));
  EXPECT_TRUE(fsck(*restored.value()));

  // A delta against the wrong base is refused, not misapplied.
  CloudServer other;
  proto::Reader dr2(image.data());
  EXPECT_FALSE(other.apply_delta(dr2));
}

// ---- durable server: crash matrix + recovery -------------------------------

/// A new, empty directory: unlike a pid-based name, mkdtemp never hands
/// back one that an earlier process with a recycled pid left behind.
std::string fresh_state_dir(const std::string& name) {
  std::string d = ::testing::TempDir() + "/" + name + ".XXXXXX";
  EXPECT_NE(::mkdtemp(d.data()), nullptr) << d;
  return d;
}

/// Drives a tagged client against a DurableServer through a crash-catching
/// channel, recording every request frame so a never-crashed reference
/// server can be fed the identical history.
struct DurableRig {
  explicit DurableRig(DurableServer::Options dopts, std::uint64_t seed = 1234)
      : opts(std::move(dopts)), rnd(seed) {
    auto opened = DurableServer::open(opts);
    EXPECT_TRUE(opened.is_ok()) << opened.status().to_string();
    ds = std::move(opened).value();
    ch = std::make_unique<net::DirectChannel>([this](BytesView req) -> Bytes {
      frames.emplace_back(req.data(), req.data() + req.size());
      try {
        Bytes resp = ds->handle(req);
        responses.push_back(resp);
        return resp;
      } catch (const CrashError&) {
        crashed = true;
        proto::ErrorMsg e;
        e.code = Errc::kConnReset;
        e.message = "server crashed";
        return e.to_frame();
      }
    });
    Client::Options copts;
    copts.tag_mutations = true;
    client = std::make_unique<Client>(*ch, rnd, copts);
  }

  /// Simulates the kill -9 + restart: drops the in-memory server and
  /// recovers purely from the state directory.
  Result<std::unique_ptr<DurableServer>> restart() {
    ds.reset();
    return DurableServer::open(opts);
  }

  DurableServer::Options opts;
  crypto::DeterministicRandom rnd;
  std::unique_ptr<DurableServer> ds;
  std::unique_ptr<net::DirectChannel> ch;
  std::unique_ptr<Client> client;
  std::vector<Bytes> frames;
  std::vector<Bytes> responses;
  bool crashed = false;
};

bool wait_until(const std::function<bool()>& done) {
  for (int spin = 0; spin < 5000 && !done(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return done();
}

/// Arms `site` to throw CrashError on its first hit only; `hits` counts
/// every hit, so a test can wait for the simulated death.
void arm_throw_once(CrashSite site, std::atomic<int>& hits) {
  CrashPoint::instance().set_handler(site, [&hits](CrashSite s) {
    if (hits.fetch_add(1) == 0) {
      throw CrashError{s};
    }
  });
}

bool is_error_frame(const Bytes& resp) {
  const auto type = proto::peek_type(resp);
  return !type || *type == proto::MsgType::kError;
}

enum class MutOp { kDelete, kInsert, kOutsource };

const char* mut_op_name(MutOp op) {
  switch (op) {
    case MutOp::kDelete:
      return "delete";
    case MutOp::kInsert:
      return "insert";
    default:
      return "outsource";
  }
}

/// One cell of the crash matrix: build base state, crash the target
/// mutation at `site`, recover, and require (a) the recovered image is
/// byte-identical to a never-crashed reference fed the same frames and
/// (b) resending the crashed frame converges to exactly-once.
void run_crash_case(CrashSite site, MutOp op) {
  SCOPED_TRACE(std::string(crash_site_name(site)) + " x " + mut_op_name(op));
  DurableServer::Options dopts;
  dopts.dir = fresh_state_dir("crash_matrix");
  dopts.wal_sync_ms = 0;
  // The checkpoint sites only fire inside a checkpoint, so those cells
  // checkpoint on every mutation; the WAL sites keep checkpoints out of
  // the way entirely (0 = only explicit/shutdown checkpoints).
  const bool ckpt_site =
      site == CrashSite::kMidCheckpoint || site == CrashSite::kPostRename;
  dopts.checkpoint_every_n = ckpt_site ? 1 : 0;
  DurableRig rig(dopts);

  // Base history: outsource + one delete + one insert, all committed.
  std::vector<Bytes> items;
  for (int i = 0; i < 12; ++i) items.push_back(payload_for(i));
  auto fh = rig.client->outsource(1, items);
  ASSERT_TRUE(fh.is_ok());
  ASSERT_TRUE(rig.client->erase_item(fh.value(), proto::ItemRef::id(2)));
  ASSERT_TRUE(rig.client->insert(fh.value(), payload_for(77)).is_ok());
  ASSERT_FALSE(rig.crashed);

  // Crash the next mutating RPC at `site`. At the WAL sites the client
  // sees a transport-style error, exactly as if the server died before
  // responding. The checkpoint sites fire on the checkpoint thread after
  // the snapshot made the record durable, so the client is ACKed first;
  // checkpoint() settles the base history's write-outs beforehand, so the
  // armed site can only fire in the target mutation's.
  std::atomic<int> hits{0};
  if (ckpt_site) {
    ASSERT_TRUE(rig.ds->checkpoint());
    arm_throw_once(site, hits);
  } else {
    CrashPoint::instance().arm_throw(site);
  }
  bool acked = false;
  switch (op) {
    case MutOp::kDelete:
      acked = rig.client->erase_item(fh.value(), proto::ItemRef::id(5)).is_ok();
      break;
    case MutOp::kInsert:
      acked = rig.client->insert(fh.value(), payload_for(88)).is_ok();
      break;
    case MutOp::kOutsource: {
      std::vector<Bytes> more{payload_for(200), payload_for(201),
                              payload_for(202)};
      acked = rig.client->outsource(2, more).is_ok();
      break;
    }
  }
  EXPECT_EQ(acked, ckpt_site);
  if (ckpt_site) {
    ASSERT_TRUE(wait_until([&] { return hits.load() > 0; }));
  }
  CrashPoint::instance().reset();
  ASSERT_EQ(rig.crashed, !ckpt_site);
  const Bytes crashed_frame = rig.frames.back();
  ASSERT_TRUE(proto::split_tagged(crashed_frame).has_value());
  ASSERT_TRUE(proto::retryable_request(crashed_frame));

  // Recover from disk alone; open() runs fsck before serving.
  auto reopened = rig.restart();
  ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
  DurableServer& ds2 = *reopened.value();

  // Reference: a pristine server fed the identical frame history. Only
  // kBeforeWalAppend loses the in-flight mutation; at every later site it
  // was logged durably (and applied) before the crash.
  const bool applied = site != CrashSite::kBeforeWalAppend;
  CloudServer ref;
  for (std::size_t i = 0; i + 1 < rig.frames.size(); ++i) {
    ref.handle(rig.frames[i]);
  }
  if (applied) {
    ref.handle(crashed_frame);
  }
  EXPECT_EQ(image_of(ds2.server()), image_of(ref));

  // Exactly-once retry: the client's resend either applies the mutation
  // for the first time or hits the rid-dedup table; a second resend is
  // always a dedup hit. State never double-applies.
  const Bytes r1 = ds2.handle(crashed_frame);
  if (!applied) {
    ref.handle(crashed_frame);
  }
  EXPECT_EQ(image_of(ds2.server()), image_of(ref));
  const Bytes r2 = ds2.handle(crashed_frame);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(image_of(ds2.server()), image_of(ref));
  EXPECT_TRUE(fsck(ds2.server()));
}

TEST(CrashMatrix, BeforeWalAppend) {
  for (MutOp op : {MutOp::kDelete, MutOp::kInsert, MutOp::kOutsource}) {
    run_crash_case(CrashSite::kBeforeWalAppend, op);
  }
}

TEST(CrashMatrix, AfterWalPreAck) {
  for (MutOp op : {MutOp::kDelete, MutOp::kInsert, MutOp::kOutsource}) {
    run_crash_case(CrashSite::kAfterWalPreAck, op);
  }
}

TEST(CrashMatrix, MidCheckpoint) {
  for (MutOp op : {MutOp::kDelete, MutOp::kInsert, MutOp::kOutsource}) {
    run_crash_case(CrashSite::kMidCheckpoint, op);
  }
}

TEST(CrashMatrix, PostRename) {
  for (MutOp op : {MutOp::kDelete, MutOp::kInsert, MutOp::kOutsource}) {
    run_crash_case(CrashSite::kPostRename, op);
  }
}

// The WAL becomes durable one way, through the group committer: a timed
// sync window is refused, not silently ignored.
TEST(DurableRecovery, OpenRejectsPositiveWalSyncMs) {
  DurableServer::Options dopts;
  dopts.dir = fresh_state_dir("durable_sync_window");
  dopts.wal_sync_ms = 5;
  auto opened = DurableServer::open(dopts);
  ASSERT_FALSE(opened.is_ok());
  EXPECT_EQ(opened.status().code(), Errc::kInvalidArgument);
}

TEST(DurableRecovery, CleanRestartReplaysWal) {
  DurableServer::Options dopts;
  dopts.dir = fresh_state_dir("durable_clean");
  dopts.checkpoint_every_n = 0;  // everything lives in the WAL
  DurableRig rig(dopts);

  std::vector<Bytes> items;
  for (int i = 0; i < 10; ++i) items.push_back(payload_for(i));
  auto fh = rig.client->outsource(1, items);
  ASSERT_TRUE(fh.is_ok());
  ASSERT_TRUE(rig.client->erase_item(fh.value(), proto::ItemRef::id(4)));
  auto inserted = rig.client->insert(fh.value(), payload_for(55));
  ASSERT_TRUE(inserted.is_ok());
  const Bytes before = image_of(rig.ds->server());

  auto reopened = rig.restart();
  ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
  DurableServer& ds2 = *reopened.value();
  EXPECT_EQ(image_of(ds2.server()), before);
  EXPECT_EQ(ds2.recovery_info().checkpoint_epoch, 0u);
  EXPECT_EQ(ds2.recovery_info().replayed, 3u);  // outsource, delete, insert
  EXPECT_FALSE(ds2.recovery_info().torn_tail);

  // The surviving client continues seamlessly against the recovered state.
  net::DirectChannel ch2([&ds2](BytesView req) { return ds2.handle(req); });
  Client client2(ch2, rig.rnd);
  client2.set_counter(rig.client->counter());
  Client::FileHandle fh2;
  fh2.id = 1;
  fh2.key = fh.value().key.clone();
  for (std::uint64_t i = 0; i < 10; ++i) {
    if (i == 4) continue;
    auto got = client2.access(fh2, proto::ItemRef::id(i));
    ASSERT_TRUE(got.is_ok()) << i;
    EXPECT_EQ(got.value(), items[i]);
  }
  EXPECT_EQ(client2.access(fh2, proto::ItemRef::id(inserted.value())).value(),
            payload_for(55));
}

TEST(DurableRecovery, CheckpointTruncatesLogAndPrunes) {
  DurableServer::Options dopts;
  dopts.dir = fresh_state_dir("durable_ckpt");
  dopts.checkpoint_every_n = 0;
  DurableRig rig(dopts);

  std::vector<Bytes> items{payload_for(0), payload_for(1), payload_for(2)};
  auto fh = rig.client->outsource(1, items);
  ASSERT_TRUE(fh.is_ok());
  ASSERT_TRUE(rig.ds->checkpoint());  // 1: full, nothing to build on
  ASSERT_TRUE(rig.client->erase_item(fh.value(), proto::ItemRef::id(1)));
  ASSERT_TRUE(rig.ds->checkpoint());  // 2: full, the whole file changed
  // Nothing changed since checkpoint 2, so the next two are deltas on it.
  ASSERT_TRUE(rig.ds->checkpoint());
  ASSERT_TRUE(rig.ds->checkpoint());

  // Keep the newest (a delta), its base, and a fallback full image that
  // does not depend on that base, plus every WAL from the fallback's epoch
  // on: the fallback replays forward through them. The older delta goes.
  EXPECT_TRUE(fsio::exists(dopts.dir + "/checkpoint-000004.ckpt"));
  EXPECT_FALSE(fsio::exists(dopts.dir + "/checkpoint-000003.ckpt"));
  EXPECT_TRUE(fsio::exists(dopts.dir + "/checkpoint-000002.ckpt"));
  EXPECT_TRUE(fsio::exists(dopts.dir + "/checkpoint-000001.ckpt"));
  EXPECT_TRUE(fsio::exists(dopts.dir + "/wal-000004.log"));
  EXPECT_TRUE(fsio::exists(dopts.dir + "/wal-000001.log"));
  EXPECT_FALSE(fsio::exists(dopts.dir + "/wal-000000.log"));

  const Bytes before = image_of(rig.ds->server());
  auto reopened = rig.restart();
  ASSERT_TRUE(reopened.is_ok());
  EXPECT_EQ(image_of(reopened.value()->server()), before);
  EXPECT_EQ(reopened.value()->recovery_info().checkpoint_epoch, 4u);
  EXPECT_EQ(reopened.value()->recovery_info().base_epoch, 2u);
  EXPECT_EQ(reopened.value()->recovery_info().replayed, 0u);
}

TEST(DurableRecovery, TornWalTailTruncatedOnRecovery) {
  DurableServer::Options dopts;
  dopts.dir = fresh_state_dir("durable_torn");
  dopts.checkpoint_every_n = 0;
  DurableRig rig(dopts);

  std::vector<Bytes> items{payload_for(0), payload_for(1), payload_for(2),
                           payload_for(3)};
  auto fh = rig.client->outsource(1, items);
  ASSERT_TRUE(fh.is_ok());
  ASSERT_TRUE(rig.client->erase_item(fh.value(), proto::ItemRef::id(0)));
  const Bytes before = image_of(rig.ds->server());
  rig.ds.reset();

  // A torn final append: garbage that looks like the start of a frame.
  const std::string wal = dopts.dir + "/wal-000000.log";
  {
    std::FILE* f = std::fopen(wal.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const Bytes junk = {0x40, 0x00, 0x00, 0x00, 't', 'o', 'r', 'n', '!'};
    std::fwrite(junk.data(), 1, junk.size(), f);
    std::fclose(f);
  }

  auto reopened = DurableServer::open(dopts);
  ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
  EXPECT_TRUE(reopened.value()->recovery_info().torn_tail);
  EXPECT_EQ(image_of(reopened.value()->server()), before);
  EXPECT_TRUE(fsck(reopened.value()->server()));

  // The torn tail was truncated away: appends after recovery land on a
  // clean boundary and a second recovery sees a clean log.
  proto::KvPutReq put;
  put.table = 9;
  put.key = 1;
  put.value = to_bytes("post-recovery");
  reopened.value()->handle(put.to_frame());
  reopened.value().reset();
  auto again = DurableServer::open(dopts);
  ASSERT_TRUE(again.is_ok());
  EXPECT_FALSE(again.value()->recovery_info().torn_tail);
  EXPECT_EQ(to_string(again.value()->server().kv_get(9, 1).value()),
            "post-recovery");
}

TEST(DurableRecovery, BitflippedWalRecordDropsUnackedSuffix) {
  DurableServer::Options dopts;
  dopts.dir = fresh_state_dir("durable_bitflip");
  dopts.checkpoint_every_n = 0;
  DurableRig rig(dopts);

  std::vector<Bytes> items{payload_for(0), payload_for(1), payload_for(2),
                           payload_for(3), payload_for(4)};
  auto fh = rig.client->outsource(1, items);
  ASSERT_TRUE(fh.is_ok());
  ASSERT_TRUE(rig.client->insert(fh.value(), payload_for(90)).is_ok());
  rig.ds.reset();

  // Flip one bit inside the last record's payload: its CRC fails, the
  // record is dropped, and recovery falls back to the state before it.
  const std::string wal = dopts.dir + "/wal-000000.log";
  auto data = fsio::read_file(wal);
  ASSERT_TRUE(data.is_ok());
  Bytes bad = data.value();
  bad[bad.size() - 3] ^= 0x10;
  {
    std::FILE* f = std::fopen(wal.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bad.data(), 1, bad.size(), f);
    std::fclose(f);
  }

  auto reopened = DurableServer::open(dopts);
  ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
  EXPECT_TRUE(reopened.value()->recovery_info().torn_tail);
  EXPECT_TRUE(fsck(reopened.value()->server()));

  // Reference = all frames except the final (insert-commit) mutation.
  CloudServer ref;
  for (std::size_t i = 0; i + 1 < rig.frames.size(); ++i) {
    ref.handle(rig.frames[i]);
  }
  EXPECT_EQ(image_of(reopened.value()->server()), image_of(ref));
}

TEST(DurableRecovery, RidDedupSurvivesRestart) {
  DurableServer::Options dopts;
  dopts.dir = fresh_state_dir("durable_dedup");
  dopts.checkpoint_every_n = 0;
  DurableRig rig(dopts);

  std::vector<Bytes> items{payload_for(0), payload_for(1), payload_for(2)};
  auto fh = rig.client->outsource(1, items);
  ASSERT_TRUE(fh.is_ok());
  ASSERT_TRUE(rig.client->erase_item(fh.value(), proto::ItemRef::id(1)));

  // The delete-commit is the last mutating exchange.
  const Bytes frame = rig.frames.back();
  const Bytes original_resp = rig.responses.back();
  ASSERT_TRUE(proto::split_tagged(frame).has_value());
  const Bytes before = image_of(rig.ds->server());

  auto reopened = rig.restart();
  ASSERT_TRUE(reopened.is_ok());
  DurableServer& ds2 = *reopened.value();
  // Replay rebuilt the dedup table: resending the already-applied delete
  // returns the original response bytes and folds no deltas twice.
  EXPECT_EQ(ds2.handle(frame), original_resp);
  EXPECT_EQ(image_of(ds2.server()), before);
  EXPECT_EQ(ds2.handle(frame), original_resp);
  EXPECT_EQ(image_of(ds2.server()), before);
}

TEST(DurableRecovery, UntaggedMutationsAreNotRetryable) {
  // The retry predicate only approves mutations carrying an idempotency
  // token; bare frames keep the seed's never-resend behavior.
  proto::KvPutReq put;
  put.table = 1;
  put.key = 2;
  put.value = to_bytes("v");
  const Bytes untagged = put.to_frame();
  EXPECT_FALSE(proto::retryable_request(untagged));
  EXPECT_TRUE(proto::retryable_request(proto::seal_tagged(7, untagged)));
  // Read-only requests retry either way.
  proto::KvGetReq get;
  get.table = 1;
  get.key = 2;
  EXPECT_TRUE(proto::retryable_request(get.to_frame()));
}

/// Executes the request server-side but reports a lost response for the
/// first `drops` delete-commits — the classic ack-lost retry hazard.
class AckDropChannel final : public net::RpcChannel {
 public:
  AckDropChannel(DurableServer& ds, std::atomic<int>& drops)
      : ds_(ds), drops_(drops) {}

  Result<Bytes> roundtrip(BytesView req) override {
    Bytes resp = ds_.handle(req);
    const auto t = proto::peek_type(req);
    if (t == proto::MsgType::kDeleteCommitReq &&
        drops_.fetch_sub(1) > 0) {
      return Error(Errc::kTimeout, "injected: response lost");
    }
    return resp;
  }

 private:
  DurableServer& ds_;
  std::atomic<int>& drops_;
};

TEST(DurableRecovery, FailoverChannelConvergesExactlyOnce) {
  DurableServer::Options dopts;
  dopts.dir = fresh_state_dir("durable_retry");
  dopts.checkpoint_every_n = 0;
  auto opened = DurableServer::open(dopts);
  ASSERT_TRUE(opened.is_ok());
  DurableServer& ds = *opened.value();

  std::atomic<int> drops{1};
  net::FailoverChannel::Options ropts;
  ropts.base_backoff_ms = 1;
  ropts.retryable = [](BytesView f) { return proto::retryable_request(f); };
  net::FailoverChannel retry(
      net::static_endpoints({{"127.0.0.1", 0}}),
      [&](const net::Endpoint&) -> Result<std::unique_ptr<net::RpcChannel>> {
        return std::unique_ptr<net::RpcChannel>(
            new AckDropChannel(ds, drops));
      },
      ropts);

  SystemRandom rnd;
  Client::Options copts;
  copts.tag_mutations = true;  // mutations carry the idempotency token
  Client client(retry, rnd, copts);

  std::vector<Bytes> items;
  for (int i = 0; i < 8; ++i) items.push_back(payload_for(i));
  auto fh = client.outsource(1, items);
  ASSERT_TRUE(fh.is_ok());

  // The commit's ACK is dropped once; the channel resends, the dedup
  // table returns the original response, and the client's key rotation
  // completes as if nothing happened.
  ASSERT_TRUE(client.erase_item(fh.value(), proto::ItemRef::id(3)));
  EXPECT_GE(retry.resends(), 1u);
  EXPECT_EQ(ds.server().file(1)->item_count(), 7u);
  EXPECT_TRUE(fsck(ds.server()));

  // Every surviving item still decrypts under the rotated master key —
  // a double-applied delete would have corrupted the modulators.
  for (std::uint64_t i = 0; i < 8; ++i) {
    if (i == 3) continue;
    auto got = client.access(fh.value(), proto::ItemRef::id(i));
    ASSERT_TRUE(got.is_ok()) << i;
    EXPECT_EQ(got.value(), items[i]);
  }
}

TEST(DurableRecovery, RecoveryMetricsPopulatedAfterRestart) {
  // The durability instrumentation (DESIGN.md §14) must survive the same
  // kill-and-recover cycle the crash matrix exercises: after a restart
  // the recovery pass reports its duration and the registry counters
  // reflect the replayed WAL tail.
  DurableServer::Options dopts;
  dopts.dir = fresh_state_dir("durable_metrics");
  dopts.checkpoint_every_n = 0;  // keep every mutation in the WAL tail
  DurableRig rig(dopts);

  std::vector<Bytes> items{payload_for(0), payload_for(1), payload_for(2)};
  auto fh = rig.client->outsource(1, items);
  ASSERT_TRUE(fh.is_ok());
  ASSERT_TRUE(rig.client->erase_item(fh.value(), proto::ItemRef::id(1)));

  auto& replayed_total =
      obs::Registry::instance().counter("fgad_recovery_replayed_total");
  auto& recovery_hist =
      obs::Registry::instance().histogram("fgad_recovery_duration_ns");
  const std::uint64_t replayed_before = replayed_total.value();
  const std::uint64_t recoveries_before = recovery_hist.count();

  auto reopened = rig.restart();
  ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
  const auto& info = reopened.value()->recovery_info();
  EXPECT_GT(info.replayed, 0u);
  EXPECT_GT(info.duration_ns, 0u);

  // The registry saw the same recovery: replayed counter advanced by
  // exactly the per-instance count and one more duration sample landed.
  EXPECT_EQ(replayed_total.value(), replayed_before + info.replayed);
  EXPECT_EQ(recovery_hist.count(), recoveries_before + 1);
  // WAL instrumentation from the pre-restart mutations is present too.
  EXPECT_GT(
      obs::Registry::instance().histogram("fgad_wal_fsync_ns").count(), 0u);
  EXPECT_GT(
      obs::Registry::instance().counter("fgad_wal_appends_total").value(),
      0u);
}

// ---- cross-connection group commit (DESIGN.md §15) -------------------------

Bytes tagged_kv_put(std::uint64_t rid, std::uint64_t key, BytesView value) {
  proto::KvPutReq put;
  put.table = 1;
  put.key = key;
  put.value = Bytes(value.begin(), value.end());
  return proto::seal_tagged(rid, put.to_frame());
}

TEST(GroupCommit, AsyncMutationsShareFsyncsAndSurviveRestart) {
  DurableServer::Options dopts;
  dopts.dir = fresh_state_dir("group_commit");
  dopts.checkpoint_every_n = 0;
  auto opened = DurableServer::open(dopts);
  ASSERT_TRUE(opened.is_ok());
  auto ds = std::move(opened).value();

  auto& commits =
      obs::Registry::instance().counter("fgad_wal_group_commits_total");
  auto& hist =
      obs::Registry::instance().histogram("fgad_wal_commit_batch_size");
  const std::uint64_t commits_before = commits.value();
  const std::uint64_t hist_sum_before = hist.sum();

  constexpr int kN = 24;
  std::atomic<int> acked{0};
  std::mutex mu;
  std::vector<Bytes> responses(kN);
  for (int i = 0; i < kN; ++i) {
    ds->handle_async(
        tagged_kv_put(1000 + i, static_cast<std::uint64_t>(i), payload_for(i)),
        [&, i](Bytes resp) {
          std::lock_guard<std::mutex> lock(mu);
          responses[i] = std::move(resp);
          acked.fetch_add(1);
        });
  }
  for (int spin = 0; spin < 5000 && acked.load() < kN; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(acked.load(), kN);

  // Every staged mutation landed in exactly one commit batch; the number
  // of fsyncs can be anything from 1 (all batched) to kN (fully serial),
  // but the histogram's sum accounts for each mutation exactly once.
  EXPECT_EQ(hist.sum() - hist_sum_before, static_cast<std::uint64_t>(kN));
  const std::uint64_t flushes = commits.value() - commits_before;
  EXPECT_GE(flushes, 1u);
  EXPECT_LE(flushes, static_cast<std::uint64_t>(kN));

  // Re-sending an acknowledged mutation answers inline from the rid
  // table with the original bytes — no second WAL append, no new fsync.
  Bytes again;
  ds->handle_async(tagged_kv_put(1000, 0, payload_for(0)),
                   [&again](Bytes resp) { again = std::move(resp); });
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(again, responses[0]);
  }

  // The ACKs were honest: a cold restart recovers every mutation.
  ds.reset();
  auto reopened = DurableServer::open(dopts);
  ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
  for (int i = 0; i < kN; ++i) {
    auto got = reopened.value()->server().kv_get(1, i);
    ASSERT_TRUE(got.is_ok()) << i;
    EXPECT_EQ(got.value(), payload_for(i));
  }
}

TEST(GroupCommit, CrashBeforeFsyncLosesWholeBatchThenResendsExactlyOnce) {
  DurableServer::Options dopts;
  dopts.dir = fresh_state_dir("group_atomic");
  dopts.checkpoint_every_n = 0;
  auto opened = DurableServer::open(dopts);
  ASSERT_TRUE(opened.is_ok());
  auto ds = std::move(opened).value();

  // Durable base state: handle() returns once its group fsync ran.
  for (std::uint64_t k = 0; k < 3; ++k) {
    ds->handle(tagged_kv_put(100 + k, k, to_bytes("base")));
  }
  // Snapshot the durable WAL prefix: everything so far is fsynced.
  const std::string wal = dopts.dir + "/wal-000000.log";
  auto durable_prefix = fsio::read_file(wal);
  ASSERT_TRUE(durable_prefix.is_ok());

  // Arm the pre-fsync crash site: every commit flush now dies before
  // syncing, so the whole pipelined batch must stay unacknowledged —
  // a torn partial-batch ACK would be a durability lie.
  CrashPoint::instance().arm_throw(CrashSite::kBeforeGroupFsync);
  constexpr std::uint64_t kBatch = 6;
  std::vector<Bytes> batch_frames;
  std::atomic<int> acked{0};
  for (std::uint64_t k = 0; k < kBatch; ++k) {
    batch_frames.push_back(tagged_kv_put(200 + k, 50 + k, to_bytes("batch")));
    ds->handle_async(Bytes(batch_frames.back()),
                     [&acked](Bytes) { acked.fetch_add(1); });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(acked.load(), 0);

  // "Power loss": rebuild the state directory from the durable prefix
  // alone — the staged-but-unsynced WAL tail vanishes with the page
  // cache, exactly what fsync-after-ACK would have risked.
  DurableServer::Options ropts = dopts;
  ropts.dir = fresh_state_dir("group_atomic_recovered");
  ASSERT_TRUE(fsio::atomic_write_file(ropts.dir + "/wal-000000.log",
                                      durable_prefix.value()));
  CrashPoint::instance().reset();
  ds.reset();

  auto reopened = DurableServer::open(ropts);
  ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
  DurableServer& ds2 = *reopened.value();
  // The base survived; NONE of the unacknowledged batch did.
  for (std::uint64_t k = 0; k < 3; ++k) {
    EXPECT_TRUE(ds2.server().kv_get(1, k).is_ok()) << k;
  }
  for (std::uint64_t k = 0; k < kBatch; ++k) {
    EXPECT_FALSE(ds2.server().kv_get(1, 50 + k).is_ok()) << k;
  }

  // The client saw no ACK, so it resends the whole batch: applied
  // exactly once, and a second resend is pure rid-dedup.
  for (const Bytes& f : batch_frames) {
    ds2.handle(f);
  }
  const Bytes once = image_of(ds2.server());
  for (const Bytes& f : batch_frames) {
    ds2.handle(f);
  }
  EXPECT_EQ(image_of(ds2.server()), once);
  for (std::uint64_t k = 0; k < kBatch; ++k) {
    EXPECT_EQ(to_string(ds2.server().kv_get(1, 50 + k).value()), "batch");
  }
  EXPECT_TRUE(fsck(ds2.server()));
}

TEST(GroupCommit, BulkDeleteCrashBeforeFsyncThenExactlyOnceResend) {
  // A merged-cut bulk deletion is ONE WAL record; a crash before its
  // group fsync must lose it atomically (no torn half-applied batch),
  // and the client's resend of the identical tagged frame must apply it
  // exactly once via rid-dedup.
  DurableServer::Options dopts;
  dopts.dir = fresh_state_dir("group_bulk_delete");
  dopts.checkpoint_every_n = 0;
  auto opened = DurableServer::open(dopts);
  ASSERT_TRUE(opened.is_ok());
  auto ds = std::move(opened).value();

  SystemRandom rnd;
  net::DirectChannel ch([&ds](BytesView req) { return ds->handle(req); });
  Client::Options copts;
  copts.tag_mutations = true;
  Client client(ch, rnd, copts);
  std::vector<Bytes> items;
  for (int i = 0; i < 16; ++i) items.push_back(payload_for(i));
  auto fh = client.outsource(1, items);
  ASSERT_TRUE(fh.is_ok());

  // Snapshot the durable WAL prefix: the outsource is fsynced.
  const std::string wal = dopts.dir + "/wal-000000.log";
  auto durable_prefix = fsio::read_file(wal);
  ASSERT_TRUE(durable_prefix.is_ok());

  // Build the bulk commit by hand so the exact tagged frame can be
  // resent byte-identically after the crash.
  proto::DeleteManyBeginReq breq;
  breq.file_id = 1;
  for (std::uint64_t id : {2u, 3u, 9u}) {
    breq.refs.push_back(proto::ItemRef::id(id));
  }
  auto benv = proto::open_message(ds->handle(breq.to_frame()));
  ASSERT_TRUE(benv.is_ok());
  ASSERT_EQ(benv.value().type, proto::MsgType::kDeleteManyBeginResp);
  proto::Reader br(benv.value().payload);
  auto bresp = proto::DeleteManyBeginResp::from(br);
  ASSERT_TRUE(bresp.is_ok());

  core::ClientMath math(crypto::HashAlg::kSha1);
  crypto::MasterKey fresh;
  proto::DeleteManyCommitReq creq;
  creq.file_id = 1;
  bool planned = false;
  for (int attempt = 0; attempt < 8 && !planned; ++attempt) {
    fresh = crypto::MasterKey::generate(rnd, math.width());
    auto plan = math.plan_delete_many(bresp.value().info,
                                      fh.value().key.value(), fresh.value(),
                                      rnd);
    if (!plan && plan.error().code == Errc::kInvalidArgument) {
      continue;  // F(K',M_d) collision: pick another K'
    }
    ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
    creq.commit = std::move(plan.value().commit);
    planned = true;
  }
  ASSERT_TRUE(planned);
  const Bytes tagged =
      proto::seal_tagged(obs::generate_request_id(), creq.to_frame());

  // Crash before the group fsync: the staged WAL record vanishes with
  // the page cache, so the commit must not be acknowledged.
  CrashPoint::instance().arm_throw(CrashSite::kBeforeGroupFsync);
  std::atomic<int> acked{0};
  ds->handle_async(Bytes(tagged), [&acked](Bytes) { acked.fetch_add(1); });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(acked.load(), 0);

  // "Power loss": rebuild from the durable prefix alone.
  DurableServer::Options ropts = dopts;
  ropts.dir = fresh_state_dir("group_bulk_delete_recovered");
  ASSERT_TRUE(fsio::atomic_write_file(ropts.dir + "/wal-000000.log",
                                      durable_prefix.value()));
  CrashPoint::instance().reset();
  ds.reset();

  auto reopened = DurableServer::open(ropts);
  ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
  DurableServer& ds2 = *reopened.value();
  ASSERT_NE(ds2.server().file(1), nullptr);
  // Atomic loss: all 16 items are still there — no torn deletion.
  EXPECT_EQ(ds2.server().file(1)->item_count(), 16u);

  // The unacknowledged client resends the identical frame: applied
  // exactly once; a second resend is pure rid-dedup.
  auto env1 = proto::open_message(ds2.handle(tagged));
  ASSERT_TRUE(env1.is_ok());
  EXPECT_EQ(env1.value().type, proto::MsgType::kDeleteManyCommitResp);
  const Bytes once = image_of(ds2.server());
  auto env2 = proto::open_message(ds2.handle(tagged));
  ASSERT_TRUE(env2.is_ok());
  EXPECT_EQ(env2.value().type, proto::MsgType::kDeleteManyCommitResp);
  EXPECT_EQ(image_of(ds2.server()), once);
  EXPECT_EQ(ds2.server().file(1)->item_count(), 13u);

  // Recovery is byte-exact w.r.t. the rotated key epoch: the fresh key
  // decrypts every survivor, the targets are gone.
  net::DirectChannel ch2([&ds2](BytesView req) { return ds2.handle(req); });
  Client client2(ch2, rnd, copts);
  Client::FileHandle fh2;
  fh2.id = 1;
  fh2.key = std::move(fresh);
  for (std::uint64_t id : {2u, 3u, 9u}) {
    EXPECT_FALSE(client2.access(fh2, proto::ItemRef::id(id)).is_ok()) << id;
  }
  for (std::uint64_t id : {0u, 1u, 8u, 15u}) {
    EXPECT_EQ(client2.access(fh2, proto::ItemRef::id(id)).value(), items[id]);
  }
  EXPECT_TRUE(fsck(ds2.server()));
}

// handle() waits on the group committer like the reactor's path does, so
// concurrent synchronous callers share flushes instead of each paying an
// fsync alone.
TEST(GroupCommit, SynchronousCallersShareFsyncs) {
  DurableServer::Options dopts;
  dopts.dir = fresh_state_dir("group_sync_callers");
  dopts.checkpoint_every_n = 0;
  auto opened = DurableServer::open(dopts);
  ASSERT_TRUE(opened.is_ok()) << opened.status().to_string();
  auto ds = std::move(opened).value();
  auto& fsyncs = obs::Registry::instance().counter("fgad_wal_fsyncs_total");
  const std::uint64_t fsyncs_before = fsyncs.value();

  // A slow disk: every flush takes 20 ms, so callers pile up behind it.
  CrashPoint::instance().set_handler(CrashSite::kBeforeGroupFsync,
                                     [](CrashSite) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  constexpr std::uint64_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 16;
  std::atomic<int> errors{0};
  std::vector<std::thread> callers;
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    callers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t key = t * kPerThread + i;
        if (is_error_frame(ds->handle(
                tagged_kv_put(20000 + key, key, payload_for(key))))) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : callers) {
    c.join();
  }
  CrashPoint::instance().reset();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_LT(fsyncs.value() - fsyncs_before, kThreads * kPerThread / 2);

  // The ACKs were honest: a cold restart recovers every mutation.
  ds.reset();
  auto reopened = DurableServer::open(dopts);
  ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
  for (std::uint64_t key = 0; key < kThreads * kPerThread; ++key) {
    auto got = reopened.value()->server().kv_get(1, key);
    ASSERT_TRUE(got.is_ok()) << key;
    EXPECT_EQ(got.value(), payload_for(key));
  }
}

// A throw-flavor crash before the group fsync drops the response on the
// committer thread; handle() must raise it as CrashError, not wait forever.
TEST(GroupCommit, CrashBeforeFsyncThrowsFromHandle) {
  DurableServer::Options dopts;
  dopts.dir = fresh_state_dir("group_sync_crash");
  dopts.checkpoint_every_n = 0;
  auto opened = DurableServer::open(dopts);
  ASSERT_TRUE(opened.is_ok()) << opened.status().to_string();
  auto ds = std::move(opened).value();
  ASSERT_FALSE(
      is_error_frame(ds->handle(tagged_kv_put(300, 1, to_bytes("base")))));

  const Bytes frame = tagged_kv_put(301, 2, to_bytes("unacked"));
  CrashPoint::instance().arm_throw(CrashSite::kBeforeGroupFsync);
  bool threw = false;
  try {
    ds->handle(frame);
  } catch (const CrashError& e) {
    threw = true;
    EXPECT_EQ(e.site, CrashSite::kBeforeGroupFsync);
  }
  CrashPoint::instance().reset();
  EXPECT_TRUE(threw);

  // The client saw no ACK and resends after the restart: applied once,
  // and the second resend answers with the same bytes.
  ds.reset();
  auto reopened = DurableServer::open(dopts);
  ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
  DurableServer& ds2 = *reopened.value();
  const Bytes r1 = ds2.handle(frame);
  EXPECT_FALSE(is_error_frame(r1));
  const Bytes once = image_of(ds2.server());
  EXPECT_EQ(ds2.handle(frame), r1);
  EXPECT_EQ(image_of(ds2.server()), once);
  EXPECT_EQ(to_string(ds2.server().kv_get(1, 2).value()), "unacked");
  EXPECT_TRUE(fsck(ds2.server()));
}

TEST(GroupCommit, PipelinedClientBatchesOverReactorTcp) {
  // Full stack: batched Client API -> pipelined TcpChannel -> reactor
  // TcpServer -> DurableServer::handle_async -> group commit.
  DurableServer::Options dopts;
  dopts.dir = fresh_state_dir("group_tcp");
  auto opened = DurableServer::open(dopts);
  ASSERT_TRUE(opened.is_ok());
  DurableServer& ds = *opened.value();

  auto server = net::TcpServer::create(
      0,
      [&ds](Bytes req, net::TcpServer::Respond respond) {
        ds.handle_async(std::move(req),
                        [respond](Bytes resp) { respond(std::move(resp)); });
      },
      net::TcpServer::Options{});
  ASSERT_TRUE(server.is_ok());
  auto ch = net::TcpChannel::connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(ch.is_ok());

  SystemRandom rnd;
  Client::Options copts;
  copts.tag_mutations = true;
  Client client(*ch.value(), rnd, copts);

  std::vector<Bytes> items;
  for (int i = 0; i < 16; ++i) items.push_back(payload_for(i));
  auto fh = client.outsource(1, items);
  ASSERT_TRUE(fh.is_ok());

  // Pipelined bulk modify of one file.
  std::vector<std::pair<std::uint64_t, Bytes>> updates;
  for (std::uint64_t id = 0; id < 8; ++id) {
    updates.emplace_back(id, payload_for(700 + id));
  }
  ASSERT_TRUE(client.modify_batch(fh.value(), updates));
  for (std::uint64_t id = 0; id < 8; ++id) {
    auto got = client.access(fh.value(), proto::ItemRef::id(id));
    ASSERT_TRUE(got.is_ok()) << id;
    EXPECT_EQ(got.value(), payload_for(700 + id));
  }

  // Batched assured deletion across distinct files. Item ids are drawn
  // from the client's global counter, so each file's ids differ — fetch
  // them per file.
  auto fh2 = client.outsource(2, items);
  auto fh3 = client.outsource(3, items);
  ASSERT_TRUE(fh2.is_ok());
  ASSERT_TRUE(fh3.is_ok());
  auto ids2 = client.list_items(fh2.value());
  auto ids3 = client.list_items(fh3.value());
  ASSERT_TRUE(ids2.is_ok());
  ASSERT_TRUE(ids3.is_ok());
  std::vector<Client::FileHandle*> handles{&fh.value(), &fh2.value(),
                                           &fh3.value()};
  std::vector<proto::ItemRef> refs{proto::ItemRef::id(3),
                                   proto::ItemRef::id(ids2.value()[4]),
                                   proto::ItemRef::id(ids3.value()[5])};
  const Status erased = client.erase_batch(handles, refs);
  ASSERT_TRUE(erased) << erased.to_string();
  EXPECT_FALSE(client.access(fh.value(), proto::ItemRef::id(3)).is_ok());
  EXPECT_FALSE(
      client.access(fh2.value(), proto::ItemRef::id(ids2.value()[4])).is_ok());
  EXPECT_FALSE(
      client.access(fh3.value(), proto::ItemRef::id(ids3.value()[5])).is_ok());
  // The rotated keys still decrypt every survivor.
  EXPECT_EQ(client.access(fh2.value(), proto::ItemRef::id(ids2.value()[0]))
                .value(),
            items[0]);
  EXPECT_EQ(client.access(fh3.value(), proto::ItemRef::id(ids3.value()[1]))
                .value(),
            items[1]);

  // Two deletions in one file route through the merged-cut bulk path:
  // one commit, one key rotation, both items gone, survivors intact.
  std::vector<Client::FileHandle*> dup{&fh.value(), &fh.value()};
  std::vector<proto::ItemRef> dup_refs{proto::ItemRef::id(1),
                                       proto::ItemRef::id(2)};
  const Status bulk = client.erase_batch(dup, dup_refs);
  ASSERT_TRUE(bulk) << bulk.to_string();
  EXPECT_FALSE(client.access(fh.value(), proto::ItemRef::id(1)).is_ok());
  EXPECT_FALSE(client.access(fh.value(), proto::ItemRef::id(2)).is_ok());
  EXPECT_EQ(client.access(fh.value(), proto::ItemRef::id(0)).value(),
            payload_for(700));
  EXPECT_TRUE(fsck(ds.server()));
}

// ---- checkpoint write-out off the dispatch lock (DESIGN.md §13) -----------

Bytes reference_image(const DurableRig& rig) {
  CloudServer ref;
  for (const Bytes& frame : rig.frames) {
    ref.handle(frame);
  }
  return image_of(ref);
}

/// Resends every mutation the rig's client saw ACKed: each must be a
/// rid-dedup hit that returns the original response and changes nothing.
void expect_resends_hit_dedup(const DurableRig& rig, DurableServer& ds) {
  auto& hits = obs::Registry::instance().counter("fgad_dedup_hits_total");
  const Bytes image = image_of(ds.server());
  ASSERT_EQ(rig.frames.size(), rig.responses.size());
  for (std::size_t i = 0; i < rig.frames.size(); ++i) {
    const auto type = proto::peek_type(rig.frames[i]);
    if (!type || !proto::is_mutating(*type)) {
      continue;
    }
    const std::uint64_t before = hits.value();
    EXPECT_EQ(ds.handle(rig.frames[i]), rig.responses[i]) << "frame " << i;
    EXPECT_EQ(hits.value(), before + 1) << "frame " << i;
  }
  EXPECT_EQ(image_of(ds.server()), image);
}

TEST(DurableRecovery, FallbackCheckpointReplaysItsLog) {
  DurableServer::Options dopts;
  dopts.dir = fresh_state_dir("durable_fallback");
  dopts.checkpoint_every_n = 0;
  DurableRig rig(dopts);

  std::vector<Bytes> items;
  for (int i = 0; i < 12; ++i) items.push_back(payload_for(i));
  auto fh = rig.client->outsource(1, items);
  ASSERT_TRUE(fh.is_ok());
  ASSERT_TRUE(rig.ds->checkpoint());
  ASSERT_TRUE(rig.client->erase_item(fh.value(), proto::ItemRef::id(3)));
  ASSERT_TRUE(rig.ds->checkpoint());
  const Bytes before = image_of(rig.ds->server());
  rig.ds.reset();

  // Bit rot in the newest checkpoint: recovery falls back to checkpoint 1
  // and must replay the ACKed deletion logged after it, or item 3 comes
  // back under the modulators the client already rotated away from.
  const std::string newest = dopts.dir + "/checkpoint-000002.ckpt";
  auto data = fsio::read_file(newest);
  ASSERT_TRUE(data.is_ok());
  Bytes bad = data.value();
  bad[bad.size() / 2] ^= 0x01;
  ASSERT_TRUE(fsio::atomic_write_file(newest, bad));

  auto reopened = DurableServer::open(dopts);
  ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
  const DurableServer& ds2 = *reopened.value();
  EXPECT_TRUE(ds2.recovery_info().checkpoint_fallback);
  EXPECT_EQ(ds2.recovery_info().checkpoint_epoch, 1u);
  EXPECT_EQ(ds2.recovery_info().replayed, 1u);
  EXPECT_FALSE(ds2.server().file(1)->items().find(3).has_value());
  EXPECT_EQ(image_of(reopened.value()->server()), before);
}

// The automatic checkpoint writes its image out on a background thread
// while later mutations are ACKed into the new epoch's WAL. Kill that
// thread at each write-out crash point and recover from disk alone.
TEST(DurableRecovery, BackgroundWriteOutCrashKeepsAckedMutations) {
  DurableServer::Options dopts;
  dopts.dir = fresh_state_dir("durable_bg_crash");
  dopts.checkpoint_every_n = 3;
  DurableRig rig(dopts);
  std::vector<Bytes> items;
  for (int i = 0; i < 12; ++i) items.push_back(payload_for(i));

  // 1. Die mid-write-out: temp file written, never renamed. The third
  //    mutation takes snapshot 1; two more land in wal-000001.log.
  std::atomic<int> mid_hits{0};
  arm_throw_once(CrashSite::kMidCheckpoint, mid_hits);
  auto fh = rig.client->outsource(1, items);
  ASSERT_TRUE(fh.is_ok());
  ASSERT_TRUE(rig.client->erase_item(fh.value(), proto::ItemRef::id(2)));
  ASSERT_TRUE(rig.client->insert(fh.value(), payload_for(77)).is_ok());
  ASSERT_TRUE(wait_until([&] { return mid_hits.load() > 0; }));
  ASSERT_TRUE(rig.client->erase_item(fh.value(), proto::ItemRef::id(5)));
  ASSERT_TRUE(rig.client->erase_item(fh.value(), proto::ItemRef::id(7)));
  CrashPoint::instance().reset();
  EXPECT_TRUE(fsio::exists(dopts.dir + "/checkpoint-000001.ckpt.tmp"));
  EXPECT_FALSE(fsio::exists(dopts.dir + "/checkpoint-000001.ckpt"));
  EXPECT_TRUE(fsio::exists(dopts.dir + "/wal-000001.log"));

  auto reopened = rig.restart();
  ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
  rig.ds = std::move(reopened).value();
  EXPECT_EQ(rig.ds->recovery_info().checkpoint_epoch, 0u);
  EXPECT_EQ(rig.ds->recovery_info().replayed, 5u);
  EXPECT_EQ(image_of(rig.ds->server()), reference_image(rig));
  EXPECT_TRUE(fsck(rig.ds->server()));
  expect_resends_hit_dedup(rig, *rig.ds);

  // 2. Die right after the rename, before the directory fsync and the
  //    prune. The recovered server continues in wal-000001.log, so its
  //    next snapshot is epoch 2.
  std::atomic<int> rename_hits{0};
  arm_throw_once(CrashSite::kPostRename, rename_hits);
  ASSERT_TRUE(rig.client->insert(fh.value(), payload_for(88)).is_ok());
  ASSERT_TRUE(rig.client->erase_item(fh.value(), proto::ItemRef::id(9)));
  ASSERT_TRUE(rig.client->insert(fh.value(), payload_for(99)).is_ok());
  ASSERT_TRUE(wait_until([&] { return rename_hits.load() > 0; }));
  ASSERT_TRUE(rig.client->erase_item(fh.value(), proto::ItemRef::id(3)));
  CrashPoint::instance().reset();
  EXPECT_TRUE(fsio::exists(dopts.dir + "/checkpoint-000002.ckpt"));
  EXPECT_TRUE(fsio::exists(dopts.dir + "/checkpoint-000001.ckpt.tmp"));

  reopened = rig.restart();
  ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
  rig.ds = std::move(reopened).value();
  EXPECT_EQ(rig.ds->recovery_info().checkpoint_epoch, 2u);
  EXPECT_EQ(rig.ds->recovery_info().replayed, 1u);
  EXPECT_EQ(image_of(rig.ds->server()), reference_image(rig));
  EXPECT_TRUE(fsck(rig.ds->server()));
  expect_resends_hit_dedup(rig, *rig.ds);

  // 3. The next durable checkpoint prunes the stray temp file and every
  //    log older than its fallback (checkpoint 2).
  ASSERT_TRUE(rig.ds->checkpoint());
  EXPECT_TRUE(fsio::exists(dopts.dir + "/checkpoint-000003.ckpt"));
  EXPECT_TRUE(fsio::exists(dopts.dir + "/checkpoint-000002.ckpt"));
  EXPECT_FALSE(fsio::exists(dopts.dir + "/checkpoint-000001.ckpt.tmp"));
  EXPECT_FALSE(fsio::exists(dopts.dir + "/wal-000001.log"));
  EXPECT_TRUE(fsio::exists(dopts.dir + "/wal-000002.log"));
}

TEST(DurableRecovery, FailedWriteOutIsCountedAndLosesNothing) {
  DurableServer::Options dopts;
  dopts.dir = fresh_state_dir("durable_ckpt_fail");
  dopts.checkpoint_every_n = 2;
  // A directory where checkpoint 1 must land makes its rename fail.
  ASSERT_EQ(::mkdir((dopts.dir + "/checkpoint-000001.ckpt").c_str(), 0755), 0);
  DurableRig rig(dopts);
  auto& failures =
      obs::Registry::instance().counter("fgad_checkpoint_failures_total");
  const std::uint64_t failures_before = failures.value();

  for (std::uint64_t k = 0; k < 3; ++k) {
    // The second put takes snapshot 1; its write-out fails off the lock.
    const Bytes resp =
        rig.ds->handle(tagged_kv_put(7000 + k, k, payload_for(k)));
    ASSERT_FALSE(is_error_frame(resp)) << k;
  }
  ASSERT_TRUE(wait_until([&] { return failures.value() > failures_before; }));
  EXPECT_EQ(failures.value(), failures_before + 1);

  // Nothing was pruned, so every ACKed put survives a restart.
  auto reopened = rig.restart();
  ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
  EXPECT_TRUE(reopened.value()->recovery_info().checkpoint_fallback);
  for (std::uint64_t k = 0; k < 3; ++k) {
    auto got = reopened.value()->server().kv_get(1, k);
    ASSERT_TRUE(got.is_ok()) << k;
    EXPECT_EQ(got.value(), payload_for(k));
  }
}

// Reads never take the dispatch lock: they run beside snapshots taken
// under it and write-outs running off it (a TSan target). The writer puts
// blobs, or mutates a second file (modify, erase, insert) under that
// file's lock while the reads lock only the first.
TEST(DurableRecovery, ConcurrentAccessDuringBackgroundCheckpoints) {
  for (const bool file_writer : {false, true}) {
    SCOPED_TRACE(file_writer ? "writer mutates file 2" : "writer puts blobs");
    DurableServer::Options dopts;
    dopts.dir = fresh_state_dir("durable_ckpt_reads");
    dopts.checkpoint_every_n = 4;
    DurableRig rig(dopts);
    std::vector<Bytes> items;
    for (int i = 0; i < 16; ++i) items.push_back(payload_for(i));
    auto fh = rig.client->outsource(1, items);
    ASSERT_TRUE(fh.is_ok());
    Client::FileHandle other;
    std::vector<std::uint64_t> live;
    if (file_writer) {
      auto fh2 = rig.client->outsource(2, items);
      ASSERT_TRUE(fh2.is_ok());
      other = std::move(fh2).value();
      live = rig.client->list_items(other).value();
    }
    auto& stalls =
        obs::Registry::instance().histogram("fgad_checkpoint_stall_ns");
    const std::uint64_t stalls_before = stalls.count();

    std::atomic<bool> stop{false};
    std::atomic<int> bad_reads{0};
    std::atomic<int> reads{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 2; ++t) {
      readers.emplace_back([&, t] {
        net::DirectChannel ch(
            [&rig](BytesView req) { return rig.ds->handle(req); });
        crypto::DeterministicRandom rnd(100 + t);
        Client reader(ch, rnd);
        Client::FileHandle h;
        h.id = 1;
        h.key = fh.value().key.clone();
        for (std::uint64_t i = t; !stop.load(); i = (i + 1) % items.size()) {
          auto got = reader.access(h, proto::ItemRef::id(i));
          if (!got.is_ok() || got.value() != items[i]) {
            bad_reads.fetch_add(1);
          }
          reads.fetch_add(1);
        }
      });
    }
    // One mutation each. With file 2's outsource as the 2nd mutation, both
    // modes make 65, one snapshot per 4.
    const int kMutations = file_writer ? 63 : 64;
    for (int k = 0; k < kMutations; ++k) {
      if (!file_writer) {
        const Bytes resp = rig.ds->handle(tagged_kv_put(
            9000 + k, static_cast<std::uint64_t>(k), payload_for(k)));
        ASSERT_FALSE(is_error_frame(resp)) << k;
        continue;
      }
      const std::size_t at = static_cast<std::size_t>(k * 5) % live.size();
      switch (k % 3) {
        case 0:
          ASSERT_TRUE(rig.client->modify(other, live[at], payload_for(300 + k)))
              << k;
          break;
        case 1:
          ASSERT_TRUE(rig.client->erase_item(other, proto::ItemRef::id(live[at])))
              << k;
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
          break;
        default: {
          auto id = rig.client->insert(other, payload_for(600 + k));
          ASSERT_TRUE(id.is_ok()) << k;
          live.push_back(id.value());
        }
      }
    }
    ASSERT_TRUE(wait_until([&] { return reads.load() >= 64; }));
    stop = true;
    for (auto& t : readers) {
      t.join();
    }
    EXPECT_EQ(bad_reads.load(), 0);
    EXPECT_EQ(stalls.count() - stalls_before, 65u / 4);

    const Bytes before = image_of(rig.ds->server());
    auto reopened = rig.restart();
    ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
    EXPECT_EQ(image_of(reopened.value()->server()), before);
    EXPECT_TRUE(fsck(reopened.value()->server()));
  }
}

// ---- delta checkpoints (DESIGN.md §13) -------------------------------------

/// Copies every regular file of `dir` into a fresh directory, as a backup
/// tool would: the copy must recover on its own.
std::string copy_state_dir(const std::string& dir) {
  const std::string out = fresh_state_dir("state_copy");
  DIR* d = ::opendir(dir.c_str());
  EXPECT_NE(d, nullptr);
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") {
      continue;
    }
    // A file the in-flight write-out prunes between listing and reading is
    // simply absent from the copy.
    if (auto data = fsio::read_file(dir + "/" + name)) {
      EXPECT_TRUE(fsio::atomic_write_file(out + "/" + name, data.value()));
    }
  }
  ::closedir(d);
  return out;
}

void remove_state_dir(const std::string& dir) {
  if (DIR* d = ::opendir(dir.c_str())) {
    while (dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name != "." && name != "..") {
        ::unlink((dir + "/" + name).c_str());
      }
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

std::string ckpt_path(const std::string& dir, std::uint64_t epoch) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/checkpoint-%06llu.ckpt",
                static_cast<unsigned long long>(epoch));
  return dir + buf;
}

void flip_byte_mid_file(const std::string& path) {
  auto data = fsio::read_file(path);
  ASSERT_TRUE(data.is_ok()) << path;
  Bytes bad = data.value();
  bad[bad.size() / 2] ^= 0x01;
  ASSERT_TRUE(fsio::atomic_write_file(path, bad));
}

Bytes tagged_kv_delete(std::uint64_t rid, std::uint64_t key) {
  proto::KvDeleteReq del;
  del.table = 1;
  del.key = key;
  return proto::seal_tagged(rid, del.to_frame());
}

/// One outsourced file as the test's client knows it.
struct LiveFile {
  Client::FileHandle fh;
  std::vector<std::uint64_t> ids;
};

LiveFile outsource_file(DurableRig& rig, std::uint64_t file_id,
                        std::size_t n) {
  std::vector<Bytes> items;
  for (std::size_t i = 0; i < n; ++i) {
    items.push_back(payload_for(file_id * 1000 + i, 256));
  }
  auto fh = rig.client->outsource(file_id, items);
  EXPECT_TRUE(fh.is_ok()) << fh.status().to_string();
  LiveFile f{std::move(fh).value(), {}};
  f.ids = rig.client->list_items(f.fh).value();
  return f;
}

// A seeded mix of every mutation, a checkpoint every 3 mutations. After
// each checkpoint a copy of the state directory recovers the live image
// exactly as of the checkpoint's LSN, passes fsck and answers every ACKed
// request id from its dedup table.
TEST(DurableRecovery, DeltaCheckpointsReproduceLiveImage) {
  DurableServer::Options dopts;
  dopts.dir = fresh_state_dir("durable_delta_seq");
  dopts.checkpoint_every_n = 3;
  DurableRig rig(dopts, 4242);
  Xoshiro256 rng(4242);
  auto& checkpoints =
      obs::Registry::instance().counter("fgad_checkpoints_total");
  auto& deltas =
      obs::Registry::instance().counter("fgad_checkpoint_deltas_total");
  const std::uint64_t checkpoints_before = checkpoints.value();
  const std::uint64_t deltas_before = deltas.value();

  std::uint64_t verified = 0;
  std::uint64_t deltas_loaded = 0;
  // Runs after every mutation: when it took a checkpoint, recover a copy
  // of the state directory as of right now.
  const auto verify_new_checkpoint = [&] {
    const std::uint64_t epoch = checkpoints.value() - checkpoints_before;
    if (epoch == verified) {
      return;
    }
    verified = epoch;
    SCOPED_TRACE("checkpoint " + std::to_string(epoch));
    const Bytes live = image_of(rig.ds->server());
    ASSERT_TRUE(wait_until(
        [&] { return fsio::exists(ckpt_path(dopts.dir, epoch)); }));
    DurableServer::Options copy = dopts;
    copy.dir = copy_state_dir(dopts.dir);
    auto reopened = DurableServer::open(copy);
    ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
    const auto& info = reopened.value()->recovery_info();
    EXPECT_EQ(info.checkpoint_epoch, epoch);
    EXPECT_EQ(info.replayed, 0u);
    EXPECT_FALSE(info.checkpoint_fallback);
    if (info.base_epoch != epoch) {
      ++deltas_loaded;
    }
    EXPECT_EQ(image_of(reopened.value()->server()), live);
    EXPECT_TRUE(fsck(reopened.value()->server()));
    expect_resends_hit_dedup(rig, *reopened.value());
    reopened.value().reset();
    remove_state_dir(copy.dir);
  };

  std::vector<LiveFile> files;
  std::uint64_t next_file = 1;
  std::vector<std::uint64_t> keys;  // live blob-table keys
  std::uint64_t next_rid = 70000;
  // Every step is exactly one mutation.
  for (int step = 0; step < 160; ++step) {
    rng.next_below(2);  // unused bit: keeps the seeded sequence of steps
    if (files.size() < 3) {
      files.push_back(outsource_file(rig, next_file++, 48));
      verify_new_checkpoint();
      continue;
    }
    const std::size_t fi = rng.next_below(files.size());
    LiveFile& f = files[fi];
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 62) {
      const std::uint64_t id = f.ids[rng.next_below(f.ids.size())];
      ASSERT_TRUE(rig.client->modify(f.fh, id, payload_for(step, 256)));
    } else if (roll < 67 && f.ids.size() > 8) {
      const std::size_t at = rng.next_below(f.ids.size());
      ASSERT_TRUE(rig.client->erase_item(f.fh, proto::ItemRef::id(f.ids[at])));
      f.ids.erase(f.ids.begin() + static_cast<std::ptrdiff_t>(at));
    } else if (roll < 72) {
      auto id = rig.client->insert(f.fh, payload_for(5000 + step, 256));
      ASSERT_TRUE(id.is_ok());
      f.ids.push_back(id.value());
    } else if (roll < 75 && f.ids.size() > 8) {
      std::vector<proto::ItemRef> refs;
      for (int k = 0; k < 3; ++k) {
        refs.push_back(proto::ItemRef::id(f.ids.back()));
        f.ids.pop_back();
      }
      ASSERT_TRUE(rig.client->erase_items(f.fh, refs));
    } else if (roll < 87 || (roll < 95 && keys.empty())) {
      const std::uint64_t key = step;
      ASSERT_FALSE(is_error_frame(
          rig.ch->roundtrip(tagged_kv_put(next_rid++, key, payload_for(key)))
              .value()));
      keys.push_back(key);
    } else if (roll < 95) {
      ASSERT_FALSE(is_error_frame(
          rig.ch->roundtrip(tagged_kv_delete(next_rid++, keys.back()))
              .value()));
      keys.pop_back();
    } else {
      // Dropped here; a later step outsources a replacement.
      ASSERT_TRUE(rig.client->drop_file(f.fh));
      files.erase(files.begin() + static_cast<std::ptrdiff_t>(fi));
    }
    verify_new_checkpoint();
  }
  EXPECT_GE(verified, 40u);
  // Most checkpoints are deltas, and some deltas were read back.
  EXPECT_GT(2 * (deltas.value() - deltas_before), verified);
  EXPECT_GT(deltas_loaded, 0u);
}

/// Builds a state directory whose newest checkpoint (4) is a delta on the
/// full image 2, with full image 1 as the fallback, plus ACKed mutations
/// logged after checkpoint 4. Returns the live image.
Bytes build_delta_chain(DurableRig& rig) {
  LiveFile a = outsource_file(rig, 1, 64);
  LiveFile b = outsource_file(rig, 2, 64);
  EXPECT_TRUE(rig.ds->checkpoint());  // 1: full, nothing to build on
  EXPECT_TRUE(rig.client->erase_item(a.fh, proto::ItemRef::id(a.ids[0])));
  EXPECT_TRUE(rig.client->erase_item(b.fh, proto::ItemRef::id(b.ids[0])));
  EXPECT_TRUE(rig.ds->checkpoint());  // 2: full, both files changed shape
  EXPECT_TRUE(rig.client->modify(a.fh, a.ids[1], payload_for(901, 256)));
  EXPECT_TRUE(rig.client->modify(b.fh, b.ids[2], payload_for(902, 256)));
  EXPECT_TRUE(rig.ds->checkpoint());  // 3: delta on 2
  EXPECT_TRUE(rig.client->modify(b.fh, b.ids[3], payload_for(903, 256)));
  EXPECT_TRUE(rig.ds->checkpoint());  // 4: delta on 2
  // ACKed after the newest checkpoint: only the logs hold these.
  EXPECT_TRUE(rig.client->erase_item(a.fh, proto::ItemRef::id(a.ids[5])));
  EXPECT_TRUE(rig.client->modify(b.fh, b.ids[2], payload_for(904, 256)));
  return image_of(rig.ds->server());
}

void expect_recovers_after_rot(const std::string& rotten_name,
                               std::uint64_t want_epoch) {
  SCOPED_TRACE(rotten_name);
  DurableServer::Options dopts;
  dopts.dir = fresh_state_dir("durable_delta_rot");
  dopts.checkpoint_every_n = 0;
  DurableRig rig(dopts);
  const Bytes live = build_delta_chain(rig);
  EXPECT_TRUE(fsio::exists(ckpt_path(dopts.dir, 1)));
  EXPECT_TRUE(fsio::exists(ckpt_path(dopts.dir, 2)));
  EXPECT_FALSE(fsio::exists(ckpt_path(dopts.dir, 3)));  // superseded delta
  rig.ds.reset();
  {
    auto clean = DurableServer::open(dopts);
    ASSERT_TRUE(clean.is_ok());
    EXPECT_EQ(clean.value()->recovery_info().checkpoint_epoch, 4u);
    EXPECT_EQ(clean.value()->recovery_info().base_epoch, 2u);
  }

  flip_byte_mid_file(dopts.dir + "/" + rotten_name);
  auto reopened = DurableServer::open(dopts);
  ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
  rig.ds = std::move(reopened).value();
  const auto& info = rig.ds->recovery_info();
  EXPECT_TRUE(info.checkpoint_fallback);
  EXPECT_EQ(info.checkpoint_epoch, want_epoch);
  EXPECT_EQ(info.base_epoch, want_epoch);
  EXPECT_GT(info.replayed, 0u);
  EXPECT_EQ(image_of(rig.ds->server()), live);
  EXPECT_EQ(image_of(rig.ds->server()), reference_image(rig));
  EXPECT_TRUE(fsck(rig.ds->server()));
  expect_resends_hit_dedup(rig, *rig.ds);
}

TEST(DurableRecovery, BitRotInNewestDeltaFallsBackToItsBase) {
  expect_recovers_after_rot("checkpoint-000004.ckpt", 2);
}

TEST(DurableRecovery, BitRotInDeltaBaseFallsBackToOlderFullImage) {
  expect_recovers_after_rot("checkpoint-000002.ckpt", 1);
}

// The automatic checkpoint writes a delta out on the checkpoint thread
// while later modifies are ACKed into the new log. Kill that thread at
// each write-out crash point and recover from disk alone.
TEST(DurableRecovery, BackgroundDeltaWriteOutCrashKeepsAckedMutations) {
  DurableServer::Options dopts;
  dopts.dir = fresh_state_dir("durable_delta_crash");
  dopts.checkpoint_every_n = 3;
  DurableRig rig(dopts);
  auto& deltas =
      obs::Registry::instance().counter("fgad_checkpoint_deltas_total");
  LiveFile f = outsource_file(rig, 1, 64);
  int next = 0;
  const auto modify = [&] {
    const std::uint64_t id = f.ids[next % f.ids.size()];
    ASSERT_TRUE(rig.client->modify(f.fh, id, payload_for(700 + next, 256)));
    ++next;
  };

  // Checkpoints 1 and 2 are full (the log from epoch 0 holds the whole
  // outsource); 3 is the first delta.
  modify();
  modify();
  ASSERT_TRUE(wait_until([&] { return fsio::exists(ckpt_path(dopts.dir, 1)); }));
  for (int i = 0; i < 3; ++i) modify();
  ASSERT_TRUE(wait_until([&] { return fsio::exists(ckpt_path(dopts.dir, 2)); }));

  // 1. Die mid-write-out of delta 3: temp file written, never renamed.
  const std::uint64_t deltas_before = deltas.value();
  std::atomic<int> mid_hits{0};
  arm_throw_once(CrashSite::kMidCheckpoint, mid_hits);
  for (int i = 0; i < 3; ++i) modify();
  ASSERT_TRUE(wait_until([&] { return mid_hits.load() > 0; }));
  EXPECT_EQ(deltas.value(), deltas_before + 1);
  modify();
  modify();
  CrashPoint::instance().reset();
  EXPECT_TRUE(fsio::exists(dopts.dir + "/checkpoint-000003.ckpt.tmp"));
  EXPECT_FALSE(fsio::exists(ckpt_path(dopts.dir, 3)));

  auto reopened = rig.restart();
  ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
  rig.ds = std::move(reopened).value();
  EXPECT_EQ(rig.ds->recovery_info().checkpoint_epoch, 2u);
  EXPECT_EQ(rig.ds->recovery_info().replayed, 5u);
  EXPECT_EQ(image_of(rig.ds->server()), reference_image(rig));
  EXPECT_TRUE(fsck(rig.ds->server()));
  expect_resends_hit_dedup(rig, *rig.ds);

  // 2. The first checkpoint after recovery is full (4); the next is a
  //    delta on it (5). Die right after its rename, before the directory
  //    fsync and the prune.
  for (int i = 0; i < 3; ++i) modify();
  ASSERT_TRUE(wait_until([&] { return fsio::exists(ckpt_path(dopts.dir, 4)); }));
  std::atomic<int> rename_hits{0};
  arm_throw_once(CrashSite::kPostRename, rename_hits);
  for (int i = 0; i < 3; ++i) modify();
  ASSERT_TRUE(wait_until([&] { return rename_hits.load() > 0; }));
  modify();
  CrashPoint::instance().reset();
  EXPECT_TRUE(fsio::exists(ckpt_path(dopts.dir, 5)));

  reopened = rig.restart();
  ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
  rig.ds = std::move(reopened).value();
  EXPECT_EQ(rig.ds->recovery_info().checkpoint_epoch, 5u);
  EXPECT_EQ(rig.ds->recovery_info().base_epoch, 4u);
  EXPECT_EQ(rig.ds->recovery_info().replayed, 1u);
  EXPECT_EQ(image_of(rig.ds->server()), reference_image(rig));
  EXPECT_TRUE(fsck(rig.ds->server()));
  expect_resends_hit_dedup(rig, *rig.ds);

  // 3. The next checkpoint is full again (6). It keeps the recovered base
  //    as its fallback and prunes the delta, the stray temp file and every
  //    log older than that fallback.
  ASSERT_TRUE(rig.ds->checkpoint());
  EXPECT_TRUE(fsio::exists(ckpt_path(dopts.dir, 6)));
  EXPECT_FALSE(fsio::exists(ckpt_path(dopts.dir, 5)));
  EXPECT_TRUE(fsio::exists(ckpt_path(dopts.dir, 4)));
  EXPECT_FALSE(fsio::exists(dopts.dir + "/checkpoint-000003.ckpt.tmp"));
  EXPECT_FALSE(fsio::exists(dopts.dir + "/wal-000003.log"));
  EXPECT_TRUE(fsio::exists(dopts.dir + "/wal-000004.log"));
}

// Checkpoints written before kinds existed (v1: no term, v2: term) load as
// full images and are then superseded by v3 ones.
TEST(DurableRecovery, V1AndV2CheckpointsStillLoad) {
  CloudServer ref;
  SystemRandom rnd;
  net::DirectChannel ch([&ref](BytesView req) { return ref.handle(req); });
  Client client(ch, rnd);
  std::vector<Bytes> items;
  for (int i = 0; i < 8; ++i) items.push_back(payload_for(i));
  auto fh = client.outsource(1, items);
  ASSERT_TRUE(fh.is_ok());
  ASSERT_TRUE(client.erase_item(fh.value(), proto::ItemRef::id(2)));
  ref.kv_put(1, 5, to_bytes("old"));
  const Bytes image = image_of(ref);
  const Bytes put = tagged_kv_put(77, 5, to_bytes("old"));
  const Bytes put_resp = to_bytes("stored-response");

  for (std::uint16_t version : {1, 2}) {
    SCOPED_TRACE("v" + std::to_string(version));
    DurableServer::Options dopts;
    dopts.dir = fresh_state_dir("durable_old_format");
    proto::Writer w;
    w.u32(0x46474350);  // "FGCP"
    w.u16(version);
    w.u64(5);  // epoch
    w.u64(9);  // last LSN
    if (version >= 2) {
      w.u64(3);  // fencing term
    }
    w.bytes(image);
    RidDedup dedup;
    dedup.put(77, put_resp);
    dedup.serialize(w);
    w.u32(fsio::crc32(w.data()));
    ASSERT_TRUE(fsio::atomic_write_file(ckpt_path(dopts.dir, 5), w.data()));

    auto opened = DurableServer::open(dopts);
    ASSERT_TRUE(opened.is_ok()) << opened.status().to_string();
    DurableServer& ds = *opened.value();
    EXPECT_EQ(ds.recovery_info().checkpoint_epoch, 5u);
    EXPECT_EQ(ds.recovery_info().base_epoch, 5u);
    EXPECT_EQ(ds.term(), version >= 2 ? 3u : 1u);
    EXPECT_EQ(ds.last_lsn(), 9u);
    EXPECT_EQ(image_of(ds.server()), image);
    EXPECT_EQ(ds.handle(put), put_resp);  // dedup hit

    ds.handle(tagged_kv_put(78, 6, to_bytes("new")));
    ASSERT_TRUE(ds.checkpoint());
    const Bytes after = image_of(ds.server());
    opened.value().reset();
    auto again = DurableServer::open(dopts);
    ASSERT_TRUE(again.is_ok()) << again.status().to_string();
    EXPECT_EQ(again.value()->recovery_info().checkpoint_epoch, 6u);
    EXPECT_EQ(image_of(again.value()->server()), after);
  }
}

// fgad_checkpoint_stall_ns covers the whole hold of the dispatch lock,
// including the wait for the previous image's write-out.
TEST(DurableRecovery, CheckpointStallCountsWaitForPreviousWriteOut) {
  DurableServer::Options dopts;
  dopts.dir = fresh_state_dir("durable_stall_join");
  dopts.checkpoint_every_n = 1;
  DurableRig rig(dopts);
  auto& stalls =
      obs::Registry::instance().histogram("fgad_checkpoint_stall_ns");
  const std::uint64_t count_before = stalls.count();
  const std::uint64_t sum_before = stalls.sum();
  static constexpr auto kSlowWriteOut = std::chrono::milliseconds(300);
  CrashPoint::instance().set_handler(CrashSite::kMidCheckpoint, [](CrashSite) {
    std::this_thread::sleep_for(kSlowWriteOut);
  });
  // Two back-to-back triggers: the second snapshot waits out the first
  // image's slow write-out under the lock.
  ASSERT_FALSE(is_error_frame(
      rig.ds->handle(tagged_kv_put(8100, 1, payload_for(1)))));
  ASSERT_FALSE(is_error_frame(
      rig.ds->handle(tagged_kv_put(8101, 2, payload_for(2)))));
  rig.ds.reset();  // joins the second write-out
  CrashPoint::instance().reset();
  EXPECT_EQ(stalls.count(), count_before + 2);
  const auto waited_ns = static_cast<std::uint64_t>(
      std::chrono::nanoseconds(kSlowWriteOut).count());
  EXPECT_GE(stalls.sum() - sum_before, waited_ns * 3 / 4);
}

}  // namespace
}  // namespace fgad::cloud
