// Durability primitives (DESIGN.md §13): fsio atomic writes and CRC32, WAL
// framing + torn-tail / bit-flip tolerance, group commit, the CrashPoint
// harness, and the rid-dedup table.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cloud/recovery.h"
#include "cloud/wal.h"
#include "common/fsio.h"
#include "proto/wire.h"

namespace fgad::cloud {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name + "." +
         std::to_string(::getpid());
}

Bytes file_bytes(const std::string& path) {
  auto data = fsio::read_file(path);
  EXPECT_TRUE(data.is_ok()) << path;
  return data.is_ok() ? data.value() : Bytes{};
}

void write_raw(const std::string& path, BytesView data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
  std::fclose(f);
}

// ---- fsio -------------------------------------------------------------------

TEST(Fsio, Crc32KnownVectors) {
  // IEEE 802.3 check value for "123456789".
  const std::string check = "123456789";
  EXPECT_EQ(fsio::crc32(to_bytes(check)), 0xCBF43926u);
  EXPECT_EQ(fsio::crc32(BytesView()), 0u);
  // Seeded chaining equals one-shot over the concatenation.
  const Bytes a = to_bytes("1234");
  const Bytes b = to_bytes("56789");
  EXPECT_EQ(fsio::crc32(b, fsio::crc32(a)), fsio::crc32(to_bytes(check)));
}

/// Byte-at-a-time, bit-at-a-time CRC-32: the reference the table-driven
/// fsio::crc32 must agree with.
std::uint32_t crc32_bitwise(BytesView data, std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Fsio, Crc32SlicingMatchesBytewiseReference) {
  std::mt19937_64 rng(20140630);
  Bytes buf(4096 + 8);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 24; ++n) {
    lengths.push_back(n);  // every tail length around one 8-byte step
  }
  for (int i = 0; i < 48; ++i) {
    lengths.push_back(static_cast<std::size_t>(rng() % 4097));
  }
  lengths.push_back(4096);
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len : lengths) {
      for (auto& b : buf) {
        b = static_cast<std::uint8_t>(rng());
      }
      const BytesView v(buf.data() + align, len);
      const auto seed = static_cast<std::uint32_t>(rng());
      ASSERT_EQ(fsio::crc32(v), crc32_bitwise(v, 0))
          << "align " << align << " len " << len;
      ASSERT_EQ(fsio::crc32(v, seed), crc32_bitwise(v, seed))
          << "align " << align << " len " << len;
      // Chaining at any split point equals one pass over the whole span.
      const std::size_t cut = static_cast<std::size_t>(rng() % (len + 1));
      ASSERT_EQ(fsio::crc32(v.subspan(cut), fsio::crc32(v.first(cut), seed)),
                crc32_bitwise(v, seed))
          << "align " << align << " len " << len << " cut " << cut;
    }
  }
}

TEST(Fsio, AtomicWriteRoundtripAndOverwrite) {
  const std::string path = temp_path("fsio_atomic");
  ASSERT_TRUE(fsio::atomic_write_file(path, to_bytes("first")));
  EXPECT_EQ(file_bytes(path), to_bytes("first"));
  // Overwrite replaces the content and leaves no temp file behind.
  ASSERT_TRUE(fsio::atomic_write_file(path, to_bytes("second, longer")));
  EXPECT_EQ(file_bytes(path), to_bytes("second, longer"));
  EXPECT_FALSE(fsio::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(Fsio, AtomicWriteFailureLeavesOriginal) {
  const std::string path = temp_path("fsio_orig");
  ASSERT_TRUE(fsio::atomic_write_file(path, to_bytes("keep me")));
  // Writing into a nonexistent directory must fail without touching `path`.
  EXPECT_FALSE(
      fsio::atomic_write_file("/nonexistent-dir-fgad/x", to_bytes("y")));
  EXPECT_EQ(file_bytes(path), to_bytes("keep me"));
  std::remove(path.c_str());
}

// ---- WAL framing ------------------------------------------------------------

Bytes request_frame(std::uint64_t i) {
  proto::Writer w;
  w.u32(0xABCD0000u + static_cast<std::uint32_t>(i));
  w.bytes(to_bytes("request-" + std::to_string(i)));
  return std::move(w).take();
}

TEST(Wal, AppendScanRoundtrip) {
  const std::string path = temp_path("wal_roundtrip");
  {
    auto wal = Wal::create(path, /*epoch=*/7, Wal::Options{0});
    ASSERT_TRUE(wal.is_ok());
    for (std::uint64_t i = 1; i <= 20; ++i) {
      ASSERT_TRUE(wal.value()->append(i, request_frame(i)).is_ok());
    }
  }
  std::vector<Wal::Record> got;
  auto scan = Wal::scan(path, [&](const Wal::Record& r) { got.push_back(r); });
  ASSERT_TRUE(scan.is_ok());
  EXPECT_EQ(scan.value().epoch, 7u);
  EXPECT_EQ(scan.value().records, 20u);
  EXPECT_EQ(scan.value().max_lsn, 20u);
  EXPECT_FALSE(scan.value().torn_tail);
  ASSERT_EQ(got.size(), 20u);
  for (std::uint64_t i = 1; i <= 20; ++i) {
    EXPECT_EQ(got[i - 1].lsn, i);
    EXPECT_EQ(got[i - 1].request, request_frame(i));
  }
}

TEST(Wal, TornTailAtEveryTruncationPoint) {
  const std::string path = temp_path("wal_torn");
  {
    auto wal = Wal::create(path, 1, Wal::Options{0});
    ASSERT_TRUE(wal.is_ok());
    for (std::uint64_t i = 1; i <= 3; ++i) {
      ASSERT_TRUE(wal.value()->append(i, request_frame(i)).is_ok());
    }
  }
  const Bytes full = file_bytes(path);

  // First find where record 2 ends (= the valid_end after dropping rec 3).
  std::uint64_t end_of_two = 0;
  {
    // Scan the intact file truncated record-by-record from the back: the
    // boundary is wherever a 2-record scan says valid_end is.
    for (std::size_t keep = full.size() - 1; keep > 0; --keep) {
      write_raw(path, BytesView(full.data(), keep));
      auto s = Wal::scan(path, [](const Wal::Record&) {});
      ASSERT_TRUE(s.is_ok()) << keep;
      if (s.value().records == 2) {
        end_of_two = s.value().valid_end;
        break;
      }
    }
    ASSERT_GT(end_of_two, 0u);
  }

  // Every truncation point inside record 3 must yield exactly records 1-2,
  // torn_tail set, valid_end at the record-2 boundary.
  for (std::size_t keep = end_of_two + 1; keep < full.size(); ++keep) {
    write_raw(path, BytesView(full.data(), keep));
    std::size_t n = 0;
    auto s = Wal::scan(path, [&](const Wal::Record&) { ++n; });
    ASSERT_TRUE(s.is_ok()) << keep;
    EXPECT_EQ(n, 2u) << keep;
    EXPECT_TRUE(s.value().torn_tail) << keep;
    EXPECT_EQ(s.value().valid_end, end_of_two) << keep;
  }
  std::remove(path.c_str());
}

TEST(Wal, BitflippedRecordEndsScan) {
  const std::string path = temp_path("wal_bitflip");
  {
    auto wal = Wal::create(path, 1, Wal::Options{0});
    ASSERT_TRUE(wal.is_ok());
    for (std::uint64_t i = 1; i <= 3; ++i) {
      ASSERT_TRUE(wal.value()->append(i, request_frame(i)).is_ok());
    }
  }
  const Bytes full = file_bytes(path);
  // Flip one bit in the last ~40 bytes (inside record 3's frame): the CRC
  // must reject it, the scan keeps records 1-2 and flags the tail.
  for (std::size_t back = 1; back <= 40 && back < full.size(); back += 7) {
    Bytes bad = full;
    bad[bad.size() - back] ^= 0x40;
    write_raw(path, bad);
    std::size_t n = 0;
    auto s = Wal::scan(path, [&](const Wal::Record&) { ++n; });
    ASSERT_TRUE(s.is_ok()) << back;
    EXPECT_LE(n, 2u) << back;
    EXPECT_TRUE(s.value().torn_tail) << back;
  }
  std::remove(path.c_str());
}

TEST(Wal, CorruptHeaderRejected) {
  const std::string path = temp_path("wal_badheader");
  {
    auto wal = Wal::create(path, 1, Wal::Options{0});
    ASSERT_TRUE(wal.is_ok());
  }
  Bytes hdr = file_bytes(path);
  hdr[0] ^= 0xFF;
  write_raw(path, hdr);
  auto s = Wal::scan(path, [](const Wal::Record&) {});
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), Errc::kDecodeError);
  // Missing file is an I/O error, not a decode error.
  EXPECT_EQ(Wal::scan(path + ".nope", [](const Wal::Record&) {}).code(),
            Errc::kIoError);
  std::remove(path.c_str());
}

TEST(Wal, ReopenTruncatesTornTailAndContinues) {
  const std::string path = temp_path("wal_reopen");
  {
    auto wal = Wal::create(path, 1, Wal::Options{0});
    ASSERT_TRUE(wal.is_ok());
    for (std::uint64_t i = 1; i <= 3; ++i) {
      ASSERT_TRUE(wal.value()->append(i, request_frame(i)).is_ok());
    }
  }
  // Tear the last record in half.
  Bytes full = file_bytes(path);
  write_raw(path, BytesView(full.data(), full.size() - 5));

  auto scan1 = Wal::scan(path, [](const Wal::Record&) {});
  ASSERT_TRUE(scan1.is_ok());
  ASSERT_TRUE(scan1.value().torn_tail);
  ASSERT_EQ(scan1.value().records, 2u);
  {
    auto wal = Wal::reopen(path, scan1.value(), Wal::Options{0});
    ASSERT_TRUE(wal.is_ok());
    EXPECT_EQ(wal.value()->epoch(), 1u);
    // Appends continue from the truncated boundary with fresh LSNs.
    ASSERT_TRUE(wal.value()->append(3, request_frame(100)).is_ok());
    ASSERT_TRUE(wal.value()->append(4, request_frame(101)).is_ok());
  }
  std::vector<Wal::Record> got;
  auto scan2 = Wal::scan(path, [&](const Wal::Record& r) { got.push_back(r); });
  ASSERT_TRUE(scan2.is_ok());
  EXPECT_FALSE(scan2.value().torn_tail);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[2].request, request_frame(100));
  EXPECT_EQ(got[3].lsn, 4u);
  std::remove(path.c_str());
}

TEST(Wal, NeverSyncModeStillScans) {
  const std::string path = temp_path("wal_nosync");
  {
    auto wal = Wal::create(path, 1, Wal::Options{/*sync_ms=*/-1});
    ASSERT_TRUE(wal.is_ok());
    auto t = wal.value()->append(1, request_frame(1));
    ASSERT_TRUE(t.is_ok());
    ASSERT_TRUE(wal.value()->sync_to(t.value()));  // no-op
    ASSERT_TRUE(wal.value()->sync_now());          // no-op
    EXPECT_LT(wal.value()->durable_bytes(), t.value());
  }
  std::size_t n = 0;
  ASSERT_TRUE(Wal::scan(path, [&](const Wal::Record&) { ++n; }).is_ok());
  EXPECT_EQ(n, 1u);
  std::remove(path.c_str());
}

// The fsync runs outside the log's mutex, so appends and syncs from many
// threads interleave with flushes in flight (a TSan target).
TEST(Wal, ConcurrentAppendAndSyncKeepTicketsDurable) {
  const std::string path = temp_path("wal_concurrent");
  auto created = Wal::create(path, 1, Wal::Options{/*sync_ms=*/0});
  ASSERT_TRUE(created.is_ok());
  Wal& wal = *created.value();
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 60;
  std::atomic<bool> done{false};
  std::atomic<int> regressions{0};
  std::atomic<int> short_syncs{0};
  std::thread monitor([&] {
    std::uint64_t last = 0;
    while (!done.load()) {
      const std::uint64_t now = wal.durable_bytes();
      if (now < last) {
        regressions.fetch_add(1);
      }
      last = now;
    }
  });
  // lsn -> ticket, per thread; merged after the join.
  std::vector<std::map<std::uint64_t, std::uint64_t>> tickets(kThreads);
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t lsn = 1000 * (t + 1) + i;
        // A staged append flushed by sync_to or by sync_now, in turn.
        auto ticket = wal.append(lsn, request_frame(lsn));
        ASSERT_TRUE(ticket.is_ok());
        const Status st = (i + t) % 2 == 0 ? wal.sync_to(ticket.value())
                                           : wal.sync_now();
        ASSERT_TRUE(st) << st.to_string();
        if (wal.durable_bytes() < ticket.value()) {
          short_syncs.fetch_add(1);
        }
        tickets[t][lsn] = ticket.value();
      }
    });
  }
  for (auto& w : writers) {
    w.join();
  }
  done = true;
  monitor.join();
  EXPECT_EQ(regressions.load(), 0);
  EXPECT_EQ(short_syncs.load(), 0);
  EXPECT_EQ(wal.durable_bytes(), wal.appended_bytes());

  // Every record is in the log, in ticket order, each thread's in the
  // order it appended them.
  std::map<std::uint64_t, std::uint64_t> ticket_of;
  for (const auto& m : tickets) {
    ticket_of.insert(m.begin(), m.end());
  }
  std::uint64_t last_ticket = 0;
  std::vector<std::uint64_t> last_lsn(kThreads, 0);
  std::size_t n = 0;
  auto scan = Wal::scan(path, [&](const Wal::Record& rec) {
    ++n;
    ASSERT_EQ(rec.request, request_frame(rec.lsn));
    const std::uint64_t ticket = ticket_of.at(rec.lsn);
    EXPECT_GT(ticket, last_ticket);
    last_ticket = ticket;
    const std::size_t t = rec.lsn / 1000 - 1;
    EXPECT_GT(rec.lsn, last_lsn[t]);
    last_lsn[t] = rec.lsn;
  });
  ASSERT_TRUE(scan.is_ok());
  EXPECT_FALSE(scan.value().torn_tail);
  EXPECT_EQ(n, kThreads * kPerThread);
  created.value().reset();
  std::remove(path.c_str());
}

// ---- CrashPoint -------------------------------------------------------------

TEST(CrashPointTest, ArmThrowFiresOnceArmed) {
  CrashPoint& cp = CrashPoint::instance();
  cp.reset();
  // Unarmed: fire is a no-op.
  cp.fire(CrashSite::kBeforeWalAppend);
  cp.arm_throw(CrashSite::kBeforeWalAppend);
  bool threw = false;
  try {
    cp.fire(CrashSite::kBeforeWalAppend);
  } catch (const CrashError& e) {
    threw = true;
    EXPECT_EQ(e.site, CrashSite::kBeforeWalAppend);
  }
  EXPECT_TRUE(threw);
  // Other sites stay unarmed.
  cp.fire(CrashSite::kMidCheckpoint);
  cp.reset();
  cp.fire(CrashSite::kBeforeWalAppend);
}

TEST(CrashPointTest, SiteNamesRoundtrip) {
  EXPECT_STREQ(crash_site_name(CrashSite::kBeforeWalAppend), "before-wal");
  EXPECT_STREQ(crash_site_name(CrashSite::kAfterWalPreAck),
               "after-wal-pre-ack");
  EXPECT_STREQ(crash_site_name(CrashSite::kMidCheckpoint), "mid-checkpoint");
  EXPECT_STREQ(crash_site_name(CrashSite::kPostRename), "post-rename");
}

TEST(CrashPointTest, ProcessExitSpecValidation) {
  CrashPoint& cp = CrashPoint::instance();
  // Bad specs are rejected without arming anything (we must not _exit here).
  EXPECT_FALSE(cp.arm_process_exit(""));
  EXPECT_FALSE(cp.arm_process_exit("no-such-site"));
  EXPECT_FALSE(cp.arm_process_exit("before-wal:"));
  EXPECT_FALSE(cp.arm_process_exit("before-wal:zero"));
  // A valid spec arms; disarm immediately without firing.
  EXPECT_TRUE(cp.arm_process_exit("mid-checkpoint:3"));
  cp.reset();
}

// ---- RidDedup ---------------------------------------------------------------

TEST(RidDedupTest, PutFindEvict) {
  RidDedup d(3);
  EXPECT_EQ(d.find(1), nullptr);
  d.put(1, to_bytes("one"));
  d.put(2, to_bytes("two"));
  d.put(3, to_bytes("three"));
  ASSERT_NE(d.find(1), nullptr);
  EXPECT_EQ(*d.find(1), to_bytes("one"));
  // Capacity 3: inserting a fourth evicts the oldest (rid 1).
  d.put(4, to_bytes("four"));
  EXPECT_EQ(d.find(1), nullptr);
  EXPECT_NE(d.find(2), nullptr);
  EXPECT_NE(d.find(4), nullptr);
  EXPECT_EQ(d.size(), 3u);
  // rid 0 (untagged) is never stored.
  d.put(0, to_bytes("zero"));
  EXPECT_EQ(d.find(0), nullptr);
  EXPECT_EQ(d.size(), 3u);
}

TEST(RidDedupTest, SerializeRoundtripPreservesOrder) {
  RidDedup d(4);
  for (std::uint64_t rid = 10; rid <= 13; ++rid) {
    d.put(rid, to_bytes("resp-" + std::to_string(rid)));
  }
  proto::Writer w;
  d.serialize(w);

  RidDedup d2(4);
  proto::Reader r(w.data());
  ASSERT_TRUE(d2.deserialize(r));
  ASSERT_TRUE(r.finish());
  EXPECT_EQ(d2.size(), 4u);
  // Eviction order survives the roundtrip: the next put evicts rid 10.
  d2.put(14, to_bytes("resp-14"));
  EXPECT_EQ(d2.find(10), nullptr);
  ASSERT_NE(d2.find(13), nullptr);
  EXPECT_EQ(*d2.find(13), to_bytes("resp-13"));

  // Serializing the copy reproduces the original bytes (determinism the
  // checkpoint image depends on).
  RidDedup d3(4);
  proto::Reader r2(w.data());
  ASSERT_TRUE(d3.deserialize(r2));
  proto::Writer w3;
  d3.serialize(w3);
  EXPECT_EQ(w3.data(), w.data());
}

TEST(RidDedupTest, DeserializeRejectsGarbage) {
  proto::Writer w;
  w.u64(1ull << 40);  // absurd entry count
  RidDedup d(4);
  proto::Reader r(w.data());
  EXPECT_FALSE(d.deserialize(r));
}

}  // namespace
}  // namespace fgad::cloud
