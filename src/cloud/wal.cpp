#include "cloud/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/fsio.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "proto/wire.h"

namespace fgad::cloud {

namespace {

constexpr std::uint32_t kWalMagic = 0x4647574C;  // "FGWL"
constexpr std::uint16_t kWalVersion = 1;
constexpr std::size_t kHeaderSize = 4 + 2 + 8;
// A WAL record never exceeds a wire frame plus its envelope by much; this
// bound rejects absurd lengths from a corrupted length prefix without
// attempting the allocation.
constexpr std::uint32_t kMaxRecordPayload = 1u << 30;
// Zeros kept written ahead of the appends (DESIGN.md §13): a sync that
// finds less than half a chunk of them writes the next chunk first, so
// only that sync commits a size change and the ones after it flush data
// pages alone.
constexpr std::size_t kZeroChunk = 256 * 1024;
// Never written to; not const, so it costs .bss rather than binary size.
std::uint8_t zero_chunk[kZeroChunk];

Status errno_status(const std::string& what) {
  return Status(Errc::kIoError, what + ": " + std::strerror(errno));
}

obs::Counter& appends_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("fgad_wal_appends_total");
  return c;
}
// The fsync counter and histogram count and time the fdatasync flush; the
// names stay because dashboards and perfbench's wal.fsync_us read them.
obs::Counter& fsyncs_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("fgad_wal_fsyncs_total");
  return c;
}
obs::Counter& bytes_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("fgad_wal_bytes_total");
  return c;
}
obs::Histogram& append_hist() {
  static obs::Histogram& h =
      obs::Registry::instance().histogram("fgad_wal_append_ns");
  return h;
}
obs::Histogram& fsync_hist() {
  static obs::Histogram& h =
      obs::Registry::instance().histogram("fgad_wal_fsync_ns");
  return h;
}
obs::Gauge& wal_size_gauge() {
  static obs::Gauge& g =
      obs::Registry::instance().gauge("fgad_wal_size_bytes");
  return g;
}
obs::Gauge& wal_epoch_gauge() {
  static obs::Gauge& g = obs::Registry::instance().gauge("fgad_wal_epoch");
  return g;
}

}  // namespace

// ---- crash points ----------------------------------------------------------

const char* crash_site_name(CrashSite s) {
  switch (s) {
    case CrashSite::kBeforeWalAppend:
      return "before-wal";
    case CrashSite::kAfterWalPreAck:
      return "after-wal-pre-ack";
    case CrashSite::kMidCheckpoint:
      return "mid-checkpoint";
    case CrashSite::kPostRename:
      return "post-rename";
    case CrashSite::kBeforeGroupFsync:
      return "before-group-fsync";
    default:
      return "unknown";
  }
}

CrashPoint& CrashPoint::instance() {
  static CrashPoint cp;
  return cp;
}

void CrashPoint::set_handler(CrashSite site, Handler h) {
  const int i = static_cast<int>(site);
  std::lock_guard<std::mutex> lock(mu_);
  armed_[i].store(h != nullptr, std::memory_order_release);
  handlers_[i] = std::move(h);
}

void CrashPoint::arm_throw(CrashSite site) {
  set_handler(site, [](CrashSite s) { throw CrashError{s}; });
}

void CrashPoint::reset() {
  for (int i = 0; i < static_cast<int>(CrashSite::kCount); ++i) {
    set_handler(static_cast<CrashSite>(i), nullptr);
  }
}

void CrashPoint::fire(CrashSite site) {
  const int i = static_cast<int>(site);
  if (!armed_[i].load(std::memory_order_acquire)) {
    return;
  }
  Handler h;
  {
    std::lock_guard<std::mutex> lock(mu_);
    h = handlers_[i];
  }
  if (h) {
    // The handler is about to simulate sudden death (throw or _exit), so
    // capture the evidence first: the dump's tail then shows the exact
    // mutation in flight (rid + WAL LSN) when the "crash" hit.
    last_fired_.store(i, std::memory_order_release);
    auto& fr = obs::FlightRecorder::instance();
    fr.record(obs::FrEvent::kCrashPoint, obs::current_request_id(),
              static_cast<std::uint64_t>(i));
    char path[obs::FlightRecorder::kMaxDumpDir + 128];
    if (fr.dump_auto("crashpoint", path, sizeof(path))) {
      obs::Logger::instance().log(
          obs::Level::kWarn, "flight_recorder_dump",
          obs::Kv().str("path", path).str("site", crash_site_name(site)));
    }
    h(site);
  }
}

Status CrashPoint::arm_process_exit(const std::string& spec) {
  std::string name = spec;
  long nth = 1;
  if (const std::size_t colon = spec.find(':'); colon != std::string::npos) {
    name = spec.substr(0, colon);
    const char* digits = spec.c_str() + colon + 1;
    char* end = nullptr;
    nth = std::strtol(digits, &end, 10);
    if (*digits == '\0' || end == nullptr || *end != '\0' || nth < 1) {
      return Status(Errc::kInvalidArgument,
                    "bad crash-point count in: " + spec);
    }
  }
  for (int i = 0; i < static_cast<int>(CrashSite::kCount); ++i) {
    const auto site = static_cast<CrashSite>(i);
    if (name == crash_site_name(site) ||
        name == std::to_string(i)) {
      auto remaining = std::make_shared<std::atomic<long>>(nth);
      set_handler(site, [remaining](CrashSite) {
        if (remaining->fetch_sub(1) == 1) {
          ::_exit(42);  // simulate sudden death: no flushes, no destructors
        }
      });
      return Status::ok();
    }
  }
  return Status(Errc::kInvalidArgument, "unknown crash site: " + spec);
}

// ---- Wal -------------------------------------------------------------------

Wal::Wal(std::string path, int fd, std::uint64_t epoch, std::uint64_t size)
    : path_(std::move(path)),
      epoch_(epoch),
      fd_(fd),
      written_(size),
      durable_(size),
      zeroed_end_(size) {
  wal_epoch_gauge().set(static_cast<std::int64_t>(epoch_));
  wal_size_gauge().set(static_cast<std::int64_t>(written_));
}

Wal::~Wal() {
  if (fd_ >= 0) {
    if (zeroed_end_ > written_) {
      (void)::ftruncate(fd_, static_cast<off_t>(written_));
    }
    ::close(fd_);
  }
}

Result<std::unique_ptr<Wal>> Wal::create(const std::string& path,
                                         std::uint64_t epoch) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Error(Errc::kIoError,
                 "wal create " + path + ": " + std::strerror(errno));
  }
  proto::Writer w;
  w.u32(kWalMagic);
  w.u16(kWalVersion);
  w.u64(epoch);
  Status st = fsio::write_all(fd, w.data());
  if (st && ::fsync(fd) != 0) {
    st = errno_status("wal fsync header");
  }
  if (!st) {
    ::close(fd);
    return st.error();
  }
  if (auto ds = fsio::fsync_parent_dir(path); !ds) {
    ::close(fd);
    return ds.error();
  }
  return std::unique_ptr<Wal>(new Wal(path, fd, epoch, kHeaderSize));
}

Result<Wal::ScanResult> Wal::scan(
    const std::string& path, const std::function<void(const Record&)>& fn) {
  auto data = fsio::read_file(path);
  if (!data) {
    return data.error();
  }
  const Bytes& buf = data.value();
  if (buf.size() < kHeaderSize) {
    return Error(Errc::kDecodeError, "wal " + path + ": truncated header");
  }
  proto::Reader hr(BytesView(buf.data(), kHeaderSize));
  if (hr.u32() != kWalMagic || hr.u16() != kWalVersion) {
    return Error(Errc::kDecodeError, "wal " + path + ": bad magic/version");
  }
  ScanResult out;
  out.epoch = hr.u64();
  out.valid_end = kHeaderSize;

  std::size_t pos = kHeaderSize;
  while (pos < buf.size()) {
    if (buf.size() - pos < 8) {
      out.torn_tail = true;  // partial frame header
      break;
    }
    proto::Reader fr(BytesView(buf.data() + pos, 8));
    const std::uint32_t len = fr.u32();
    const std::uint32_t crc = fr.u32();
    if (len == 0 && crc == 0) {
      break;  // the zeros an open log keeps ahead of its appends
    }
    if (len < 8 + 4 || len > kMaxRecordPayload ||
        len > buf.size() - pos - 8) {
      out.torn_tail = true;  // truncated payload or corrupted length
      break;
    }
    const BytesView payload(buf.data() + pos + 8, len);
    if (fsio::crc32(payload) != crc) {
      out.torn_tail = true;  // bit rot or torn write inside the payload
      break;
    }
    proto::Reader pr(payload);
    Record rec;
    rec.lsn = pr.u64();
    rec.request = pr.bytes();
    if (!pr.at_end()) {
      out.torn_tail = true;
      break;
    }
    if (fn) {
      fn(rec);
    }
    ++out.records;
    out.max_lsn = std::max(out.max_lsn, rec.lsn);
    pos += 8 + len;
    out.valid_end = pos;
  }
  return out;
}

Result<std::unique_ptr<Wal>> Wal::reopen(const std::string& path,
                                         const ScanResult& scan) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) {
    return Error(Errc::kIoError,
                 "wal reopen " + path + ": " + std::strerror(errno));
  }
  // Drop the torn tail (if any) so new records start on a clean frame
  // boundary, and make the truncation durable before appending past it.
  if (::ftruncate(fd, static_cast<off_t>(scan.valid_end)) != 0 ||
      ::lseek(fd, 0, SEEK_END) < 0 || ::fsync(fd) != 0) {
    const Status st = errno_status("wal truncate " + path);
    ::close(fd);
    return st.error();
  }
  return std::unique_ptr<Wal>(new Wal(path, fd, scan.epoch, scan.valid_end));
}

Result<std::uint64_t> Wal::append(std::uint64_t lsn, BytesView request) {
  // One buffer for the whole frame: the length and CRC words are patched
  // in once the payload behind them is written.
  proto::Writer fw;
  fw.reserve(8 + 8 + 4 + request.size());
  fw.u32(0);  // payload_len
  fw.u32(0);  // crc32(payload)
  fw.u64(lsn);
  fw.bytes(request);
  const BytesView payload = BytesView(fw.data()).subspan(8);
  fw.patch_u32(0, static_cast<std::uint32_t>(payload.size()));
  fw.patch_u32(4, fsio::crc32(payload));

  std::lock_guard<std::mutex> lock(mu_);
  if (!error_.is_ok()) {
    return error_.error();
  }
  {
    obs::ScopedTimer timer(append_hist());
    if (auto st = fsio::write_all(fd_, fw.data()); !st) {
      // The file offset may now sit past a partial frame, which ends a
      // scan: a record written behind it would be acked and then lost.
      error_ = st;
      return st.error();
    }
  }
  written_ += fw.size();
  appends_counter().inc();
  bytes_counter().inc(fw.size());
  wal_size_gauge().set(static_cast<std::int64_t>(written_));
  obs::FlightRecorder::instance().record(
      obs::FrEvent::kWalAppend, obs::current_request_id(), lsn, fw.size());
  return written_;
}

Status Wal::sync_to(std::uint64_t ticket) {
  std::unique_lock<std::mutex> lock(mu_);
  return sync_upto(lock, ticket);
}

Status Wal::sync_upto(std::unique_lock<std::mutex>& lock, std::uint64_t upto) {
  // Precondition: `lock` holds mu_. It is released around fdatasync(2) so
  // that appends (and other syncs) proceed while the disk flushes.
  if (!error_.is_ok()) {
    return error_;  // sticky: a failed flush may have dropped pages
  }
  if (durable_ >= upto) {
    return Status::ok();
  }
  // Keep zeros ahead of the appends. Appends write(2) at the file offset,
  // over the zeros, and mu_ keeps them from interleaving with this pwrite.
  // A record past the zeros grows the file as before; fdatasync then
  // flushes the size with it. A failed fill is not an error: this flush
  // still runs, and the next sync retries the fill.
  if (zeroed_end_ < written_ + kZeroChunk / 2) {
    const std::uint64_t at = std::max(zeroed_end_, written_);
    if (::pwrite(fd_, zero_chunk, kZeroChunk, static_cast<off_t>(at)) ==
        static_cast<ssize_t>(kZeroChunk)) {
      zeroed_end_ = at + kZeroChunk;
    }
  }
  // fdatasync covers every byte written before it starts, so note the end
  // of the log now; concurrent syncs each advance durable_ to their own
  // mark.
  const std::uint64_t target = written_;
  lock.unlock();
  const std::uint64_t t0 = obs::now_ns();
  const int rc = ::fdatasync(fd_);
  const int err = errno;
  const std::uint64_t dur = obs::now_ns() - t0;
  lock.lock();
  if (rc != 0) {
    error_ = Status(Errc::kIoError,
                    std::string("wal fdatasync: ") + std::strerror(err));
  }
  if (!error_.is_ok()) {
    return error_;
  }
  fsyncs_counter().inc();
  fsync_hist().observe(dur);
  durable_ = std::max(durable_, target);
  obs::FlightRecorder::instance().record(
      obs::FrEvent::kWalFsync, obs::current_request_id(), durable_, dur);
  return Status::ok();
}

Status Wal::sync_now() {
  std::unique_lock<std::mutex> lock(mu_);
  return sync_upto(lock, written_);
}

std::uint64_t Wal::appended_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return written_;
}

std::uint64_t Wal::durable_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_;
}

}  // namespace fgad::cloud
