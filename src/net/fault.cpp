#include "net/fault.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "proto/messages.h"

namespace fgad::net {

double FaultInjectingChannel::next_unit() {
  // splitmix64; deterministic under Options::seed.
  rng_state_ += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = rng_state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) / 9007199254740992.0;
}

Result<Bytes> FaultInjectingChannel::roundtrip(BytesView request) {
  int delay_ms = 0;
  enum class Fault {
    kNone, kDropReq, kDisconnect, kDropResp, kTrunc, kFlip,
    kPartTo, kPartFrom, kReorder,
  };
  Fault fault = Fault::kNone;
  std::uint64_t cut = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.rpcs;
    if (dead_) {
      return Error(Errc::kConnReset, "fault: connection is down");
    }
    const auto tag = proto::open_tagged(request);
    const std::uint64_t rid = tag ? tag->request_id : 0;
    // `code` is the stable FrEvent::kFaultInjected `a` value for this
    // fault kind (documented in DESIGN.md §14), independent of the local
    // Fault enum so dumps stay decodable if that enum is reordered.
    const auto injected = [rid](const char* kind, std::uint64_t code) {
      obs::Registry::instance()
          .counter(std::string("fgad_fault_injected_") + kind + "_total")
          .inc();
      obs::FlightRecorder::instance().record(obs::FrEvent::kFaultInjected,
                                             rid, code);
    };
    // The stateful partition outranks the probabilistic draws: a scripted
    // failover test wants EVERY roundtrip through the cut to blackhole.
    if (partition_ == Partition::kToServer) {
      fault = Fault::kPartTo;
      ++counters_.partitioned_to_server;
      injected("partition_to_server", 6);
    } else if (partition_ == Partition::kFromServer) {
      fault = Fault::kPartFrom;
      ++counters_.partitioned_from_server;
      injected("partition_from_server", 7);
    } else if (next_unit() < opts_.drop_request) {
      fault = Fault::kDropReq;
      ++counters_.dropped_requests;
      injected("drop_request", 0);
    } else if (next_unit() < opts_.disconnect) {
      fault = Fault::kDisconnect;
      dead_ = true;
      ++counters_.disconnects;
      injected("disconnect", 1);
    } else if (next_unit() < opts_.drop_response) {
      fault = Fault::kDropResp;
      ++counters_.dropped_responses;
      injected("drop_response", 2);
    } else if (next_unit() < opts_.truncate_response) {
      fault = Fault::kTrunc;
      ++counters_.truncated;
      injected("truncate", 3);
    } else if (next_unit() < opts_.bitflip_response) {
      fault = Fault::kFlip;
      ++counters_.bitflipped;
      injected("bitflip", 4);
    } else if (next_unit() < opts_.partition_to_server) {
      fault = Fault::kPartTo;
      ++counters_.partitioned_to_server;
      injected("partition_to_server", 6);
    } else if (next_unit() < opts_.partition_from_server) {
      fault = Fault::kPartFrom;
      ++counters_.partitioned_from_server;
      injected("partition_from_server", 7);
    } else if (next_unit() < opts_.reorder) {
      fault = Fault::kReorder;
      ++counters_.reordered;
      injected("reorder", 8);
    }
    if (next_unit() < opts_.delay) {
      delay_ms = opts_.delay_ms;
      ++counters_.delayed;
      injected("delay", 5);
    }
    cut = static_cast<std::uint64_t>(next_unit() * (1u << 30));
  }
  if (delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
  switch (fault) {
    case Fault::kDropReq:
      // The server never saw the request; a real socket would surface this
      // as a read deadline expiring on the (never-arriving) response.
      return Error(Errc::kTimeout, "fault: request dropped");
    case Fault::kPartTo:
      // One-way cut toward the server: indistinguishable from a dropped
      // request, but (statefully) it keeps happening until heal().
      return Error(Errc::kTimeout, "fault: partitioned toward server");
    case Fault::kDisconnect:
      return Error(Errc::kConnReset, "fault: connection reset mid-frame");
    default:
      break;
  }
  Result<Bytes> resp = inner_->roundtrip(request);
  if (!resp) {
    return resp;
  }
  Bytes payload = std::move(resp).value();
  switch (fault) {
    case Fault::kDropResp:
      return Error(Errc::kTimeout, "fault: response dropped");
    case Fault::kPartFrom:
      // The mutation executed server-side; only the ack is gone. This is
      // the indeterminate-commit case: the caller must resend under its
      // original rid and let the durable server's dedup converge it.
      return Error(Errc::kTimeout, "fault: partitioned from server");
    case Fault::kReorder: {
      std::lock_guard<std::mutex> lock(mu_);
      held_.push_back(std::move(payload));
      if (held_.size() > std::max<std::size_t>(1, opts_.reorder_window)) {
        Bytes stale = std::move(held_.front());
        held_.pop_front();
        return stale;  // an EARLIER roundtrip's response, out of order
      }
      // Window not yet full: the response is merely late past the deadline.
      return Error(Errc::kTimeout, "fault: response reordered past deadline");
    }
    case Fault::kTrunc:
      if (!payload.empty()) {
        payload.resize(cut % payload.size());
      }
      return payload;
    case Fault::kFlip:
      if (!payload.empty()) {
        payload[cut % payload.size()] ^=
            static_cast<std::uint8_t>(1u << (cut % 8));
      }
      return payload;
    default:
      return payload;
  }
}

bool FaultInjectingChannel::dead() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dead_;
}

void FaultInjectingChannel::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  dead_ = false;
  partition_ = Partition::kNone;
}

void FaultInjectingChannel::partition(Partition dir) {
  std::lock_guard<std::mutex> lock(mu_);
  partition_ = dir;
}

void FaultInjectingChannel::heal() {
  std::lock_guard<std::mutex> lock(mu_);
  partition_ = Partition::kNone;
}

FaultInjectingChannel::Partition FaultInjectingChannel::partitioned() const {
  std::lock_guard<std::mutex> lock(mu_);
  return partition_;
}

FaultInjectingChannel::Counters FaultInjectingChannel::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

}  // namespace fgad::net
