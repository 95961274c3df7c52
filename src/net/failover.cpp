#include "net/failover.h"

#include <netdb.h>

#include <algorithm>
#include <arpa/inet.h>
#include <chrono>
#include <cstring>
#include <thread>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "proto/messages.h"

namespace fgad::net {

namespace {

obs::Counter& counter(const char* name) {
  return obs::Registry::instance().counter(name);
}

/// Request id from a tagged frame (0 when untagged), so failover flight
/// events correlate with the server-side WAL/RPC events for the same rid.
std::uint64_t frame_rid(BytesView request) {
  const auto tag = proto::split_tagged(request);
  return tag ? tag->first : 0;
}

}  // namespace

bool is_not_primary_frame(BytesView response) {
  auto env = proto::open_message(response);
  if (!env || env.value().type != proto::MsgType::kError) {
    return false;
  }
  proto::Reader r(env.value().payload);
  auto err = proto::ErrorMsg::from(r);
  return err && err.value().code == Errc::kNotPrimary;
}

Result<std::string> resolve_ipv4(const std::string& host) {
  // Numeric addresses short-circuit: no resolver round trip, and tests
  // without name service keep working.
  in_addr probe{};
  if (::inet_pton(AF_INET, host.c_str(), &probe) == 1) {
    return host;
  }
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &res);
  if (rc != 0 || res == nullptr) {
    return Error(Errc::kIoError,
                 "resolve " + host + ": " + ::gai_strerror(rc));
  }
  char buf[INET_ADDRSTRLEN] = {0};
  const auto* sin = reinterpret_cast<const sockaddr_in*>(res->ai_addr);
  ::inet_ntop(AF_INET, &sin->sin_addr, buf, sizeof(buf));
  ::freeaddrinfo(res);
  return std::string(buf);
}

FailoverChannel::Dial tcp_endpoint_dial(TcpChannel::Options opts) {
  return [opts](const Endpoint& ep) -> Result<std::unique_ptr<RpcChannel>> {
    auto addr = resolve_ipv4(ep.host);  // per-dial: never cached
    if (!addr) {
      return addr.error();
    }
    auto ch = TcpChannel::connect(addr.value(), ep.port, opts);
    if (!ch) {
      return ch.error();
    }
    return std::unique_ptr<RpcChannel>(std::move(ch).value());
  };
}

FailoverChannel::Resolver static_endpoints(std::vector<Endpoint> eps) {
  return [eps]() -> Result<std::vector<Endpoint>> { return eps; };
}

FailoverChannel::FailoverChannel(Resolver resolver, Dial dial, Options opts)
    : resolver_(std::move(resolver)),
      dial_(std::move(dial)),
      opts_(opts),
      rng_state_(opts.seed | 1) {}

int FailoverChannel::backoff_ms(int attempt) {
  long long ms = opts_.base_backoff_ms;
  for (int i = 0; i < attempt && ms < opts_.max_backoff_ms; ++i) {
    ms *= 2;
  }
  ms = std::min<long long>(ms, opts_.max_backoff_ms);
  rng_state_ += 0x9e3779b97f4a7c15ULL;  // splitmix64 jitter draw
  std::uint64_t z = rng_state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  const double unit = static_cast<double>(z >> 11) / 9007199254740992.0;
  const double factor = 1.0 + opts_.jitter * (2.0 * unit - 1.0);
  return static_cast<int>(std::max(0.0, static_cast<double>(ms) * factor));
}

void FailoverChannel::rotate_locked(const char* why) {
  channel_.reset();
  ++cursor_;
  ++failovers_;
  static obs::Counter& rotations = counter("fgad_failover_total");
  rotations.inc();
  // Per-cause breadcrumb (fgad_failover_not_primary_total / _transport_
  // total); looked up by name each time, the registry dedups.
  obs::Registry::instance()
      .counter(std::string("fgad_failover_") + why + "_total")
      .inc();
}

Status FailoverChannel::connect_locked(int attempt, std::uint64_t rid) {
  auto eps = resolver_();  // EVERY dial re-resolves (see header)
  if (!eps) {
    return eps.status();
  }
  if (eps.value().empty()) {
    return Status(Errc::kInvalidArgument, "failover: resolver returned no "
                                          "endpoints");
  }
  const Endpoint& ep = eps.value()[cursor_ % eps.value().size()];
  ++dials_;
  static obs::Counter& dial_count = counter("fgad_failover_dials_total");
  dial_count.inc();
  obs::FlightRecorder::instance().record(obs::FrEvent::kRetryDial, rid,
                                         static_cast<std::uint64_t>(attempt));
  auto ch = dial_(ep);
  if (!ch) {
    ++cursor_;  // a dead endpoint should not eat every attempt
    return ch.status();
  }
  channel_ = std::move(ch).value();
  return Status::ok();
}

Result<Bytes> FailoverChannel::roundtrip(BytesView request) {
  std::lock_guard<std::mutex> lock(mu_);
  return roundtrip_locked(request, /*sent=*/false);
}

Result<Bytes> FailoverChannel::roundtrip_locked(BytesView request,
                                                bool sent) {
  const bool may_resend = opts_.retryable && opts_.retryable(request);
  const std::uint64_t rid = frame_rid(request);
  const int attempts = std::max(1, opts_.max_attempts);
  Error last(Errc::kIoError, "failover: no attempt made");
  bool refused = false;       // a send was answered with kNotPrimary
  bool may_have_run = sent;  // a send may have executed (transport failure)
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      const int sleep_ms = backoff_ms(attempt - 1);
      static obs::Counter& backoff_total =
          counter("fgad_failover_backoff_ms_total");
      backoff_total.inc(static_cast<std::uint64_t>(sleep_ms));
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
    if (!channel_) {
      if (auto st = connect_locked(attempt, rid); !st) {
        last = st.error();
        continue;  // dialing sends nothing; always retryable
      }
    }
    if (sent) {
      ++resends_;
      static obs::Counter& resend_count =
          counter("fgad_failover_resends_total");
      resend_count.inc();
      obs::FlightRecorder::instance().record(
          obs::FrEvent::kRetryResend, rid, static_cast<std::uint64_t>(attempt));
    }
    sent = true;
    Result<Bytes> resp = channel_->roundtrip(request);
    if (resp) {
      if (!is_not_primary_frame(resp.value())) {
        return resp;
      }
      // Not executed (see header): the resend ban does not apply.
      rotate_locked("not_primary");
      refused = true;
      last = Error(Errc::kNotPrimary, "failover: endpoint is not primary");
      continue;
    }
    if (!transport_error(resp.error().code)) {
      return resp;  // protocol-level failure: the connection still works
    }
    rotate_locked("transport");
    if (!may_resend) {
      return resp;
    }
    last = resp.error();
    may_have_run = true;
  }
  static obs::Counter& exhausted = counter("fgad_failover_exhausted_total");
  exhausted.inc();
  obs::FlightRecorder::instance().record(obs::FrEvent::kRetryExhausted, rid,
                                         static_cast<std::uint64_t>(attempts));
  const std::string why = "failover: gave up after " +
                          std::to_string(attempts) + " attempts (last: " +
                          last.to_string() + ")";
  // Every send was refused unexecuted, so the request ran nowhere: say
  // so, rather than leave a key-rotating commit's outcome in doubt.
  return Error(refused && !may_have_run ? Errc::kNotPrimary
                                        : Errc::kRetryExhausted,
               why);
}

Result<std::vector<Bytes>> FailoverChannel::roundtrip_batch(
    const std::vector<Bytes>& requests) {
  std::lock_guard<std::mutex> lock(mu_);
  const bool all_resendable =
      opts_.retryable &&
      std::all_of(requests.begin(), requests.end(),
                  [&](const Bytes& r) { return opts_.retryable(r); });
  // Set once the batch reached a connection: from then on any request
  // of it may have executed, so none may end as "not executed".
  bool sent = false;
  if (all_resendable && (channel_ || connect_locked(/*attempt=*/0, 0))) {
    // Fast path: pipeline the whole batch on the live connection. Any
    // failure — transport or a mid-batch kNotPrimary — falls through to
    // the per-request path, which is safe to replay precisely because
    // every request in the batch passed the predicate.
    sent = true;
    auto resps = channel_->roundtrip_batch(requests);
    if (resps) {
      const bool rerouted = std::any_of(
          resps.value().begin(), resps.value().end(),
          [](const Bytes& r) { return is_not_primary_frame(r); });
      if (!rerouted) {
        return resps;
      }
      rotate_locked("not_primary");
    } else if (transport_error(resps.error().code)) {
      rotate_locked("transport");
    } else {
      return resps.error();
    }
  }
  std::vector<Bytes> out;
  out.reserve(requests.size());
  for (const Bytes& r : requests) {
    auto resp = roundtrip_locked(r, sent);
    if (!resp) {
      // A refusal proves only that this request ran nowhere; the ones
      // before it did run, so the batch did not "not execute".
      if (resp.error().code == Errc::kNotPrimary && !out.empty()) {
        return Error(Errc::kRetryExhausted, resp.error().message);
      }
      return resp.error();
    }
    out.push_back(std::move(resp).value());
  }
  return out;
}

std::uint64_t FailoverChannel::dials() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dials_;
}

std::uint64_t FailoverChannel::resends() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resends_;
}

std::uint64_t FailoverChannel::failovers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failovers_;
}

}  // namespace fgad::net
