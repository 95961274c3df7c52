// Reconnecting, endpoint-rotating decorator for RpcChannel (DESIGN.md §11,
// §18). It is the client's only reconnect layer: with one endpoint it
// redials one server, with two it follows the primary of a replicated
// pair.
//
// FailoverChannel dials endpoints from a Resolver. When the current
// connection fails at the transport level (kTimeout / kConnReset /
// kIoError), or the endpoint answers with kNotPrimary — the typed refusal
// a backup (or a freshly demoted primary) returns for every client
// request — it drops the connection, moves to the next endpoint and
// redials after an exponential backoff with jitter.
//
// Resend discipline. A transport failure means the request MAY have
// executed, so it is resent only when the retryable predicate approves:
// by default nothing is resent; pair with proto::retryable_request so
// read-only RPCs (access, audit, fetches) and tagged mutations, which a
// durable server deduplicates by request id (DESIGN.md §13), retry
// transparently. Untagged mutations surface the typed transport error
// (DESIGN.md §11 explains why a blind deletion/insert replay is unsafe).
// kNotPrimary is a *definitive not-executed* signal — the refusing node
// never touched the WAL — so a refused request is always resent, even an
// untagged mutation.
//
// When the attempt budget runs out the caller gets kRetryExhausted
// carrying the last underlying error, unless every send was refused with
// kNotPrimary: then nothing executed anywhere, and the caller gets
// kNotPrimary, so a key-rotating commit is known not to have applied.
//
// The Resolver is invoked on EVERY dial, never cached: if the operator
// repoints a DNS name (or a test rebinds a port) between dials, the
// redial connects to the *current* address. Caching the first resolution
// is exactly the bug that strands a client on a dead primary after
// failover.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/tcp.h"
#include "net/transport.h"

namespace fgad::net {

struct Endpoint {
  std::string host;
  std::uint16_t port = 0;
};

class FailoverChannel final : public RpcChannel {
 public:
  /// Current endpoint list, re-invoked on every dial (see file comment).
  using Resolver = std::function<Result<std::vector<Endpoint>>()>;
  /// Connects to one endpoint; tcp_endpoint_dial() for real sockets,
  /// anything in-process for tests.
  using Dial = std::function<Result<std::unique_ptr<RpcChannel>>(
      const Endpoint& ep)>;
  /// Decides whether a transport-failed request may be resent.
  using RetryPredicate = std::function<bool(BytesView request)>;

  struct Options {
    int max_attempts = 6;       // total send attempts across endpoints
    int base_backoff_ms = 10;   // doubles per attempt ...
    int max_backoff_ms = 2000;  // ... capped here
    double jitter = 0.5;        // uniform multiplier in [1-jitter, 1+jitter]
    std::uint64_t seed = 0x5eedf00dULL;  // jitter RNG (deterministic tests)
    RetryPredicate retryable;   // null = transport failures never resend
  };

  FailoverChannel(Resolver resolver, Dial dial, Options opts);

  Result<Bytes> roundtrip(BytesView request) override;

  /// Pipelines through the live connection when every request in the
  /// batch is resend-safe; otherwise (or after any in-batch failure)
  /// degrades to the sequential per-request failover path. The batch
  /// ends in kNotPrimary only if none of it may have run.
  Result<std::vector<Bytes>> roundtrip_batch(
      const std::vector<Bytes>& requests) override;

  std::uint64_t dials() const;
  std::uint64_t resends() const;    // sends of a request after its first
  std::uint64_t failovers() const;  // endpoint rotations

 private:
  bool transport_error(Errc c) const {
    return c == Errc::kTimeout || c == Errc::kConnReset ||
           c == Errc::kIoError;
  }
  int backoff_ms(int attempt);
  /// `sent`: an earlier send of `request` (a pipelined batch) may have
  /// executed it.
  Result<Bytes> roundtrip_locked(BytesView request, bool sent);
  /// Dials the cursor's endpoint (resolving first); advances the cursor
  /// on failure so the next attempt tries the other node.
  Status connect_locked(int attempt, std::uint64_t rid);
  void rotate_locked(const char* why);

  Resolver resolver_;
  Dial dial_;
  Options opts_;
  mutable std::mutex mu_;
  std::unique_ptr<RpcChannel> channel_;
  std::size_t cursor_ = 0;
  std::uint64_t rng_state_;
  std::uint64_t dials_ = 0;
  std::uint64_t resends_ = 0;
  std::uint64_t failovers_ = 0;
};

/// True when `response` is an ErrorMsg frame carrying kNotPrimary (the
/// re-route trigger; exposed for tests and the failover tooling).
bool is_not_primary_frame(BytesView response);

/// Resolves a hostname to a numeric IPv4 address via getaddrinfo.
/// Numeric addresses pass through untouched.
Result<std::string> resolve_ipv4(const std::string& host);

/// Dial for real sockets: re-resolves ep.host on every call, then
/// connects with TcpChannel.
FailoverChannel::Dial tcp_endpoint_dial(TcpChannel::Options opts = {});

/// Resolver over a fixed list: one endpoint for a single server, two for
/// a replicated pair.
FailoverChannel::Resolver static_endpoints(std::vector<Endpoint> eps);

}  // namespace fgad::net
