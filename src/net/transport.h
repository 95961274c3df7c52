// Client-to-cloud transport abstraction.
//
// The scheme is a request/response protocol, so the client-side seam is a
// synchronous RpcChannel. Three implementations:
//   * DirectChannel   — invokes a server handler in-process (zero copy of
//                       the network stack; used by tests and the large
//                       benchmark sweeps);
//   * PipeChannel     — thread-safe in-memory queue pair (net/inmemory.h),
//                       runs the server on its own thread;
//   * TcpChannel      — real loopback/remote sockets (net/tcp.h).
// CountingChannel decorates any of them and records the exact bytes a real
// deployment would move, which is the paper's communication-overhead metric
// (Table II, Figure 5): payload bytes plus one frame header per message.
// Two more decorators harden and test the seam (DESIGN.md §11):
//   * FailoverChannel        — reconnect + backoff, resending only
//                              requests that are safe to resend, over
//                              one server or a replicated pair
//                              (net/failover.h);
//   * FaultInjectingChannel  — drop/delay/truncate/bit-flip/disconnect
//                              fault injection (net/fault.h).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"

namespace fgad::proto {
enum class MsgType : std::uint16_t;
}  // namespace fgad::proto

namespace fgad::net {

/// Wire frame header size (u32 length prefix), charged per message by
/// CountingChannel so DirectChannel measurements match TCP framing.
inline constexpr std::size_t kFrameHeaderSize = 4;

class RpcChannel {
 public:
  virtual ~RpcChannel() = default;

  /// Sends a request and waits for the response.
  virtual Result<Bytes> roundtrip(BytesView request) = 0;

  /// Sends a batch of requests and returns their responses in request
  /// order. The base implementation round-trips sequentially — correct
  /// on every transport, including decorators whose per-RPC semantics
  /// (retry, fault injection) matter. Pipelining transports (TcpChannel)
  /// override it to keep all requests in flight at once against the
  /// reactor server. The first failed request fails the whole batch.
  virtual Result<std::vector<Bytes>> roundtrip_batch(
      const std::vector<Bytes>& requests);
};

/// Round-trips `request` and returns the payload of its response, which
/// must be of type `expect`; a kError response yields the Error it carries
/// (proto::response_payload).
Result<Bytes> call(RpcChannel& channel, BytesView request,
                   proto::MsgType expect);

/// In-process loopback: hands the request straight to a server handler.
class DirectChannel final : public RpcChannel {
 public:
  using Handler = std::function<Bytes(BytesView)>;
  explicit DirectChannel(Handler handler) : handler_(std::move(handler)) {}

  Result<Bytes> roundtrip(BytesView request) override {
    return handler_(request);
  }

 private:
  Handler handler_;
};

/// Byte-counting decorator implementing the paper's communication-overhead
/// accounting: "all information that the client receives and sends for an
/// operation".
class CountingChannel final : public RpcChannel {
 public:
  explicit CountingChannel(RpcChannel& inner) : inner_(inner) {}

  Result<Bytes> roundtrip(BytesView request) override {
    sent_ += request.size() + kFrameHeaderSize;
    ++rpcs_;
    Result<Bytes> resp = inner_.roundtrip(request);
    if (resp) {
      received_ += resp.value().size() + kFrameHeaderSize;
    }
    return resp;
  }

  /// Forwards to the inner channel's (possibly pipelined) batch path —
  /// the bytes on the wire are identical either way.
  Result<std::vector<Bytes>> roundtrip_batch(
      const std::vector<Bytes>& requests) override {
    for (const Bytes& r : requests) {
      sent_ += r.size() + kFrameHeaderSize;
      ++rpcs_;
    }
    Result<std::vector<Bytes>> resps = inner_.roundtrip_batch(requests);
    if (resps) {
      for (const Bytes& r : resps.value()) {
        received_ += r.size() + kFrameHeaderSize;
      }
    }
    return resps;
  }

  std::uint64_t bytes_sent() const { return sent_; }
  std::uint64_t bytes_received() const { return received_; }
  std::uint64_t total_bytes() const { return sent_ + received_; }
  std::uint64_t rpc_count() const { return rpcs_; }

  void reset() {
    sent_ = 0;
    received_ = 0;
    rpcs_ = 0;
  }

 private:
  RpcChannel& inner_;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t rpcs_ = 0;
};

}  // namespace fgad::net
