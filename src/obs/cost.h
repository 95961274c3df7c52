// Per-request cost accounting (DESIGN.md §19).
//
// A request's wall-clock latency on the server is spent in a handful of
// places — queue/pipeline wait, the WAL append, the (possibly amortized)
// fsync, the replication sync-ack wait, the state-machine apply, and on
// the client side the per-item key derivation. The CostLedger attributes
// each of those buckets to the owning request id as it happens, and the
// server returns the breakdown to the client as the server-timing
// trailer of a kTaggedEnvelopeV2 response (proto::TimingEntry, kind =
// CostKind ordinal).
//
// Attribution rules:
//   - work on the request's own dispatch (the WAL append, the apply) is
//     charged in full to its rid via ScopedCost / add();
//   - batch-amortized work (one group-commit fsync covering n staged
//     mutations, one gate() ack covering a batch) is charged as
//     duration / n to every rid in the batch — the shares sum to the
//     batch's real cost, so per-rid breakdowns stay additive;
//   - queue wait is the time between enqueueing on the group committer
//     and the flush that picked the entry up.
//
// The ledger is disabled by default (a single relaxed atomic guards every
// call); fgad_server enables it at startup. Entries are bounded FIFO —
// an abandoned rid (client never read its trailer) is evicted once
// kMaxEntries newer rids arrive.
#pragma once

#include <array>
#include <cstdint>

namespace fgad::obs {

/// Stable wire codes for the server-timing trailer. Append-only: peers
/// of different versions must agree on the meaning of each ordinal.
enum class CostKind : std::uint8_t {
  kQueueWait = 0,   // group-committer enqueue -> flush pickup
  kWalAppend = 1,   // WAL append (buffer write, CRC, no fsync)
  kFsyncShare = 2,  // amortized share of one group-commit fsync
  kReplWait = 3,    // sync replication: wait for the follower's ack share
  kApply = 4,       // state-machine apply (CloudServer::handle_locked)
  kKeyDerive = 5,   // client-side modulated-chain key derivation
  kTotal = 6,       // dispatch -> response ready (informational)
  kCount = 7,
};

const char* cost_kind_name(CostKind k);

/// Process-wide rid -> cost-breakdown table. Writers add nanoseconds
/// under a mutex (the buckets are off the per-item hot path: one add per
/// request per bucket); the response-sealing path takes the whole row.
class CostLedger {
 public:
  static constexpr std::size_t kMaxEntries = 1024;

  struct Breakdown {
    std::array<std::uint64_t, static_cast<std::size_t>(CostKind::kCount)>
        ns{};
    bool any() const {
      for (std::uint64_t v : ns) {
        if (v != 0) {
          return true;
        }
      }
      return false;
    }
  };

  static CostLedger& instance();

  void set_enabled(bool on);
  bool enabled() const;

  /// Charges `ns` to `rid`'s bucket `k`. No-op when disabled or rid == 0.
  void add(std::uint64_t rid, CostKind k, std::uint64_t ns);

  /// Removes and returns rid's row (zeros if absent).
  Breakdown take(std::uint64_t rid);

  /// Drops every row (tests).
  void clear();

 private:
  CostLedger() = default;
  struct Impl;
  static Impl& impl();
};

/// RAII: charges the scope's elapsed time to obs::current_request_id()
/// under `kind`. Free when the ledger is disabled or no rid is active
/// (the clock is not even read).
class ScopedCost {
 public:
  explicit ScopedCost(CostKind kind);
  ~ScopedCost();
  ScopedCost(const ScopedCost&) = delete;
  ScopedCost& operator=(const ScopedCost&) = delete;

 private:
  std::uint64_t rid_ = 0;
  std::uint64_t t0_ = 0;
  CostKind kind_;
};

}  // namespace fgad::obs
