#include "baselines/master_key.h"

namespace fgad::baselines {

namespace proto = fgad::proto;
using proto::MsgType;

namespace {
constexpr std::uint32_t kChunk = 1024;  // items per batch message
}  // namespace

MasterKeySolution::MasterKeySolution(net::RpcChannel& channel,
                                     crypto::RandomSource& rnd,
                                     crypto::HashAlg alg, std::uint64_t table)
    : channel_(channel), rnd_(rnd), alg_(alg), table_(table), codec_(alg) {
  Bytes key(kKeyBytes);
  rnd_.fill(key);
  master_ = crypto::SecureBuffer(std::move(key));
}

crypto::Md MasterKeySolution::item_key(const crypto::SecureBuffer& master,
                                       std::uint64_t index) const {
  return crypto::Prf(alg_, master.view()).derive(index);
}

Status MasterKeySolution::kv_store(std::uint64_t key, Bytes value) {
  proto::KvPutReq req;
  req.table = table_;
  req.key = key;
  req.value = std::move(value);
  return net::call(channel_, req.to_frame(), MsgType::kKvPutResp).status();
}

Result<Bytes> MasterKeySolution::kv_fetch(std::uint64_t key) {
  proto::KvGetReq req;
  req.table = table_;
  req.key = key;
  auto payload = net::call(channel_, req.to_frame(), MsgType::kKvGetResp);
  if (!payload) return payload.error();
  proto::Reader r(payload.value());
  auto resp = proto::KvGetResp::from(r);
  if (!resp) return resp.error();
  if (!resp.value().found) {
    return Error(Errc::kNotFound, "baseline: item missing");
  }
  return std::move(resp.value().value);
}

Status MasterKeySolution::outsource(
    std::size_t n_items, const std::function<Bytes(std::size_t)>& item_at) {
  n_ = n_items;
  std::size_t i = 0;
  while (i < n_items) {
    proto::KvPutBatchReq batch;
    batch.table = table_;
    const std::size_t end = std::min<std::size_t>(i + kChunk, n_items);
    batch.entries.reserve(end - i);
    {
      CumulativeTimer::Section sec(compute_timer_);
      for (; i < end; ++i) {
        batch.entries.push_back(proto::KvGetRangeResp::Entry{
            i, codec_.seal(item_key(master_, i), item_at(i), counter_++,
                           rnd_)});
      }
    }
    if (auto st =
            net::call(channel_, batch.to_frame(), MsgType::kKvPutBatchResp);
        !st) {
      return st.status();
    }
  }
  return Status::ok();
}

Result<Bytes> MasterKeySolution::access(std::uint64_t index) {
  if (index >= n_) {
    return Error(Errc::kNotFound, "baseline: index out of range");
  }
  auto ct = kv_fetch(index);
  if (!ct) return ct.error();
  CumulativeTimer::Section sec(compute_timer_);
  auto opened = codec_.open(item_key(master_, index), ct.value());
  if (!opened) {
    return Error(Errc::kIntegrityMismatch, "baseline: item failed check");
  }
  return std::move(opened.value().plaintext);
}

Status MasterKeySolution::erase_item(std::uint64_t index) {
  if (index >= n_) {
    return Status(Errc::kNotFound, "baseline: index out of range");
  }
  // Pick the replacement master key up front; re-encrypt as we stream so
  // peak client memory stays at one chunk.
  Bytes fresh_bytes(kKeyBytes);
  rnd_.fill(fresh_bytes);
  crypto::SecureBuffer fresh(std::move(fresh_bytes));

  std::uint64_t old_idx = 0;   // index in the old keyspace
  std::uint64_t new_idx = 0;   // index in the new keyspace
  while (old_idx < n_) {
    // Fetch a chunk of ciphertexts.
    proto::KvGetRangeReq rreq;
    rreq.table = table_;
    rreq.start_key = old_idx;
    rreq.max_count = kChunk;
    auto payload =
        net::call(channel_, rreq.to_frame(), MsgType::kKvGetRangeResp);
    if (!payload) return payload.status();
    proto::Reader r(payload.value());
    auto range = proto::KvGetRangeResp::from(r);
    if (!range) return range.status();
    if (range.value().entries.empty()) {
      return Status(Errc::kIoError, "baseline: server returned no items");
    }

    proto::KvPutBatchReq batch;
    batch.table = table_;
    {
      CumulativeTimer::Section sec(compute_timer_);
      for (auto& e : range.value().entries) {
        old_idx = e.key + 1;
        if (e.key == index) {
          continue;  // the deleted item is simply not re-encrypted
        }
        auto opened = codec_.open(item_key(master_, e.key), e.value);
        if (!opened) {
          return Status(Errc::kIntegrityMismatch,
                        "baseline: stored item failed check");
        }
        batch.entries.push_back(proto::KvGetRangeResp::Entry{
            new_idx,
            codec_.seal(item_key(fresh, new_idx), opened.value().plaintext,
                        opened.value().r, rnd_)});
        ++new_idx;
      }
    }
    if (!batch.entries.empty()) {
      if (auto st =
              net::call(channel_, batch.to_frame(), MsgType::kKvPutBatchResp);
          !st) {
        return st.status();
      }
    }
  }

  // Drop the now-stale last slot and install the new key.
  proto::KvDeleteReq dreq;
  dreq.table = table_;
  dreq.key = n_ - 1;
  if (auto st = net::call(channel_, dreq.to_frame(), MsgType::kKvDeleteResp);
      !st) {
    return st.status();
  }
  master_ = std::move(fresh);  // old K is cleansed by the move
  --n_;
  return Status::ok();
}

}  // namespace fgad::baselines
