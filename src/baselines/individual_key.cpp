#include "baselines/individual_key.h"

namespace fgad::baselines {

namespace proto = fgad::proto;
using proto::MsgType;

namespace {
constexpr std::uint32_t kChunk = 1024;
}  // namespace

IndividualKeySolution::IndividualKeySolution(net::RpcChannel& channel,
                                             crypto::RandomSource& rnd,
                                             crypto::HashAlg alg,
                                             std::uint64_t table)
    : channel_(channel), rnd_(rnd), table_(table), codec_(alg) {}

Status IndividualKeySolution::outsource(
    std::size_t n_items, const std::function<Bytes(std::size_t)>& item_at) {
  keys_.resize(n_items);
  alive_.assign(n_items, true);
  live_ = n_items;
  std::size_t i = 0;
  while (i < n_items) {
    proto::KvPutBatchReq batch;
    batch.table = table_;
    const std::size_t end = std::min<std::size_t>(i + kChunk, n_items);
    batch.entries.reserve(end - i);
    {
      CumulativeTimer::Section sec(compute_timer_);
      for (; i < end; ++i) {
        keys_[i] = rnd_.random_md(kKeyBytes);
        batch.entries.push_back(proto::KvGetRangeResp::Entry{
            i, codec_.seal(keys_[i], item_at(i), counter_++, rnd_)});
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

Result<Bytes> IndividualKeySolution::access(std::uint64_t index) {
  if (!key_alive(index)) {
    return Error(Errc::kNotFound, "baseline: item deleted or out of range");
  }
  proto::KvGetReq req;
  req.table = table_;
  req.key = index;
  auto payload = net::call(channel_, req.to_frame(), MsgType::kKvGetResp);
  if (!payload) return payload.error();
  proto::Reader r(payload.value());
  auto resp = proto::KvGetResp::from(r);
  if (!resp) return resp.error();
  if (!resp.value().found) {
    return Error(Errc::kNotFound, "baseline: item missing on server");
  }
  CumulativeTimer::Section sec(compute_timer_);
  auto opened = codec_.open(keys_[index], resp.value().value);
  if (!opened) {
    return Error(Errc::kIntegrityMismatch, "baseline: item failed check");
  }
  return std::move(opened.value().plaintext);
}

Status IndividualKeySolution::erase_item(std::uint64_t index) {
  if (!key_alive(index)) {
    return Status(Errc::kNotFound, "baseline: item deleted or out of range");
  }
  {
    // The security-critical step: permanently destroy the item key. The
    // ciphertext is undecryptable from this point on, whether or not the
    // server honors the delete request.
    CumulativeTimer::Section sec(compute_timer_);
    keys_[index].cleanse();
    alive_[index] = false;
    --live_;
  }
  proto::KvDeleteReq req;
  req.table = table_;
  req.key = index;
  return net::call(channel_, req.to_frame(), MsgType::kKvDeleteResp).status();
}

}  // namespace fgad::baselines
