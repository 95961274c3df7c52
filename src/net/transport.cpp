#include "net/transport.h"

#include "proto/messages.h"

namespace fgad::net {

Result<std::vector<Bytes>> RpcChannel::roundtrip_batch(
    const std::vector<Bytes>& requests) {
  std::vector<Bytes> responses;
  responses.reserve(requests.size());
  for (const Bytes& req : requests) {
    Result<Bytes> resp = roundtrip(req);
    if (!resp) {
      return resp.error();
    }
    responses.push_back(std::move(resp).value());
  }
  return responses;
}

Result<Bytes> call(RpcChannel& channel, BytesView request,
                   proto::MsgType expect) {
  auto resp = channel.roundtrip(request);
  if (!resp) {
    return resp;
  }
  auto env = proto::open_message(resp.value());
  if (!env) {
    return env.error();
  }
  return proto::response_payload(std::move(env).value(), expect);
}

}  // namespace fgad::net
