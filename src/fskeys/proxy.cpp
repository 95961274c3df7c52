#include "fskeys/proxy.h"

#include "proto/schema.h"

namespace fgad::fskeys {

namespace proto = fgad::proto;
using proto::MsgType;

FGAD_MESSAGE(PxCreateFileReq, kPxCreateFileReq, &S::file_id,
             proto::list<std::uint64_t>(&S::items, 1ull << 32))
FGAD_MESSAGE(PxAccessReq, kPxAccessReq, &S::file_id, &S::ref)
FGAD_MESSAGE(PxAccessResp, kPxAccessResp, &S::content)
FGAD_MESSAGE(PxInsertReq, kPxInsertReq, &S::file_id, &S::content)
FGAD_MESSAGE(PxInsertResp, kPxInsertResp, &S::item_id)
FGAD_MESSAGE(PxEraseReq, kPxEraseReq, &S::file_id, &S::ref)
FGAD_MESSAGE(PxModifyReq, kPxModifyReq, &S::file_id, &S::item_id,
             &S::content)
FGAD_MESSAGE(PxDeleteFileReq, kPxDeleteFileReq, &S::file_id)
FGAD_MESSAGE(PxListFilesResp, kPxListFilesResp, &S::file_count)

namespace {

using proto::error_frame;
using proto::status_frame;

/// Decodes a `Req` from `r` and answers it with `serve`, or with the
/// decode error.
template <class Req, class F>
Bytes answer(proto::Reader& r, F&& serve) {
  auto req = Req::from(r);
  return req ? serve(req.value()) : error_frame(req.error());
}

/// Decodes an `M` from a response payload, passing net::call errors through.
template <class M>
Result<M> decode(const Result<Bytes>& payload) {
  if (!payload) {
    return payload.error();
  }
  proto::Reader r(payload.value());
  return M::from(r);
}

}  // namespace

Bytes KeyProxy::handle(BytesView request) {
  auto env = proto::open_message(request);
  if (!env) {
    return error_frame(env.error());
  }
  proto::Reader r(env.value().payload);

  switch (env.value().type) {
    case MsgType::kPxCreateFileReq:
      return answer<PxCreateFileReq>(r, [this](const PxCreateFileReq& q) {
        return status_frame(fs_.create_file(q.file_id, q.items),
                            MsgType::kPxCreateFileResp);
      });

    case MsgType::kPxAccessReq:
      return answer<PxAccessReq>(r, [this](const PxAccessReq& q) {
        auto got = fs_.access(q.file_id, q.ref);
        return got ? PxAccessResp{std::move(got).value()}.to_frame()
                   : error_frame(got.error());
      });

    case MsgType::kPxInsertReq:
      return answer<PxInsertReq>(r, [this](const PxInsertReq& q) {
        auto id = fs_.insert(q.file_id, q.content);
        return id ? PxInsertResp{id.value()}.to_frame()
                  : error_frame(id.error());
      });

    case MsgType::kPxEraseReq:
      return answer<PxEraseReq>(r, [this](const PxEraseReq& q) {
        return status_frame(fs_.erase_item(q.file_id, q.ref),
                            MsgType::kPxEraseResp);
      });

    case MsgType::kPxModifyReq:
      return answer<PxModifyReq>(r, [this](const PxModifyReq& q) {
        return status_frame(fs_.modify(q.file_id, q.item_id, q.content),
                            MsgType::kPxModifyResp);
      });

    case MsgType::kPxDeleteFileReq:
      return answer<PxDeleteFileReq>(r, [this](const PxDeleteFileReq& q) {
        return status_frame(fs_.delete_file(q.file_id),
                            MsgType::kPxDeleteFileResp);
      });

    case MsgType::kPxListFilesReq:
      return PxListFilesResp{fs_.file_count()}.to_frame();

    default:
      return error_frame(
          Error(Errc::kUnsupported, "proxy: unknown message type"));
  }
}

Status ProxyUser::create_file(std::uint64_t file_id,
                              std::span<const Bytes> items) {
  const PxCreateFileReq req{file_id, {items.begin(), items.end()}};
  return net::call(channel_, req.to_frame(), MsgType::kPxCreateFileResp)
      .status();
}

Result<Bytes> ProxyUser::access(std::uint64_t file_id, proto::ItemRef ref) {
  auto resp = decode<PxAccessResp>(net::call(
      channel_, PxAccessReq{file_id, ref}.to_frame(), MsgType::kPxAccessResp));
  if (!resp) {
    return resp.error();
  }
  return std::move(resp.value().content);
}

Result<std::uint64_t> ProxyUser::insert(std::uint64_t file_id,
                                        BytesView content) {
  const PxInsertReq req{file_id, Bytes(content.begin(), content.end())};
  auto resp = decode<PxInsertResp>(
      net::call(channel_, req.to_frame(), MsgType::kPxInsertResp));
  if (!resp) {
    return resp.error();
  }
  return resp.value().item_id;
}

Status ProxyUser::erase_item(std::uint64_t file_id, proto::ItemRef ref) {
  return net::call(channel_, PxEraseReq{file_id, ref}.to_frame(),
                   MsgType::kPxEraseResp)
      .status();
}

Status ProxyUser::modify(std::uint64_t file_id, std::uint64_t item_id,
                         BytesView new_content) {
  const PxModifyReq req{file_id, item_id,
                        Bytes(new_content.begin(), new_content.end())};
  return net::call(channel_, req.to_frame(), MsgType::kPxModifyResp).status();
}

Status ProxyUser::delete_file(std::uint64_t file_id) {
  return net::call(channel_, PxDeleteFileReq{file_id}.to_frame(),
                   MsgType::kPxDeleteFileResp)
      .status();
}

Result<std::size_t> ProxyUser::file_count() {
  auto resp = decode<PxListFilesResp>(
      net::call(channel_, proto::empty_frame(MsgType::kPxListFilesReq),
                MsgType::kPxListFilesResp));
  if (!resp) {
    return resp.error();
  }
  return static_cast<std::size_t>(resp.value().file_count);
}

}  // namespace fgad::fskeys
