// Section V, local key proxy: "If a client has many users sharing the same
// file system ... the client may designate a local proxy server to manage
// these keys. When a user wants to operate on data, its request is
// redirected to the proxy, which will act on the user's behalf to access or
// update the data before forwarding the data to the user."
//
// KeyProxy wraps a FileSystemClient (which holds the control key and talks
// to the cloud) behind the same framed request/response protocol the rest
// of the system uses, so users can sit on any RpcChannel — in-process,
// pipe, or TCP inside the trusted perimeter. ProxyUser is the user-side
// stub. Users never see a key; the proxy never stores user data.
#pragma once

#include "fskeys/meta.h"
#include "net/transport.h"

namespace fgad::fskeys {

// Proxy protocol messages. The create/erase/modify/delete responses and the
// list request carry no payload (proto::empty_frame).

struct PxCreateFileReq {
  std::uint64_t file_id = 0;
  std::vector<Bytes> items;
  Bytes to_frame() const;
  static Result<PxCreateFileReq> from(proto::Reader& r);
};

struct PxAccessReq {
  std::uint64_t file_id = 0;
  proto::ItemRef ref;
  Bytes to_frame() const;
  static Result<PxAccessReq> from(proto::Reader& r);
};

struct PxAccessResp {
  Bytes content;
  Bytes to_frame() const;
  static Result<PxAccessResp> from(proto::Reader& r);
};

struct PxInsertReq {
  std::uint64_t file_id = 0;
  Bytes content;
  Bytes to_frame() const;
  static Result<PxInsertReq> from(proto::Reader& r);
};

struct PxInsertResp {
  std::uint64_t item_id = 0;
  Bytes to_frame() const;
  static Result<PxInsertResp> from(proto::Reader& r);
};

struct PxEraseReq {
  std::uint64_t file_id = 0;
  proto::ItemRef ref;
  Bytes to_frame() const;
  static Result<PxEraseReq> from(proto::Reader& r);
};

struct PxModifyReq {
  std::uint64_t file_id = 0;
  std::uint64_t item_id = 0;
  Bytes content;
  Bytes to_frame() const;
  static Result<PxModifyReq> from(proto::Reader& r);
};

struct PxDeleteFileReq {
  std::uint64_t file_id = 0;
  Bytes to_frame() const;
  static Result<PxDeleteFileReq> from(proto::Reader& r);
};

struct PxListFilesResp {
  std::uint64_t file_count = 0;
  Bytes to_frame() const;
  static Result<PxListFilesResp> from(proto::Reader& r);
};

/// The proxy: owns no state beyond the wrapped FileSystemClient.
class KeyProxy {
 public:
  explicit KeyProxy(FileSystemClient& fs) : fs_(fs) {}

  /// Handles one framed user request; returns the framed response.
  Bytes handle(BytesView request);

 private:
  FileSystemClient& fs_;
};

/// User-side stub talking to a KeyProxy over an RpcChannel.
class ProxyUser {
 public:
  explicit ProxyUser(net::RpcChannel& channel) : channel_(channel) {}

  Status create_file(std::uint64_t file_id, std::span<const Bytes> items);
  Result<Bytes> access(std::uint64_t file_id, proto::ItemRef ref);
  Result<std::uint64_t> insert(std::uint64_t file_id, BytesView content);
  Status erase_item(std::uint64_t file_id, proto::ItemRef ref);
  Status modify(std::uint64_t file_id, std::uint64_t item_id,
                BytesView new_content);
  Status delete_file(std::uint64_t file_id);
  Result<std::size_t> file_count();

 private:
  net::RpcChannel& channel_;
};

}  // namespace fgad::fskeys
