// Bounds-checked binary wire codec (little-endian).
//
// Every protocol message and persisted structure is encoded through Writer /
// Reader so byte counts are exact and decoding malformed input fails softly
// (Reader switches to an error state instead of reading out of bounds).
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/digest.h"

namespace fgad::proto {

class Writer {
 public:
  Writer() = default;

  void reserve(std::size_t n) { buf_.reserve(n); }
  /// Empties the buffer but keeps its capacity, so a caller that writes
  /// the same large image repeatedly does not grow a new buffer each time.
  void clear() { buf_.clear(); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);

  /// Length-prefixed (u32) byte string.
  void bytes(BytesView b);

  /// Raw bytes, no length prefix.
  void raw(BytesView b);

  /// Length-prefixed digest/modulator value (u8 size + bytes).
  void md(const crypto::Md& m);

  void str(std::string_view s);

  /// Overwrites the u32 at byte offset `at` (written earlier, e.g. as a
  /// 0 placeholder): a length prefix or checksum known only once the
  /// bytes after it are written.
  void patch_u32(std::size_t at, std::uint32_t v);

  const Bytes& data() const& { return buf_; }
  Bytes&& take() && { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

class Reader {
 public:
  explicit Reader(BytesView data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  Bytes bytes();
  /// Like bytes(), but a view into the reader's buffer instead of a copy.
  BytesView bytes_view();
  Bytes raw(std::size_t n);
  /// Like raw(), but a view into the reader's buffer instead of a copy.
  BytesView raw_view(std::size_t n);
  crypto::Md md();
  std::string str();

  bool ok() const { return ok_; }
  /// Switches to the error state: the input broke a rule the byte-level
  /// reads cannot see (a count over its cap, an enum out of range).
  void fail() { ok_ = false; }
  bool at_end() const { return ok_ && pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

  /// OK if the reader consumed everything without under-run.
  Status finish() const;

 private:
  bool need(std::size_t n);

  BytesView data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace fgad::proto
