#include "proto/wire.h"

namespace fgad::proto {

namespace {

/// Appends the low `N` bytes of `v`, little-endian, with one insert.
template <std::size_t N>
void put_le(Bytes& buf, std::uint64_t v) {
  std::uint8_t b[N];
  for (std::size_t i = 0; i < N; ++i) {
    b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  buf.insert(buf.end(), b, b + N);
}

}  // namespace

void Writer::u16(std::uint16_t v) { put_le<2>(buf_, v); }

void Writer::u32(std::uint32_t v) { put_le<4>(buf_, v); }

void Writer::u64(std::uint64_t v) { put_le<8>(buf_, v); }

void Writer::bytes(BytesView b) {
  u32(static_cast<std::uint32_t>(b.size()));
  raw(b);
}

void Writer::raw(BytesView b) {
  buf_.insert(buf_.end(), b.begin(), b.end());
}

void Writer::md(const crypto::Md& m) {
  u8(static_cast<std::uint8_t>(m.size()));
  raw(m.bytes());
}

void Writer::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Writer::patch_u32(std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.at(at + i) = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

bool Reader::need(std::size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t Reader::u8() {
  if (!need(1)) return 0;
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  if (!need(2)) return 0;
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                    static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  if (!need(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  if (!need(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

Bytes Reader::bytes() {
  const std::uint32_t n = u32();
  return raw(n);
}

BytesView Reader::bytes_view() {
  return raw_view(u32());
}

BytesView Reader::raw_view(std::size_t n) {
  if (!need(n)) return {};
  const BytesView out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

Bytes Reader::raw(std::size_t n) {
  if (!need(n)) return {};
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

crypto::Md Reader::md() {
  const std::uint8_t n = u8();
  if (n > crypto::Md::kCapacity) {
    ok_ = false;
    return {};
  }
  if (!need(n)) return {};
  crypto::Md m{BytesView(data_.data() + pos_, n)};
  pos_ += n;
  return m;
}

std::string Reader::str() {
  const std::uint32_t n = u32();
  if (!need(n)) return {};
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

Status Reader::finish() const {
  if (!ok_) {
    return Status(Errc::kDecodeError, "wire: truncated or malformed message");
  }
  if (pos_ != data_.size()) {
    return Status(Errc::kDecodeError, "wire: trailing bytes");
  }
  return Status::ok();
}

}  // namespace fgad::proto
