// Field-list wire codec (DESIGN.md §11).
//
// Each wire struct's layout is declared once, as a field list returned by
// a `fields_of(Tag<T>)` overload (FGAD_FIELDS, FGAD_MESSAGE). One encoder
// (put), one decoder (get) and one minimum-size sizer (min_size) walk every
// list. An entry is a member pointer (unsigned integers at their width,
// bool as a u8, Md as u8 size + bytes, Bytes and std::string as u32 size +
// bytes, a struct with its own field list inline) or one of
//
//   as_enum<W>(&T::e[, max])  the enum as a W; decode rejects values > max
//   list<W>(&T::v, cap[, kNonEmpty[, min_elem]])
//                             a W count, then the elements; decode rejects
//                             a count over cap, zero in a non-empty list,
//                             or one over bytes left / max(min_size,
//                             min_elem) + 1, so a hostile count never
//                             drives an allocation the frame cannot back
//   when(&T::flag, f...)      the flag as a u8, then f... iff it is set
//   either(&T::flag, std::tuple(set...), std::tuple(clear...))
//
// A decode failure leaves the Reader in its error state.
#pragma once

#include <algorithm>
#include <limits>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "proto/messages.h"

namespace fgad::proto {

/// ADL key: `fields_of(Tag<T>{})` finds T's field list in proto or in T's
/// own namespace.
template <class T>
struct Tag {};

// PathView's node and link lists share one count, so it keeps a dedicated
// codec (messages.cpp).
void put(Writer& w, const core::PathView& p);
void get(Reader& r, core::PathView& p);

template <class T>
void put(Writer& w, const T& v);
template <class T>
void get(Reader& r, T& v);
template <class T>
constexpr std::size_t min_size();

template <class C, class M>
struct Member {
  M C::*mem;
  void put(Writer& w, const C& c) const { proto::put(w, c.*mem); }
  void get(Reader& r, C& c) const { proto::get(r, c.*mem); }
  constexpr std::size_t min() const { return min_size<M>(); }
};

/// A field list entry; bare member pointers become Members.
template <class F>
constexpr auto field(F f) {
  if constexpr (std::is_member_object_pointer_v<F>) {
    return Member{f};
  } else {
    return f;
  }
}

template <class C, class Fields>
void put_fields(Writer& w, const C& c, const Fields& fields) {
  std::apply([&](const auto&... f) { (field(f).put(w, c), ...); }, fields);
}

template <class C, class Fields>
void get_fields(Reader& r, C& c, const Fields& fields) {
  std::apply(
      [&](const auto&... f) {
        (void)((field(f).get(r, c), r.ok()) && ...);  // stop at a failure
      },
      fields);
}

template <class Fields>
constexpr std::size_t fields_min(const Fields& fields) {
  return std::apply(
      [](const auto&... f) { return (std::size_t{0} + ... + field(f).min()); },
      fields);
}

template <class C, class E, class W>
struct EnumField {
  E C::*mem;
  E max;
  void put(Writer& w, const C& c) const {
    proto::put(w, static_cast<W>(c.*mem));
  }
  void get(Reader& r, C& c) const {
    W raw = 0;
    proto::get(r, raw);
    if (raw > static_cast<W>(max)) {
      r.fail();
    }
    c.*mem = static_cast<E>(raw);
  }
  constexpr std::size_t min() const { return sizeof(W); }
};

template <class C, class E, class W>
struct ListField {
  std::vector<E> C::*mem;
  std::uint64_t cap;
  bool nonempty;
  std::size_t min_elem;
  void put(Writer& w, const C& c) const {
    proto::put(w, static_cast<W>((c.*mem).size()));
    for (const E& e : c.*mem) {
      proto::put(w, e);
    }
  }
  void get(Reader& r, C& c) const {
    W n = 0;
    proto::get(r, n);
    if (!r.ok() || n > cap || (nonempty && n == 0) ||
        n > r.remaining() / std::max(min_size<E>(), min_elem) + 1) {
      r.fail();
      return;
    }
    (c.*mem).resize(n);
    for (E& e : c.*mem) {
      proto::get(r, e);
      if (!r.ok()) {
        return;
      }
    }
  }
  constexpr std::size_t min() const { return sizeof(W); }
};

template <class C, class Set, class Clear>
struct Branch {
  bool C::*flag;
  Set set;
  Clear clear;
  void put(Writer& w, const C& c) const {
    proto::put(w, c.*flag);
    if (c.*flag) {
      put_fields(w, c, set);
    } else {
      put_fields(w, c, clear);
    }
  }
  void get(Reader& r, C& c) const {
    proto::get(r, c.*flag);
    if (c.*flag) {
      get_fields(r, c, set);
    } else {
      get_fields(r, c, clear);
    }
  }
  constexpr std::size_t min() const {
    return 1 + std::min(fields_min(set), fields_min(clear));
  }
};

inline constexpr bool kNonEmpty = true;

template <class W, class C, class E>
constexpr EnumField<C, E, W> as_enum(
    E C::*mem, E max = static_cast<E>(std::numeric_limits<W>::max())) {
  return {mem, max};
}

template <class W, class C, class E>
constexpr ListField<C, E, W> list(std::vector<E> C::*mem, std::uint64_t cap,
                                  bool nonempty = false,
                                  std::size_t min_elem = 0) {
  return {mem, cap, nonempty, min_elem};
}

template <class C, class... F>
constexpr auto when(bool C::*flag, F... fields) {
  return Branch<C, std::tuple<F...>, std::tuple<>>{flag, {fields...}, {}};
}

template <class C, class Set, class Clear>
constexpr Branch<C, Set, Clear> either(bool C::*flag, Set set, Clear clear) {
  return {flag, set, clear};
}

template <class T>
void put(Writer& w, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    w.u8(v ? 1 : 0);
  } else if constexpr (std::is_same_v<T, std::uint8_t>) {
    w.u8(v);
  } else if constexpr (std::is_same_v<T, std::uint16_t>) {
    w.u16(v);
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    w.u32(v);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    w.u64(v);
  } else if constexpr (std::is_same_v<T, crypto::Md>) {
    w.md(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.str(v);
  } else if constexpr (std::is_same_v<T, Bytes>) {
    w.bytes(v);
  } else {
    put_fields(w, v, fields_of(Tag<T>{}));
  }
}

template <class T>
void get(Reader& r, T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    v = r.u8() != 0;
  } else if constexpr (std::is_same_v<T, std::uint8_t>) {
    v = r.u8();
  } else if constexpr (std::is_same_v<T, std::uint16_t>) {
    v = r.u16();
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    v = r.u32();
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    v = r.u64();
  } else if constexpr (std::is_same_v<T, crypto::Md>) {
    v = r.md();
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = r.str();
  } else if constexpr (std::is_same_v<T, Bytes>) {
    v = r.bytes();
  } else {
    get_fields(r, v, fields_of(Tag<T>{}));
  }
}

template <class T>
constexpr std::size_t min_size() {
  if constexpr (std::is_integral_v<T>) {
    return sizeof(T);
  } else if constexpr (std::is_same_v<T, crypto::Md>) {
    return 1;
  } else if constexpr (std::is_same_v<T, std::string> ||
                       std::is_same_v<T, Bytes>) {
    return 4;
  } else if constexpr (std::is_same_v<T, core::PathView>) {
    return 4 + 8;  // count + the one node every path has
  } else {
    return fields_min(fields_of(Tag<T>{}));
  }
}

template <class T>
Bytes encode_frame(MsgType type, const T& m) {
  Writer w;
  w.u16(static_cast<std::uint16_t>(type));
  put(w, m);
  return std::move(w).take();
}

/// Decodes a whole payload: every byte must belong to the message.
template <class T>
Result<T> decode_payload(Reader& r) {
  T m{};
  get(r, m);
  if (auto st = r.finish(); !st) {
    return Error(st.error());
  }
  return m;
}

/// Declares T's field list; inside it `S` names T.
#define FGAD_FIELDS(T, ...)                         \
  constexpr auto fields_of(::fgad::proto::Tag<T>) { \
    using S = T;                                    \
    return std::make_tuple(__VA_ARGS__);            \
  }

/// Declares a message's field list and defines its to_frame() and from().
#define FGAD_MESSAGE(T, kType, ...)                                   \
  FGAD_FIELDS(T, __VA_ARGS__)                                         \
  ::fgad::Bytes T::to_frame() const {                                 \
    return ::fgad::proto::encode_frame(::fgad::proto::MsgType::kType, \
                                       *this);                        \
  }                                                                   \
  ::fgad::Result<T> T::from(::fgad::proto::Reader& r) {               \
    return ::fgad::proto::decode_payload<T>(r);                       \
  }

FGAD_FIELDS(ItemRef, as_enum<std::uint8_t>(&S::kind, RefKind::kByteOffset),
            &S::value)

}  // namespace fgad::proto
