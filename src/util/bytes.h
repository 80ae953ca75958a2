// The one byte codec behind every on-disk format: the study cache (RVST),
// the campaign rollup (RVRU) and the record spill (RVSP).
//
// ByteWriter appends little-endian fixed-width integers and doubles,
// u32-length-prefixed strings, LEB128 varints and u32-count-prefixed lists
// and string-keyed maps to a std::string. ByteReader decodes the same
// operations from a std::string_view. Every read is bounds-checked; the
// first failure makes ok() false for good and later reads leave their
// targets untouched; integers that do not fit the target type, bools other
// than 0/1 and enums outside their range are failures; a list or map count
// is bounded by remaining() before anything is allocated.
//
// Both classes spell each operation the same way: the writer's takes a
// value, the reader's takes a reference to fill. A format therefore lists
// its fields once, as `template <class Io, class T> void f(Io& io, T& v)`,
// called with a ByteWriter and a const T to encode and with a ByteReader
// and a T to decode.
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rv::util {

static_assert(std::endian::native == std::endian::little,
              "fixed-width fields are copied in host order");

class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { put(v); }
  void i32(std::int32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i64(std::int64_t v) { put(v); }
  void f64(double v) { put(v); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  // An enum stored as a u8 or an i32; `count` bounds it on the read side.
  template <class E>
  void enum_u8(E v, int /*count*/) {
    u8(static_cast<std::uint8_t>(v));
  }
  template <class E>
  void enum_i32(E v, int /*count*/) {
    i32(static_cast<std::int32_t>(v));
  }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.append(s);
  }
  // Unsigned LEB128: seven bits per byte, least significant group first.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      out_.push_back(static_cast<char>((v & 0x7F) | 0x80));
      v >>= 7;
    }
    out_.push_back(static_cast<char>(v));
  }
  // A u32 count, then `elem` on each element. `max` bounds the read side.
  template <class T, class Fn>
  void list(const std::vector<T>& v, std::size_t /*max*/, Fn&& elem) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& e : v) elem(e);
  }
  // A u32 count, then each key (as str) and `value` on its value, in key
  // order.
  template <class V, class Fn>
  void map(const std::map<std::string, V>& m, std::size_t /*max*/,
           Fn&& value) {
    u32(static_cast<std::uint32_t>(m.size()));
    for (const auto& [key, v] : m) {
      str(key);
      value(v);
    }
  }
  // What a writer is handed is valid by construction; checks are the
  // reader's.
  void check(bool /*cond*/) {}

  std::size_t size() const { return out_.size(); }
  const std::string& bytes() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  template <class T>
  void put(T v) {
    char b[sizeof v];
    std::memcpy(b, &v, sizeof v);
    out_.append(b, sizeof v);
  }

  std::string out_;
};

// A failed reader has no bytes left, so a read that finds its bytes
// implies every earlier read succeeded.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes)
      : p_(bytes.data()), end_(p_ + bytes.size()) {}

  bool ok() const { return ok_; }
  // Bytes not yet consumed; 0 once a read has failed.
  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
  // Marks the input malformed unless `cond` holds.
  void check(bool cond) {
    if (!cond) {
      ok_ = false;
      p_ = end_;
    }
  }

  template <std::integral T>
  void u8(T& v) {
    get<std::uint8_t>(v);
  }
  template <std::integral T>
  void u32(T& v) {
    get<std::uint32_t>(v);
  }
  template <std::integral T>
  void i32(T& v) {
    get<std::int32_t>(v);
  }
  template <std::integral T>
  void u64(T& v) {
    get<std::uint64_t>(v);
  }
  template <std::integral T>
  void i64(T& v) {
    get<std::int64_t>(v);
  }
  void f64(double& v) { take(&v, sizeof v); }
  void boolean(bool& v) {
    std::uint8_t b = 0;
    u8(b);
    check(b <= 1);
    if (ok_) v = b == 1;
  }
  template <class E>
  void enum_u8(E& v, int count) {
    enumerant<std::uint8_t>(v, count);
  }
  template <class E>
  void enum_i32(E& v, int count) {
    enumerant<std::int32_t>(v, count);
  }
  void str(std::string& s) {
    std::string_view v;
    str(v);
    if (ok_) s.assign(v);
  }
  // A view into the input: valid while the input bytes are.
  void str(std::string_view& s) {
    std::uint32_t n = 0;
    u32(n);
    raw(s, n);
  }
  void raw(std::string_view& s, std::size_t n) {
    check(n <= remaining());
    if (!ok_) return;
    s = std::string_view(p_, n);
    p_ += n;
  }
  template <std::integral T>
  void varint(T& v) {
    std::uint64_t x = 0;
    const char* p = p_;
    for (int shift = 0; shift < 64 && p != end_; shift += 7) {
      const auto b = static_cast<std::uint8_t>(*p++);
      x |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) {
        // The tenth byte may carry only the top bit of a u64.
        if (shift == 63 && b > 1) break;
        p_ = p;
        store(v, x);
        return;
      }
    }
    check(false);
  }
  // Every element takes at least one byte, so a count above remaining()
  // is malformed and rejected before the vector is sized.
  template <class T, class Fn>
  void list(std::vector<T>& v, std::size_t max, Fn&& elem) {
    std::size_t n = 0;
    u32(n);
    check(n <= max && n <= remaining());
    if (!ok_) return;
    v.clear();
    v.resize(n);
    for (auto& e : v) {
      elem(e);
      if (!ok_) return;
    }
  }
  // Keys must be strictly ascending, the order ByteWriter::map writes.
  template <class V, class Fn>
  void map(std::map<std::string, V>& m, std::size_t max, Fn&& value) {
    std::size_t n = 0;
    u32(n);
    check(n <= max && n <= remaining() / sizeof(std::uint32_t));
    if (!ok_) return;
    m.clear();
    for (std::size_t i = 0; i < n; ++i) {
      std::string key;
      V v{};
      str(key);
      value(v);
      check(m.empty() || m.rbegin()->first < key);
      if (!ok_) return;
      m.emplace_hint(m.end(), std::move(key), std::move(v));
    }
  }

 private:
  bool take(void* out, std::size_t n) {
    check(n <= remaining());
    if (!ok_) return false;
    std::memcpy(out, p_, n);
    p_ += n;
    return true;
  }
  template <class Wire, class T>
  void get(T& v) {
    Wire w{};
    if (take(&w, sizeof w)) store(v, w);
  }
  // Called after a successful read, so only the range can fail.
  template <class T, class Wire>
  void store(T& v, Wire w) {
    if (std::in_range<T>(w)) {
      v = static_cast<T>(w);
    } else {
      check(false);
    }
  }
  template <class Wire, class E>
  void enumerant(E& v, int count) {
    Wire w{};
    get<Wire>(w);
    check(std::cmp_greater_equal(w, 0) && std::cmp_less(w, count));
    if (ok_) v = static_cast<E>(w);
  }

  const char* p_;
  const char* end_;
  bool ok_ = true;
};

// Whole-file I/O for the formats decoded from one buffer. read_file
// returns false when the file cannot be opened or read; write_file
// truncates and reports whether every byte reached the stream.
bool read_file(const std::string& path, std::string& out);
bool write_file(const std::string& path, std::string_view bytes);

}  // namespace rv::util
