// Pooled interned strings for high-volume records.
//
// A campaign-scale study holds millions of TraceRecords whose five string
// fields draw from a vocabulary of a few dozen values (country names, PC
// classes, server names). Storing each as std::string costs ~160 bytes per
// record and a heap allocation per field; a Symbol is a 4-byte id into a
// global append-only pool, so records shrink and copies are trivial.
//
// The pool is process-global and append-only: interning the same text always
// yields the same id (equality is id equality), ids are dense from 0, and a
// pooled string's address never changes once published. Interning is
// thread-safe (shared-lock fast path for hits); lookup by id is lock-free.
// Id 0 is always the empty string, so a default Symbol behaves like a
// default std::string.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace rv::util {

class Symbol {
 public:
  // Default = the empty string (id 0).
  constexpr Symbol() = default;
  // Interning constructors are implicit on purpose: record fields assign
  // from std::string profile fields, and comparisons against string
  // literals intern the literal (canonical ids make that an id compare).
  Symbol(std::string_view s);                            // NOLINT
  Symbol(const std::string& s) : Symbol(std::string_view(s)) {}  // NOLINT
  Symbol(const char* s) : Symbol(std::string_view(s)) {}         // NOLINT

  // The pooled string. Valid for the life of the process.
  const std::string& str() const;
  // Implicit view so Symbols drop into std::string-shaped APIs (map keys,
  // CSV cells, codec strings) without call-site churn.
  operator const std::string&() const { return str(); }  // NOLINT

  std::uint32_t id() const { return id_; }
  bool empty() const { return id_ == 0; }
  std::size_t size() const { return str().size(); }

  // Interning is canonical, so equality is id equality.
  friend bool operator==(Symbol a, Symbol b) { return a.id_ == b.id_; }
  friend bool operator!=(Symbol a, Symbol b) { return a.id_ != b.id_; }
  // Lexicographic, for ordered map keys.
  friend bool operator<(Symbol a, Symbol b) { return a.str() < b.str(); }

  // Rebuilds a Symbol from a pooled id (spill readers). Checks the id is
  // live in this process's pool.
  static Symbol from_id(std::uint32_t id);
  // Number of distinct strings interned so far (== smallest unused id).
  static std::uint32_t pool_size();

 private:
  std::uint32_t id_ = 0;
};

std::ostream& operator<<(std::ostream& os, Symbol s);

}  // namespace rv::util
