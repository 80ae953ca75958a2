// Seeded mutation testing shared by the byte-format and text-protocol
// parsers: corrupt a valid encoding many ways and require every mutant to
// be rejected, or decoded and re-encoded stably.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>

#include "util/rng.h"

namespace rv::mutation {

// Seeded corruption of a valid encoding: bit flips, byte overwrites (random
// or all-ones, i.e. a count or length at its maximum), truncations and
// splices of one range of the input over or into another.
inline std::string mutate(const std::string& in, util::Rng& rng) {
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  std::string m = in;
  switch (rng.uniform_int(0, 3)) {
    case 0:
      for (auto n = rng.uniform_int(1, 4); n > 0; --n) {
        m[pick(m.size())] ^= static_cast<char>(1 << rng.uniform_int(0, 7));
      }
      break;
    case 1: {
      const std::size_t at = pick(m.size());
      const bool ones = rng.bernoulli(0.5);
      for (std::size_t i = at; i < std::min(m.size(), at + 8); ++i) {
        m[i] = ones ? '\xFF' : static_cast<char>(rng.uniform_int(0, 255));
      }
      break;
    }
    case 2:
      m.resize(pick(m.size()));
      break;
    default: {
      const std::size_t from = pick(in.size());
      const std::string piece =
          in.substr(from, static_cast<std::size_t>(rng.uniform_int(1, 64)));
      const std::size_t to = pick(m.size());
      if (rng.bernoulli(0.5)) {
        m.replace(to, piece.size(), piece);
      } else {
        m.insert(to, piece);
      }
    }
  }
  return m;
}

// Every mutant must be rejected, or decode without an exception and
// re-encode to bytes that decode again to the same value. `round_trip`
// returns whether the mutant decoded. Both outcomes must occur, so the test
// exercises the decoder past its first check.
struct Outcomes {
  int rejected = 0;
  int decoded = 0;
};

template <class RoundTrip>
Outcomes run_mutants(const std::string& valid, int iterations,
                     std::uint64_t seed, RoundTrip round_trip) {
  util::Rng rng(seed);
  Outcomes outcomes;
  for (int i = 0; i < iterations; ++i) {
    SCOPED_TRACE("mutant " + std::to_string(i));
    bool decoded = false;
    EXPECT_NO_THROW(decoded = round_trip(mutate(valid, rng)));
    ++(decoded ? outcomes.decoded : outcomes.rejected);
  }
  EXPECT_GT(outcomes.rejected, 0);
  EXPECT_GT(outcomes.decoded, 0);
  return outcomes;
}

// Round trip for text messages: `parse` returns an optional value with a
// serialize() method. A mutant that parses must re-serialise to text that
// parses back to the same value (`same`), and that text must be a fixed
// point of parse + serialize. Returns whether the mutant parsed.
template <class Parse, class Same>
bool parses_and_round_trips(const std::string& mutant, Parse parse,
                            Same same) {
  const auto parsed = parse(mutant);
  if (!parsed) return false;
  const std::string encoded = parsed->serialize();
  const auto back = parse(encoded);
  EXPECT_TRUE(back.has_value()) << encoded;
  if (back) {
    EXPECT_TRUE(same(*parsed, *back)) << encoded;
    EXPECT_EQ(back->serialize(), encoded);
  }
  return true;
}

}  // namespace rv::mutation
