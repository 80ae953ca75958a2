// Deterministic random number generation.
//
// The whole study must be bit-reproducible from a single seed, so every
// stochastic component draws from an rv::util::Rng that was derived (via
// Rng::fork) from its parent's stream. xoshiro256** is used for speed and
// quality; seeding goes through SplitMix64 as its authors recommend.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "util/check.h"

namespace rv::util {

// xoshiro256** PRNG with convenience distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) { reseed(seed); }

  void reseed(std::uint64_t seed);

  // Next raw 64-bit value. The hot draws are inline: background load makes
  // one per packet.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform double in [0, 1).
  double uniform() {
    // 53 random mantissa bits — uniform in [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }
  // Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    RV_CHECK_LE(lo, hi);
    return lo + (hi - lo) * uniform();
  }
  // Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  // Standard normal via Box–Muller (cached second value).
  double normal();
  double normal(double mean, double stddev) { return mean + stddev * normal(); }
  // Lognormal with the given mean/stddev of the *underlying* normal.
  double lognormal(double mu, double sigma);
  // Exponential with the given mean (= 1/lambda).
  double exponential(double mean);
  bool bernoulli(double p) { return uniform() < p; }

  // Index drawn proportionally to non-negative weights (at least one > 0).
  std::size_t weighted_index(std::span<const double> weights);

  // Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  // A new, statistically independent generator derived from this stream and a
  // label; forking with distinct labels yields distinct deterministic streams.
  Rng fork(std::uint64_t label);
  Rng fork(std::string_view label);

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

// Stable 64-bit FNV-1a hash of a string (for labelled forks / clip seeds).
std::uint64_t stable_hash(std::string_view s);

}  // namespace rv::util
