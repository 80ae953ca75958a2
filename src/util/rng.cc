#include "util/rng.h"

#include <cmath>

namespace rv::util {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : state_) s = splitmix64(sm);
  has_cached_normal_ = false;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  RV_CHECK_LE(lo, hi);
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - ~std::uint64_t{0} % range;
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return lo + static_cast<std::int64_t>(v % range);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller; u1 in (0,1] so log() is finite.
  double u1 = 1.0 - uniform();
  double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

double Rng::exponential(double mean) {
  RV_CHECK_GT(mean, 0.0);
  return -mean * std::log(1.0 - uniform());
}

std::size_t Rng::weighted_index(std::span<const double> weights) {
  RV_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    RV_CHECK_GE(w, 0.0);
    total += w;
  }
  RV_CHECK_GT(total, 0.0);
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // numeric edge: land on the last bucket
}

Rng Rng::fork(std::uint64_t label) {
  // Mix the current stream with the label through SplitMix64.
  std::uint64_t mixed = next_u64() ^ (label * 0x9E3779B97F4A7C15ULL + 1);
  return Rng(splitmix64(mixed));
}

Rng Rng::fork(std::string_view label) { return fork(stable_hash(label)); }

std::uint64_t stable_hash(std::string_view s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace rv::util
