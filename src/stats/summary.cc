#include "stats/summary.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace rv::stats {

void Summary::add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void Summary::add_all(std::span<const double> xs) {
  for (double x : xs) add(x);
}

double Summary::mean() const {
  RV_CHECK_GT(count_, 0u);
  return mean_;
}

double Summary::variance() const {
  RV_CHECK_GT(count_, 0u);
  return m2_ / static_cast<double>(count_);
}

double Summary::stddev() const { return std::sqrt(variance()); }

double Summary::sample_variance() const {
  RV_CHECK_GT(count_, 1u);
  return m2_ / static_cast<double>(count_ - 1);
}

double Summary::min() const {
  RV_CHECK_GT(count_, 0u);
  return min_;
}

double Summary::max() const {
  RV_CHECK_GT(count_, 0u);
  return max_;
}

double quantile(std::span<const double> xs, double q) {
  RV_CHECK(!xs.empty());
  RV_CHECK_GE(q, 0.0);
  RV_CHECK_LE(q, 1.0);
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double mean_of(std::span<const double> xs) {
  Summary s;
  s.add_all(xs);
  return s.mean();
}

double fraction_below(std::span<const double> xs, double threshold) {
  RV_CHECK(!xs.empty());
  std::size_t n = 0;
  for (double x : xs) {
    if (x < threshold) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(xs.size());
}

double fraction_at_or_above(std::span<const double> xs, double threshold) {
  return 1.0 - fraction_below(xs, threshold);
}

}  // namespace rv::stats
