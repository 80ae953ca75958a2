// Streaming summary statistics (count/mean/variance/min/max) and quantiles.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace rv::stats {

// Welford-style online accumulator for mean and variance.
class Summary {
 public:
  void add(double x);
  void add_all(std::span<const double> xs);

  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double mean() const;
  // Population variance/stddev (divide by n); the paper's jitter metric is the
  // standard deviation over all inter-frame gaps of a clip, not a sample
  // estimate, so population form is the right default.
  double variance() const;
  double stddev() const;
  // Sample (n-1) variance.
  double sample_variance() const;
  double min() const;
  double max() const;
  double sum() const { return count_ == 0 ? 0.0 : mean_ * count_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Quantile of a dataset using linear interpolation between order statistics
// (type-7, the numpy/R default). `q` in [0, 1]. Data need not be sorted.
double quantile(std::span<const double> xs, double q);

double mean_of(std::span<const double> xs);

// Fraction of values strictly below `threshold`.
double fraction_below(std::span<const double> xs, double threshold);
// Fraction of values at or above `threshold`.
double fraction_at_or_above(std::span<const double> xs, double threshold);

}  // namespace rv::stats
