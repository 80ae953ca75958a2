// Order statistics the benchmark reports: Python-compatible quantiles, the
// tail-percentile rule, and the metric-name grammar.
#pragma once

#include <array>
#include <cstddef>
#include <string_view>
#include <vector>

namespace perfbench {

// The i-th of the n-1 cut points dividing `values` into n groups, by the
// "exclusive" method of Python's statistics.quantiles (its default), so
// figures here and in spread.py agree. Requires at least two values.
double quantile_exclusive(std::vector<double> values, int i, int n);

// statistics.quantiles(values, n=4): first quartile, median, third quartile.
// A single value yields that value three times.
std::array<double, 3> quartiles(const std::vector<double>& values);

double median(const std::vector<double>& values);

// The highest percentile from a fixed ladder (99, 98, 95, 90, 75, 50) that
// still has at least ten samples strictly above it. The ladder tops out at
// p99, so with 1100 or more samples the result is always the p99, whatever
// the count; the lower rungs serve only smaller sample sets. `beyond` is
// that count and `samples` the total, so a report can state both. With
// fewer than eleven samples no percentile qualifies: percentile is 100 and
// value the maximum.
struct TailPercentile {
  double percentile = 100.0;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
TailPercentile tail_percentile(const std::vector<double>& values);

// Metric names: one or more of [A-Za-z0-9_.-], starting with a letter or a
// digit, at most 64 characters.
bool valid_metric_name(std::string_view name);

}  // namespace perfbench
