#include "bench_stats.h"

#include <algorithm>
#include <cctype>

#include "util/check.h"

namespace perfbench {

double quantile_exclusive(std::vector<double> values, int i, int n) {
  RV_CHECK_GE(values.size(), 2u) << "quantiles need at least two values";
  RV_CHECK(n >= 2 && i >= 1 && i < n) << "cut point " << i << " of " << n;
  std::sort(values.begin(), values.end());
  const long long ld = static_cast<long long>(values.size());
  const long long m = ld + 1;
  long long j = static_cast<long long>(i) * m / n;
  j = std::clamp(j, 1LL, ld - 1);
  const long long delta = static_cast<long long>(i) * m - j * n;
  return (values[static_cast<std::size_t>(j - 1)] *
              static_cast<double>(n - delta) +
          values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
         n;
}

std::array<double, 3> quartiles(const std::vector<double>& values) {
  RV_CHECK(!values.empty()) << "quartiles of no values";
  if (values.size() == 1) return {values[0], values[0], values[0]};
  return {quantile_exclusive(values, 1, 4), quantile_exclusive(values, 2, 4),
          quantile_exclusive(values, 3, 4)};
}

double median(const std::vector<double>& values) { return quartiles(values)[1]; }

TailPercentile tail_percentile(const std::vector<double>& values) {
  TailPercentile out;
  out.samples = values.size();
  if (values.empty()) return out;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  out.value = sorted.back();
  // Ladder entries as (i, n) cut points so each is an exact exclusive
  // quantile: 99 = 99/100, 98 = 49/50, ...
  static constexpr std::array<std::array<int, 2>, 6> kLadder = {{
      {99, 100}, {49, 50}, {19, 20}, {9, 10}, {3, 4}, {1, 2}}};
  if (sorted.size() < 2) return out;
  for (const auto& [i, n] : kLadder) {
    const double v = quantile_exclusive(sorted, i, n);
    const auto above = static_cast<std::size_t>(
        sorted.end() - std::upper_bound(sorted.begin(), sorted.end(), v));
    if (above >= 10) {
      out.percentile = 100.0 * i / n;
      out.value = v;
      out.beyond = above;
      return out;
    }
  }
  return out;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name.front()))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

}  // namespace perfbench
