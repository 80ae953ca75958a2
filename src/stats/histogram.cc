#include "stats/histogram.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace rv::stats {

MergeableHistogram::MergeableHistogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  RV_CHECK_LT(lo, hi);
  RV_CHECK_GT(bins, 0u);
}

void MergeableHistogram::add(double x, std::uint64_t weight) {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto bin = static_cast<std::ptrdiff_t>((x - lo_) / width);
  bin = std::clamp<std::ptrdiff_t>(
      bin, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  counts_[static_cast<std::size_t>(bin)] += weight;
  total_ += weight;
}

void MergeableHistogram::add_bin(std::size_t bin, std::uint64_t weight) {
  RV_CHECK_LT(bin, counts_.size());
  counts_[bin] += weight;
  total_ += weight;
}

void MergeableHistogram::merge(const MergeableHistogram& other) {
  RV_CHECK(same_geometry(other))
      << "merging histograms with different geometry: [" << lo_ << ", " << hi_
      << ")x" << counts_.size() << " vs [" << other.lo_ << ", " << other.hi_
      << ")x" << other.counts_.size();
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  total_ += other.total_;
}

std::uint64_t MergeableHistogram::bin_count(std::size_t bin) const {
  RV_CHECK_LT(bin, counts_.size());
  return counts_[bin];
}

double MergeableHistogram::quantile(double q) const {
  if (total_ == 0) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total_);
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto c = static_cast<double>(counts_[i]);
    if (cum + c >= target && c > 0.0) {
      const double frac = (target - cum) / c;
      return lo_ + width * (static_cast<double>(i) + frac);
    }
    cum += c;
  }
  return hi_;
}

void CountTable::add(const std::string& label, std::size_t n) {
  counts_[label] += n;
}

std::size_t CountTable::count(const std::string& label) const {
  const auto it = counts_.find(label);
  return it == counts_.end() ? 0 : it->second;
}

std::size_t CountTable::total() const {
  std::size_t t = 0;
  for (const auto& [_, n] : counts_) t += n;
  return t;
}

std::vector<std::pair<std::string, std::size_t>> CountTable::sorted_by_count()
    const {
  std::vector<std::pair<std::string, std::size_t>> out(counts_.begin(),
                                                       counts_.end());
  std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second < b.second;
  });
  return out;
}

std::vector<std::pair<std::string, std::size_t>> CountTable::entries() const {
  return {counts_.begin(), counts_.end()};
}

}  // namespace rv::stats
