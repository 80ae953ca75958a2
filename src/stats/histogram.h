// Fixed-bin histograms and labelled count tables (for the paper's bar charts).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rv::stats {

// Mergeable fixed-bin histogram sketch for study-level telemetry rollups.
//
// It carries u64 weights and supports exact merging: two sketches with
// identical geometry combine bin-by-bin, so per-play sketches built on any
// worker in any order reduce to the same study-level sketch (merge is
// commutative and associative, bin-exact — proven in stats_test). Values
// outside [lo, hi) clamp into the edge bins.
class MergeableHistogram {
 public:
  MergeableHistogram(double lo, double hi, std::size_t bins);

  void add(double x, std::uint64_t weight = 1);
  // Adds `weight` directly to `bin` (bounds-checked) — the deserialization
  // path for shard-rollup files, which carry bin indices, not sample values.
  void add_bin(std::size_t bin, std::uint64_t weight);
  // Requires identical geometry (checked).
  void merge(const MergeableHistogram& other);

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  std::size_t bins() const { return counts_.size(); }
  std::uint64_t bin_count(std::size_t bin) const;
  std::uint64_t total() const { return total_; }
  bool same_geometry(const MergeableHistogram& other) const {
    return lo_ == other.lo_ && hi_ == other.hi_ &&
           counts_.size() == other.counts_.size();
  }
  bool operator==(const MergeableHistogram& other) const {
    return same_geometry(other) && counts_ == other.counts_;
  }

  // Quantile estimate (q in [0,1]) by linear interpolation within the
  // containing bin; NaN when empty.
  double quantile(double q) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

// Ordered label → count map (bar charts like Figs 7–10).
class CountTable {
 public:
  void add(const std::string& label, std::size_t n = 1);
  std::size_t count(const std::string& label) const;
  std::size_t total() const;
  // Entries sorted by ascending count (the paper's bar charts are sorted).
  std::vector<std::pair<std::string, std::size_t>> sorted_by_count() const;
  std::vector<std::pair<std::string, std::size_t>> entries() const;
  bool empty() const { return counts_.empty(); }

 private:
  std::map<std::string, std::size_t> counts_;
};

}  // namespace rv::stats
