// Self-tests for the benchmark's own arithmetic: quantiles, the tail
// percentile rule, span self time and the metric-name grammar. Expected
// values for the quantiles come from Python's statistics.quantiles.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "spans.h"

namespace perfbench {
namespace {

int g_failures = 0;

void expect_near(const std::string& what, double got, double want) {
  if (std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want))) return;
  ++g_failures;
  std::cerr << "selftest FAIL " << what << ": got " << got << ", want " << want
            << "\n";
}

void expect_true(const std::string& what, bool ok) {
  if (ok) return;
  ++g_failures;
  std::cerr << "selftest FAIL " << what << "\n";
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void test_quartiles() {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  const auto q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  expect_near("quartile 1 of 1..10", q[0], 2.75);
  expect_near("median of 1..10", q[1], 5.5);
  expect_near("quartile 3 of 1..10", q[2], 8.25);
  // statistics.quantiles([3.5, 1.25, 9.0], n=4) == [1.25, 3.5, 9.0]
  const auto small = quartiles({3.5, 1.25, 9.0});
  expect_near("quartile 1 of three", small[0], 1.25);
  expect_near("quartile 3 of three", small[2], 9.0);
  const auto same = quartiles({7, 7});
  expect_near("quartiles of a constant", same[0] + same[1] + same[2], 21.0);
  expect_near("median of one value", median({4.5}), 4.5);
}

void test_tail_percentile() {
  // 1..1000: p99 (990.99) has ten samples above it.
  const TailPercentile big = tail_percentile(one_to(1000));
  expect_near("tail percentile of 1..1000", big.percentile, 99.0);
  expect_near("p99 of 1..1000", big.value, 990.99);
  expect_true("ten beyond p99 of 1..1000", big.beyond == 10);
  expect_true("sample count stated", big.samples == 1000);
  // 1..20000: p99.9 would have 20 samples above it, but the ladder stops at
  // p99, so the metric means the same at any throughput.
  const TailPercentile huge = tail_percentile(one_to(20000));
  expect_near("tail percentile of 1..20000", huge.percentile, 99.0);
  expect_near("p99 of 1..20000", huge.value, 19800.99);
  expect_true("200 beyond p99 of 1..20000", huge.beyond == 200);
  // 1..200: p99 has 2 above, p98 has 4, p95 (190.95) has 10.
  const TailPercentile mid = tail_percentile(one_to(200));
  expect_near("tail percentile of 1..200", mid.percentile, 95.0);
  expect_near("p95 of 1..200", mid.value, 190.95);
  // Too few samples for any ladder percentile: the maximum, reported as 100.
  const TailPercentile tiny = tail_percentile(one_to(8));
  expect_near("tail of eight samples", tiny.percentile, 100.0);
  expect_near("max of eight samples", tiny.value, 8.0);
  expect_true("no samples beyond the max", tiny.beyond == 0);
}

Span make_span(std::uint64_t id, std::uint64_t parent, std::uint32_t lane,
               double start, double end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.lane = lane;
  s.name = "x";
  s.start = start;
  s.end = end;
  return s;
}

void test_self_time() {
  // Parent [0, 10] with overlapping children [1, 3] and [2, 5] on its own
  // lane and [8, 12] on another lane (clipped to [8, 10]): children cover
  // 4 + 2 seconds, so the parent's self time is 4.
  const std::vector<Span> spans = {
      make_span(1, 0, 0, 0, 10), make_span(2, 1, 0, 1, 3),
      make_span(3, 1, 0, 2, 5),  make_span(4, 1, 1, 8, 12),
      make_span(5, 2, 0, 1.5, 2)};
  const std::vector<double> self = self_times(spans);
  expect_near("parent self time", self[0], 4.0);
  expect_near("child with a grandchild", self[1], 1.5);
  expect_near("leaf self time", self[2], 3.0);
  expect_near("cross-lane leaf", self[3], 4.0);
  expect_near("grandchild self time", self[4], 0.5);
  // Without overlapping siblings, the self times of a tree sum to the
  // root's duration.
  const std::vector<double> nested = self_times(
      {make_span(1, 0, 0, 0, 10), make_span(2, 1, 0, 2, 6),
       make_span(3, 2, 0, 3, 4)});
  expect_near("nested self times sum to the root",
              nested[0] + nested[1] + nested[2], 10.0);
  expect_near("nested root self time", nested[0], 6.0);

  SpanRecorder rec(true, 2);
  const std::uint64_t root = rec.begin(0, "root");
  const std::uint64_t kid = rec.begin(1, "kid", root, 7);
  rec.end(kid);
  rec.end(root);
  const std::vector<Span> recorded = rec.spans();
  expect_true("recorder keeps both spans", recorded.size() == 2);
  expect_true("recorder links the parent",
              recorded.size() == 2 && recorded[1].parent == recorded[0].id &&
                  recorded[1].group == 7 && recorded[1].lane == 1);
  SpanRecorder off(false, 1);
  expect_true("disabled recorder returns no id", off.begin(0, "x") == 0);
}

void test_metric_names() {
  for (const char* ok : {"setup_s", "op_ms_p99", "tracer.run_play_ms.t1.tcp",
                         "1x", "a-b.c_d"}) {
    expect_true(std::string("valid name ") + ok, valid_metric_name(ok));
  }
  for (const char* bad : {"", "_lead", ".lead", "has space", "per/s", "ü",
                          "quote\"d"}) {
    expect_true(std::string("invalid name '") + bad + "'",
                !valid_metric_name(bad));
  }
  expect_true("64 characters allowed", valid_metric_name(std::string(64, 'a')));
  expect_true("65 characters refused", !valid_metric_name(std::string(65, 'a')));
}

}  // namespace

int run_selftest() {
  test_quartiles();
  test_tail_percentile();
  test_self_time();
  test_metric_names();
  std::cout << "perfbench selftest: " << (g_failures == 0 ? "ok" : "FAILED")
            << " (" << g_failures << " failures)\n";
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
