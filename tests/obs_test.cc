// Observability subsystem tests: TraceBuffer ring semantics, the
// thread-local sink hooks, Chrome trace export structure, and — the load-
// bearing guarantee — that per-play traces from a faulted mini-study are
// byte-identical at 1 and 8 worker threads, and that enabling tracing does
// not perturb the study results themselves.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "study/analysis.h"
#include "study/cache.h"
#include "study/study.h"
#include "telemetry/series.h"

namespace rv::obs {
namespace {

TEST(TraceBuffer, KeepsEverythingUnderCapacity) {
  TraceBuffer buf(8);
  for (int i = 0; i < 5; ++i) {
    buf.emit(i * 10, Code::kFrameDrop, static_cast<std::uint64_t>(i), 0);
  }
  EXPECT_EQ(buf.total_emitted(), 5u);
  EXPECT_EQ(buf.dropped(), 0u);
  const auto events = buf.snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].t, i * 10);
    EXPECT_EQ(events[static_cast<std::size_t>(i)].a0,
              static_cast<std::uint64_t>(i));
  }
}

TEST(TraceBuffer, WrapsKeepingMostRecent) {
  TraceBuffer buf(4);
  for (int i = 0; i < 10; ++i) {
    buf.emit(i, Code::kFrameDrop, static_cast<std::uint64_t>(i), 0);
  }
  EXPECT_EQ(buf.total_emitted(), 10u);
  EXPECT_EQ(buf.dropped(), 6u);
  const auto events = buf.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest survivor first: events 6, 7, 8, 9.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].a0, 6 + i);
  }
}

TEST(TraceBuffer, ClearRestartsWithoutRealloc) {
  TraceBuffer buf(4);
  buf.emit(1, Code::kPrerollDone, 0, 0);
  buf.clear();
  EXPECT_EQ(buf.total_emitted(), 0u);
  EXPECT_TRUE(buf.snapshot().empty());
  EXPECT_EQ(buf.capacity(), 4u);
}

TEST(TraceEventLayout, CatIsDerivedFromCode) {
  EXPECT_EQ(cat_of(Code::kRebufferStart), Cat::kClient);
  EXPECT_EQ(cat_of(Code::kSackRetransmit), Cat::kTransport);
  EXPECT_EQ(cat_of(Code::kRtspFallback), Cat::kRtsp);
  EXPECT_EQ(cat_of(Code::kFaultCorruption), Cat::kFault);
  // Every code and counter has a printable name.
  for (int c = 0; c < static_cast<int>(Code::kCodeCount); ++c) {
    EXPECT_STRNE(code_name(static_cast<Code>(c)), "unknown");
  }
  for (int c = 0; c < static_cast<int>(Counter::kCount); ++c) {
    EXPECT_STRNE(counter_name(static_cast<Counter>(c)), "unknown");
  }
}

TEST(TraceEventLayout, CodeAndCounterNamesAreUniqueAndNonEmpty) {
  std::set<std::string> code_names;
  for (int c = 0; c < static_cast<int>(Code::kCodeCount); ++c) {
    const char* name = code_name(static_cast<Code>(c));
    EXPECT_STRNE(name, "");
    code_names.insert(name);
  }
  EXPECT_EQ(code_names.size(), static_cast<std::size_t>(Code::kCodeCount));
  std::set<std::string> counter_names;
  for (int c = 0; c < static_cast<int>(Counter::kCount); ++c) {
    const char* name = counter_name(static_cast<Counter>(c));
    EXPECT_STRNE(name, "");
    counter_names.insert(name);
  }
  EXPECT_EQ(counter_names.size(), static_cast<std::size_t>(Counter::kCount));
}

// The names of one vocabulary table, in row order.
template <typename Row, std::size_t N>
std::vector<std::string> names_of(const Row (&table)[N]) {
  std::vector<std::string> out;
  for (const Row& row : table) out.push_back(row.name);
  return out;
}

// Every vocabulary table, by its C++ name.
std::map<std::string, std::vector<std::string>> vocabulary() {
  return {{"kCodeInfo", names_of(kCodeInfo)},
          {"kCounterInfo", names_of(kCounterInfo)},
          {"kSeriesColumns", names_of(telemetry::kSeriesColumns)},
          {"kMetricInfo", names_of(kMetricInfo)},
          {"kGaugeInfo", names_of(kGaugeInfo)},
          {"kHistInfo", names_of(kHistInfo)}};
}

TEST(TraceEventLayout, SeriesAndMetricNamesAreUniqueAndNonEmpty) {
  for (const auto& [table, names] : vocabulary()) {
    const std::set<std::string> unique(names.begin(), names.end());
    EXPECT_EQ(unique.size(), names.size()) << table;
    EXPECT_EQ(unique.count(""), 0u) << table;
  }
}

TEST(VocabularyDocs, ListsEveryName) {
  std::ifstream is(RV_OBSERVABILITY_DOC);
  ASSERT_TRUE(is) << RV_OBSERVABILITY_DOC;
  std::ostringstream os;
  os << is.rdbuf();
  const std::string doc = os.str();
  for (const auto& [table, names] : vocabulary()) {
    for (const std::string& name : names) {
      EXPECT_NE(doc.find("`" + name + "`"), std::string::npos)
          << table << " name " << name << " is missing from "
          << RV_OBSERVABILITY_DOC;
    }
  }
}

TEST(ParseTracePlay, AcceptsExactlyTwoNonNegativeInts) {
  const auto ok = parse_trace_play("3,7");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->first, 3);
  EXPECT_EQ(ok->second, 7);
  const auto zero = parse_trace_play("0,0");
  ASSERT_TRUE(zero.has_value());
  EXPECT_EQ(zero->first, 0);
  EXPECT_EQ(zero->second, 0);
}

TEST(ParseTracePlay, RejectsMalformedInput) {
  EXPECT_FALSE(parse_trace_play("").has_value());
  EXPECT_FALSE(parse_trace_play("5").has_value());
  EXPECT_FALSE(parse_trace_play("1,2,3").has_value());  // trailing field
  EXPECT_FALSE(parse_trace_play("1,").has_value());
  EXPECT_FALSE(parse_trace_play(",2").has_value());
  EXPECT_FALSE(parse_trace_play("-1,2").has_value());
  EXPECT_FALSE(parse_trace_play("1,-2").has_value());
  EXPECT_FALSE(parse_trace_play("a,b").has_value());
  EXPECT_FALSE(parse_trace_play("1,2x").has_value());
  EXPECT_FALSE(parse_trace_play("99999999999,1").has_value());  // > int32
}

TEST(Hooks, NoSinkInstalledIsANoOp) {
  ASSERT_EQ(current_sink(), nullptr);
  // Must not crash, must not record anywhere.
  emit(100, Code::kFrameDrop, 1, 2);
  count(Counter::kFrameDrops);
  gauge_max(Counter::kFallbackDepth, 2);
  EXPECT_EQ(current_sink(), nullptr);
}

TEST(Hooks, ScopedSinkInstallsAndRestores) {
  PlaySink outer;
  outer.reset(16);
  {
    ScopedSink scope_outer(&outer);
    EXPECT_EQ(current_sink(), &outer);
    emit(5, Code::kPrerollDone, 42, 0);
    count(Counter::kRebuffers, 3);
    gauge_max(Counter::kFallbackDepth, 1);
    gauge_max(Counter::kFallbackDepth, 2);
    gauge_max(Counter::kFallbackDepth, 1);  // gauge keeps the high-water mark
    PlaySink inner;
    inner.reset(16);
    {
      ScopedSink scope_inner(&inner);
      EXPECT_EQ(current_sink(), &inner);
      emit(9, Code::kFrameDrop, 7, 0);
    }
    EXPECT_EQ(current_sink(), &outer);
    EXPECT_EQ(inner.buffer.total_emitted(), 1u);
  }
  EXPECT_EQ(current_sink(), nullptr);
  const auto events = outer.buffer.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].t, 5);
  EXPECT_EQ(events[0].a0, 42u);
  EXPECT_EQ(outer.counters.get(Counter::kRebuffers), 3u);
  EXPECT_EQ(outer.counters.get(Counter::kFallbackDepth), 2u);
}

TEST(Counters, MergeSumsExceptGaugeWhichMaxes) {
  Counters a;
  a.add(Counter::kTcpRetransmits, 5);
  a.set_max(Counter::kFallbackDepth, 2);
  Counters b;
  b.add(Counter::kTcpRetransmits, 7);
  b.set_max(Counter::kFallbackDepth, 1);
  a.merge(b);
  EXPECT_EQ(a.get(Counter::kTcpRetransmits), 12u);
  EXPECT_EQ(a.get(Counter::kFallbackDepth), 2u);
}

TEST(ObsConfig, SelectsAppliesFilters) {
  ObsConfig cfg;
  EXPECT_FALSE(cfg.selects(0, 0));  // disabled by default
  cfg.enabled = true;
  EXPECT_TRUE(cfg.selects(3, 1));
  cfg.filter_user = 3;
  EXPECT_TRUE(cfg.selects(3, 1));
  EXPECT_FALSE(cfg.selects(4, 1));
  cfg.filter_play = 0;
  EXPECT_FALSE(cfg.selects(3, 1));
  EXPECT_TRUE(cfg.selects(3, 0));
}

TEST(ChromeTrace, StructureAndSpanPairing) {
  PlayObs obs;
  obs.enabled = true;
  TraceBuffer buf(8);
  buf.emit(1000, Code::kRebufferStart, 1, 50);
  buf.emit(3000, Code::kRebufferStop, 2000, 12);
  buf.emit(4000, Code::kTcpTimeout, 99, 250000);
  obs.events = buf.snapshot();
  obs.counters.add(Counter::kRebuffers);

  PlayTrack track;
  track.pid = 12;
  track.tid = 3;
  track.process_name = "user 12 (modem)";
  track.thread_name = "clip 45";
  track.obs = &obs;

  const std::string json = chrome_trace_json({track});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("user 12 (modem)"), std::string::npos);
  EXPECT_NE(json.find("clip 45"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("tcp_timeout"), std::string::npos);
  EXPECT_NE(json.find("play_counters"), std::string::npos);
  // Balanced span markers.
  std::size_t begins = 0;
  std::size_t ends = 0;
  for (std::size_t pos = 0;
       (pos = json.find("\"ph\":\"B\"", pos)) != std::string::npos; ++pos) {
    ++begins;
  }
  for (std::size_t pos = 0;
       (pos = json.find("\"ph\":\"E\"", pos)) != std::string::npos; ++pos) {
    ++ends;
  }
  EXPECT_EQ(begins, ends);

  // Disabled or missing obs is skipped entirely.
  PlayTrack empty = track;
  empty.obs = nullptr;
  const std::string skipped = chrome_trace_json({empty});
  EXPECT_EQ(skipped.find("\"ph\":\"B\""), std::string::npos);
}

TEST(CounterTotals, SumsMonotonicCountersButMaxesGauges) {
  std::vector<tracer::TraceRecord> records(3);
  records[0].obs.enabled = true;
  records[0].obs.counters.add(Counter::kRebuffers, 2);
  records[0].obs.counters.set_max(Counter::kFallbackDepth, 1);
  records[1].obs.enabled = true;
  records[1].obs.counters.add(Counter::kRebuffers, 3);
  records[1].obs.counters.set_max(Counter::kFallbackDepth, 2);
  // Untraced record: its (zero) counters must not contribute.
  records[2].obs.counters.add(Counter::kRebuffers, 100);
  records[2].obs.enabled = false;

  const Counters totals = study::counter_totals(records);
  EXPECT_EQ(totals.get(Counter::kRebuffers), 5u);
  // kFallbackDepth is a high-water gauge: study level takes the max across
  // plays (a depth-2 play and a depth-1 play is "worst was 2", not 3).
  EXPECT_EQ(totals.get(Counter::kFallbackDepth), 2u);
}

// --- study-level determinism ----------------------------------------------

study::StudyConfig faulted_mini_config() {
  study::StudyConfig config;
  config.play_scale = 0.02;
  config.seed = 2001;
  config.tracer.faults.enabled = true;
  config.tracer.faults.mechanistic_unavailability = true;
  config.tracer.faults.overload_probability = 0.05;
  config.tracer.faults.link_down_probability = 0.05;
  config.tracer.faults.corruption_probability = 0.05;
  return config;
}

bool same_events(const std::vector<TraceEvent>& a,
                 const std::vector<TraceEvent>& b) {
  if (a.size() != b.size()) return false;
  if (a.empty()) return true;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(TraceEvent)) == 0;
}

TEST(ObsStudy, TraceMergeByteIdenticalAcrossThreadCounts) {
  auto config = faulted_mini_config();
  config.tracer.obs.enabled = true;
  config.threads = 1;
  const auto single = study::run_study(config);
  config.threads = 8;
  const auto pooled = study::run_study(config);

  ASSERT_EQ(single.records.size(), pooled.records.size());
  std::size_t traced = 0;
  std::uint64_t total_events = 0;
  for (std::size_t i = 0; i < single.records.size(); ++i) {
    const auto& a = single.records[i].obs;
    const auto& b = pooled.records[i].obs;
    ASSERT_EQ(a.enabled, b.enabled) << "record " << i;
    if (!a.enabled) continue;
    ++traced;
    total_events += a.events.size();
    EXPECT_TRUE(same_events(a.events, b.events)) << "record " << i;
    EXPECT_EQ(a.events_dropped, b.events_dropped) << "record " << i;
    EXPECT_EQ(a.counters.v, b.counters.v) << "record " << i;
  }
  // Unavailable plays (the Fig 10 case) never simulate and so carry no
  // trace; every simulated play must.
  EXPECT_GT(traced, single.records.size() / 2);
  EXPECT_GT(total_events, 0u);

  // Study-level totals agree too, and saw real traffic.
  const auto totals_a = study::counter_totals(single.records);
  const auto totals_b = study::counter_totals(pooled.records);
  EXPECT_EQ(totals_a.v, totals_b.v);
  EXPECT_GT(totals_a.get(Counter::kPacketsEnqueued), 0u);
  EXPECT_GT(totals_a.get(Counter::kSimEvents), 0u);
}

TEST(ObsStudy, TracingDoesNotPerturbResults) {
  // The serialized study (which never includes obs data) must be
  // byte-identical with tracing off and on — observation cannot change the
  // observed.
  const auto serialize = [](const study::StudyConfig& config,
                            const study::StudyResult& result) {
    const std::string path = ::testing::TempDir() + "/rv_obs_perturb.bin";
    EXPECT_TRUE(study::save_result(path, config, result));
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    std::remove(path.c_str());
    return os.str();
  };

  auto config = faulted_mini_config();
  config.threads = 2;
  config.tracer.obs.enabled = false;
  const auto off = study::run_study(config);
  auto on_config = config;
  on_config.tracer.obs.enabled = true;
  on_config.tracer.obs.ring_capacity = 64;  // force ring wrap on some plays
  const auto on = study::run_study(on_config);

  // Same fingerprint: obs config must not leak into the cache key.
  EXPECT_EQ(study::config_fingerprint(config),
            study::config_fingerprint(on_config));
  EXPECT_EQ(serialize(config, off), serialize(config, on));
}

}  // namespace
}  // namespace rv::obs
