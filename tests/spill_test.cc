#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "study/spill.h"
#include "synthetic_records.h"
#include "tracer/record.h"
#include "util/rng.h"

namespace rv::study {
namespace {

void expect_same_record(const tracer::TraceRecord& a,
                        const tracer::TraceRecord& b, std::size_t i) {
  SCOPED_TRACE("record " + std::to_string(i));
  EXPECT_EQ(a.user_id, b.user_id);
  EXPECT_EQ(a.country, b.country);
  EXPECT_EQ(a.us_state, b.us_state);
  EXPECT_EQ(a.user_group, b.user_group);
  EXPECT_EQ(a.connection, b.connection);
  EXPECT_EQ(a.pc_class, b.pc_class);
  EXPECT_EQ(a.rtsp_blocked_user, b.rtsp_blocked_user);
  EXPECT_EQ(a.clip_id, b.clip_id);
  EXPECT_EQ(a.site, b.site);
  EXPECT_EQ(a.server_name, b.server_name);
  EXPECT_EQ(a.server_country, b.server_country);
  EXPECT_EQ(a.server_group, b.server_group);
  EXPECT_EQ(a.available, b.available);
  EXPECT_EQ(a.rating, b.rating);  // doubles round-trip bit-exactly
  EXPECT_EQ(a.stats.session_established, b.stats.session_established);
  EXPECT_EQ(a.stats.played_any_frame, b.stats.played_any_frame);
  EXPECT_EQ(a.stats.protocol, b.stats.protocol);
  EXPECT_EQ(a.stats.fell_back_to_tcp, b.stats.fell_back_to_tcp);
  EXPECT_EQ(a.stats.fell_back_to_http, b.stats.fell_back_to_http);
  EXPECT_EQ(a.stats.rtsp_retries, b.stats.rtsp_retries);
  EXPECT_EQ(a.stats.encoded_bandwidth, b.stats.encoded_bandwidth);
  EXPECT_EQ(a.stats.encoded_fps, b.stats.encoded_fps);
  EXPECT_EQ(a.stats.measured_bandwidth, b.stats.measured_bandwidth);
  EXPECT_EQ(a.stats.measured_fps, b.stats.measured_fps);
  EXPECT_EQ(a.stats.jitter_ms, b.stats.jitter_ms);
  EXPECT_EQ(a.stats.frames_played, b.stats.frames_played);
  EXPECT_EQ(a.stats.frames_dropped, b.stats.frames_dropped);
  EXPECT_EQ(a.stats.frames_cpu_scaled, b.stats.frames_cpu_scaled);
  EXPECT_EQ(a.stats.rebuffer_events, b.stats.rebuffer_events);
  EXPECT_EQ(a.stats.rebuffer_seconds, b.stats.rebuffer_seconds);
  EXPECT_EQ(a.stats.preroll_seconds, b.stats.preroll_seconds);
  EXPECT_EQ(a.stats.play_seconds, b.stats.play_seconds);
  EXPECT_EQ(a.stats.cpu_utilization, b.stats.cpu_utilization);
  EXPECT_EQ(a.stats.bytes_received, b.stats.bytes_received);
  EXPECT_EQ(a.stats.packets_received, b.stats.packets_received);
  EXPECT_EQ(a.stats.repairs_received, b.stats.repairs_received);
  ASSERT_EQ(a.stats.samples.size(), b.stats.samples.size());
  for (std::size_t s = 0; s < a.stats.samples.size(); ++s) {
    EXPECT_EQ(a.stats.samples[s].t_seconds, b.stats.samples[s].t_seconds);
    EXPECT_EQ(a.stats.samples[s].bandwidth, b.stats.samples[s].bandwidth);
    EXPECT_EQ(a.stats.samples[s].frame_rate, b.stats.samples[s].frame_rate);
  }
}

TEST(Spill, RoundTripsEveryColumnAcrossFrames) {
  // > kSpillFrameRecords so the file has multiple frames.
  const std::size_t n = kSpillFrameRecords + 500;
  const auto recs = make_records(n, 99);
  const std::string path = temp_path("roundtrip.spill");
  {
    SpillWriter writer(path);
    ASSERT_TRUE(writer.ok());
    for (const auto& rec : recs) writer.append(rec);
    ASSERT_TRUE(writer.finish());
    EXPECT_EQ(writer.records(), n);
  }

  SpillReader reader;
  ASSERT_TRUE(reader.open(path)) << reader.error();
  EXPECT_EQ(reader.records(), n);
  EXPECT_EQ(reader.frames(), 2u);
  EXPECT_EQ(reader.frame_first_record(0), 0u);
  EXPECT_EQ(reader.frame_first_record(1), kSpillFrameRecords);

  std::size_t i = 0;
  for (std::size_t f = 0; f < reader.frames(); ++f) {
    std::vector<tracer::TraceRecord> frame;
    ASSERT_TRUE(reader.read_frame(f, frame));
    for (const auto& got : frame) {
      expect_same_record(got, recs[i], i);
      ++i;
    }
  }
  EXPECT_EQ(i, n);
}

TEST(Spill, RandomAccessSeeksAcrossFrameBoundaries) {
  const std::size_t n = kSpillFrameRecords + 100;
  const auto recs = make_records(n, 7);
  const std::string path = temp_path("seek.spill");
  SpillWriter writer(path);
  for (const auto& rec : recs) writer.append(rec);
  ASSERT_TRUE(writer.finish());

  SpillReader reader;
  ASSERT_TRUE(reader.open(path)) << reader.error();
  const std::uint64_t probes[] = {0, 1, kSpillFrameRecords - 1,
                                  kSpillFrameRecords, n - 1};
  for (const std::uint64_t k : probes) {
    tracer::TraceRecord rec;
    ASSERT_TRUE(reader.read_record(k, rec)) << "record " << k;
    expect_same_record(rec, recs[k], k);
  }
  tracer::TraceRecord rec;
  EXPECT_FALSE(reader.read_record(n, rec));  // out of range
}

TEST(Spill, RejectsGarbageAndTruncation) {
  SpillReader reader;
  EXPECT_FALSE(reader.open(temp_path("nonexistent.spill")));
  EXPECT_FALSE(reader.error().empty());

  const std::string garbage = temp_path("garbage.spill");
  {
    std::ofstream os(garbage, std::ios::binary);
    os << "this is definitely not a spill file, padded to a real length";
  }
  SpillReader bad_magic;
  EXPECT_FALSE(bad_magic.open(garbage));
  EXPECT_FALSE(bad_magic.ok());

  // A valid file cut short anywhere in the footer/trailer must be refused.
  const std::string good = temp_path("tobetruncated.spill");
  {
    SpillWriter writer(good);
    for (const auto& rec : make_records(64, 3)) writer.append(rec);
    ASSERT_TRUE(writer.finish());
  }
  const std::string bytes = read_file(good);
  ASSERT_GT(bytes.size(), 30u);
  for (const std::size_t keep :
       {bytes.size() - 1, bytes.size() - 12, bytes.size() / 2}) {
    const std::string cut = temp_path("truncated.spill");
    {
      std::ofstream os(cut, std::ios::binary);
      os.write(bytes.data(), static_cast<std::streamsize>(keep));
    }
    SpillReader truncated;
    EXPECT_FALSE(truncated.open(cut)) << "kept " << keep << " bytes";
  }
}

TEST(Spill, RecordCountBeyondTheFrameIsRejectedNotAllocated) {
  const std::string path = temp_path("hugecount.spill");
  {
    SpillWriter writer(path);
    for (const auto& rec : make_records(64, 3)) writer.append(rec);
    ASSERT_TRUE(writer.finish());
  }
  // The one frame's header (after the 8-byte file header) and its index
  // entry (the last field before the 12-byte trailer) both claim
  // 0xFFFFFFFF records.
  std::string bytes = read_file(path);
  const std::string all_ones(4, '\xFF');
  bytes.replace(8, 4, all_ones);
  bytes.replace(bytes.size() - 12 - 4, 4, all_ones);
  util::write_file(path, bytes);

  SpillReader reader;
  std::vector<tracer::TraceRecord> frame;
  bool decoded = true;
  EXPECT_NO_THROW(decoded = reader.open(path) && reader.read_frame(0, frame));
  EXPECT_FALSE(decoded);
}

TEST(Spill, ConcatReproducesSingleWriterBytes) {
  // The shard-merge property: concatenating per-shard spills byte-matches
  // one writer fed the whole sequence, even though each shard built its own
  // (differently ordered) string table.
  const auto recs = make_records(900, 21);
  const std::string whole = temp_path("whole.spill");
  {
    SpillWriter writer(whole);
    for (const auto& rec : recs) writer.append(rec);
    ASSERT_TRUE(writer.finish());
  }

  std::vector<std::string> parts;
  const std::size_t cuts[] = {0, 250, 251, 900};
  for (std::size_t p = 0; p + 1 < 4; ++p) {
    const std::string part = temp_path("part" + std::to_string(p) + ".spill");
    SpillWriter writer(part);
    for (std::size_t i = cuts[p]; i < cuts[p + 1]; ++i) {
      writer.append(recs[i]);
    }
    ASSERT_TRUE(writer.finish());
    parts.push_back(part);
  }

  const std::string merged = temp_path("merged.spill");
  std::string error;
  ASSERT_TRUE(concat_spills(parts, merged, &error)) << error;
  EXPECT_EQ(read_file(merged), read_file(whole));
}

TEST(Spill, ObsAndTelemetryPayloadsAreNotSpilled) {
  util::Rng rng(5);
  tracer::TraceRecord rec = make_record(12, rng);
  rec.obs.enabled = true;
  rec.series.enabled = true;
  const std::string path = temp_path("noobs.spill");
  {
    SpillWriter writer(path);
    writer.append(rec);
    ASSERT_TRUE(writer.finish());
  }
  SpillReader reader;
  ASSERT_TRUE(reader.open(path)) << reader.error();
  tracer::TraceRecord got;
  ASSERT_TRUE(reader.read_record(0, got));
  EXPECT_FALSE(got.obs.enabled);
  EXPECT_FALSE(got.series.enabled);
  EXPECT_TRUE(got.obs.events.empty());
  expect_same_record(got, rec, 12);
}

}  // namespace
}  // namespace rv::study
