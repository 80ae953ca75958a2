// The three on-disk formats — study cache (RVST), campaign rollup (RVRU) and
// record spill (RVSP) — pinned byte for byte on fixed synthetic inputs, and
// their decoders driven with seeded corruptions of valid files.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mutation.h"
#include "study/cache.h"
#include "study/campaign.h"
#include "study/spill.h"
#include "synthetic_records.h"
#include "util/md5.h"

namespace rv::study {
namespace {

StudyResult synthetic_result(int users, std::size_t records) {
  StudyResult result;
  for (int i = 0; i < users; ++i) result.users.push_back(make_user(i));
  result.records = make_records(records, 7);
  return result;
}

CampaignRollup synthetic_rollup() {
  CampaignRollup rollup;
  rollup.user_first = 126;
  rollup.user_count = 63;
  for (const auto& rec : make_records(300, 11)) rollup.fold(rec);
  // Telemetry sections filled directly: the synthetic records carry no
  // sampled series.
  rollup.telemetry.plays = 41;
  rollup.telemetry.samples = 1234;
  rollup.telemetry.by_class["DSL/Cable"].fps.add(14.5, 3);
  rollup.telemetry.by_class["DSL/Cable"].bw.add(310.0, 7);
  rollup.telemetry.by_region["Europe"].fps.add(8.0);
  rollup.telemetry.by_server["east-1"].bw.add(1999.0, 2);
  rollup.telemetry.bottleneck["56k Modem"] = {4, 0, 1, 0, 2, 0, 0, 9};
  rollup.telemetry.bottleneck["T1/LAN"] = {0, 3, 0, 0, 0, 5, 1, 0};
  return rollup;
}

std::string cache_bytes(const StudyResult& result) {
  const std::string path = temp_path("encoded.cache");
  EXPECT_TRUE(save_result(path, StudyConfig{}, result));
  return read_file(path);
}

std::string spill_bytes(const std::vector<tracer::TraceRecord>& records) {
  const std::string path = temp_path("encoded.spill");
  SpillWriter writer(path);
  for (const auto& rec : records) writer.append(rec);
  EXPECT_TRUE(writer.finish());
  return read_file(path);
}

// The formats' bytes. A different digest is a format change: it needs a
// new format version and new pins here and in perfbench/digests.json.
TEST(CodecGolden, StudyCacheBytes) {
  EXPECT_EQ(util::md5_hex(cache_bytes(synthetic_result(9, 120))),
            "09e1f1eb73bc7be8a26df5baff872dc0");
}

TEST(CodecGolden, RollupBytes) {
  EXPECT_EQ(util::md5_hex(synthetic_rollup().serialize()),
            "5dfe00f5303df2dcc3c304fcd5ef7715");
}

TEST(CodecGolden, SpillBytes) {
  // Two frames: the second starts at record kSpillFrameRecords.
  EXPECT_EQ(
      util::md5_hex(spill_bytes(make_records(kSpillFrameRecords + 300, 13))),
      "1219268024c5f3a2585cad313686330c");
}

// A one-record cache with empty strings and no users: the header is 16
// bytes, the two counts 8, and the record's fields start at byte 24.
TEST(StudyCache, RejectsBoolAndEnumBytesOutOfRange) {
  StudyResult result;
  result.records.emplace_back();
  const std::string path = temp_path("one_record.cache");
  ASSERT_TRUE(save_result(path, StudyConfig{}, result));
  const std::string bytes = read_file(path);
  ASSERT_TRUE(load_result(path, StudyConfig{}).has_value());

  constexpr std::size_t kAvailable = 73;  // bool, true by default
  constexpr std::size_t kUserGroup = 36;  // i32 enum, four values
  ASSERT_EQ(bytes[kAvailable], 1);
  for (const auto& [at, value] :
       {std::pair{kAvailable, 2}, std::pair{kAvailable, 255},
        std::pair{kUserGroup, 4}, std::pair{kUserGroup + 3, 0x80}}) {
    std::string bad = bytes;
    bad[at] = static_cast<char>(value);
    util::write_file(path, bad);
    EXPECT_FALSE(load_result(path, StudyConfig{}).has_value())
        << "byte " << at << " = " << value;
  }
}

TEST(StudyCache, RecordCountBeyondTheFileIsRejected) {
  const std::string path = temp_path("short.cache");
  ASSERT_TRUE(save_result(path, StudyConfig{}, StudyResult{}));
  std::string bytes = read_file(path);
  ASSERT_EQ(bytes.size(), 24u);
  const std::uint32_t million = 1'000'000;
  bytes.replace(20, 4, reinterpret_cast<const char*>(&million), 4);
  util::write_file(path, bytes);
  EXPECT_FALSE(load_result(path, StudyConfig{}).has_value());
}

using mutation::run_mutants;

TEST(CodecMutation, StudyCacheRejectsOrRoundTrips) {
  const StudyConfig config;
  const std::string path = temp_path("mutant.cache");
  const std::string again = temp_path("mutant_again.cache");
  run_mutants(cache_bytes(synthetic_result(3, 24)), 1500, 101,
              [&](const std::string& mutant) {
                util::write_file(path, mutant);
                const auto loaded = load_result(path, config);
                if (!loaded) return false;
                EXPECT_TRUE(save_result(again, config, *loaded));
                const std::string encoded = read_file(again);
                const auto reloaded = load_result(again, config);
                EXPECT_TRUE(reloaded.has_value());
                if (reloaded) {
                  EXPECT_TRUE(save_result(again, config, *reloaded));
                  EXPECT_EQ(read_file(again), encoded);
                }
                return true;
              });
}

TEST(CodecMutation, RollupRejectsOrRoundTrips) {
  run_mutants(synthetic_rollup().serialize(), 3000, 202,
              [](const std::string& mutant) {
                CampaignRollup rollup;
                std::string error;
                if (!CampaignRollup::parse(mutant, &rollup, &error)) {
                  EXPECT_FALSE(error.empty());
                  return false;
                }
                const std::string encoded = rollup.serialize();
                CampaignRollup back;
                EXPECT_TRUE(CampaignRollup::parse(encoded, &back, &error))
                    << error;
                EXPECT_EQ(back.serialize(), encoded);
                return true;
              });
}

// Decodes every frame of a spill (and one record by random access), or
// returns false.
bool decode_spill(const std::string& path,
                  std::vector<tracer::TraceRecord>& records) {
  records.clear();
  SpillReader reader;
  if (!reader.open(path)) return false;
  std::vector<tracer::TraceRecord> frame;
  for (std::size_t f = 0; f < reader.frames(); ++f) {
    if (!reader.read_frame(f, frame)) return false;
    records.insert(records.end(), frame.begin(), frame.end());
  }
  tracer::TraceRecord last;
  return records.empty() || reader.read_record(records.size() - 1, last);
}

void spill_mutants(const std::vector<tracer::TraceRecord>& records,
                   int iterations, std::uint64_t seed) {
  const std::string path = temp_path("mutant.spill");
  const std::string again = temp_path("mutant_again.spill");
  run_mutants(spill_bytes(records), iterations, seed,
              [&](const std::string& mutant) {
                util::write_file(path, mutant);
                std::vector<tracer::TraceRecord> decoded;
                if (!decode_spill(path, decoded)) return false;
                const std::string encoded = spill_bytes(decoded);
                util::write_file(again, encoded);
                std::vector<tracer::TraceRecord> redecoded;
                EXPECT_TRUE(decode_spill(again, redecoded));
                EXPECT_EQ(spill_bytes(redecoded), encoded);
                return true;
              });
}

TEST(CodecMutation, SpillRejectsOrRoundTrips) {
  spill_mutants(make_records(64, 17), 1500, 303);
  // Two frames, so frame extents end at the next frame as well as at the
  // footer.
  spill_mutants(make_records(kSpillFrameRecords + 64, 19), 40, 404);
}

}  // namespace
}  // namespace rv::study
