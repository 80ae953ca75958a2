// Tests for shard heartbeat files: JSON roundtrip, atomic-rename torn-file
// semantics (a reader never observes a partial document), directory scans,
// and the rvmerge --status table's stale/dead/missing classification.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "mutation.h"
#include "obs/heartbeat.h"

namespace rv::obs {
namespace {

namespace fs = std::filesystem;

// Fresh scratch directory per test, removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("rv-heartbeat-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter()++));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  static int& counter() {
    static int c = 0;
    return c;
  }
  std::string str() const { return path.string(); }
};

Heartbeat sample_heartbeat() {
  Heartbeat hb;
  hb.shard_index = 2;
  hb.shard_count = 4;
  hb.pid = 4321;
  hb.timestamp_unix = 1700000000.25;
  hb.status = "running";
  hb.users_done = 150;
  hb.users_total = 600;
  hb.plays = 1234;
  hb.last_fold_user = 450;
  hb.plays_per_sec = 51.5;
  hb.rss_kb = 20480;
  hb.seed = 2001;
  return hb;
}

TEST(Heartbeat, JsonRoundTrip) {
  const Heartbeat hb = sample_heartbeat();
  Heartbeat parsed;
  ASSERT_TRUE(parse_heartbeat(heartbeat_json(hb), &parsed));
  EXPECT_EQ(parsed.shard_index, hb.shard_index);
  EXPECT_EQ(parsed.shard_count, hb.shard_count);
  EXPECT_EQ(parsed.pid, hb.pid);
  EXPECT_DOUBLE_EQ(parsed.timestamp_unix, hb.timestamp_unix);
  EXPECT_EQ(parsed.status, hb.status);
  EXPECT_EQ(parsed.users_done, hb.users_done);
  EXPECT_EQ(parsed.users_total, hb.users_total);
  EXPECT_EQ(parsed.plays, hb.plays);
  EXPECT_EQ(parsed.last_fold_user, hb.last_fold_user);
  EXPECT_DOUBLE_EQ(parsed.plays_per_sec, hb.plays_per_sec);
  EXPECT_EQ(parsed.rss_kb, hb.rss_kb);
  EXPECT_EQ(parsed.seed, hb.seed);
}

TEST(Heartbeat, ParseRejectsIncompleteDocuments) {
  const std::string full = heartbeat_json(sample_heartbeat());
  Heartbeat out;
  // Every proper prefix of a heartbeat document must be rejected — this is
  // what makes a torn read detectable even without rename atomicity.
  for (std::size_t len = 0; len < full.size() - 1; ++len) {
    EXPECT_FALSE(parse_heartbeat(full.substr(0, len), &out))
        << "prefix of length " << len << " parsed";
  }
  EXPECT_TRUE(parse_heartbeat(full, &out));
  EXPECT_FALSE(parse_heartbeat("{}", &out));
  EXPECT_FALSE(parse_heartbeat("{\"schema\":\"other-v9\"}", &out));
}

bool same_heartbeat(const Heartbeat& a, const Heartbeat& b) {
  return a.shard_index == b.shard_index && a.shard_count == b.shard_count &&
         a.pid == b.pid && a.timestamp_unix == b.timestamp_unix &&
         a.status == b.status && a.users_done == b.users_done &&
         a.users_total == b.users_total && a.plays == b.plays &&
         a.last_fold_user == b.last_fold_user &&
         a.plays_per_sec == b.plays_per_sec && a.rss_kb == b.rss_kb &&
         a.seed == b.seed;
}

TEST(HeartbeatMutation, RejectsOrRoundTrips) {
  // A heartbeat file is read back from disk by `rvmerge --status`: every
  // corrupted document must be rejected, or parse to a heartbeat whose
  // re-encoding parses back to the same heartbeat and is a fixed point.
  mutation::run_mutants(
      heartbeat_json(sample_heartbeat()), 3000, 401,
      [](const std::string& mutant) {
        Heartbeat parsed;
        if (!parse_heartbeat(mutant, &parsed)) return false;
        const std::string encoded = heartbeat_json(parsed);
        Heartbeat back;
        EXPECT_TRUE(parse_heartbeat(encoded, &back)) << encoded;
        EXPECT_TRUE(same_heartbeat(parsed, back)) << encoded;
        EXPECT_EQ(heartbeat_json(back), encoded);
        return true;
      });
}

TEST(Heartbeat, WriteIsAtomicRename) {
  TempDir dir;
  Heartbeat hb = sample_heartbeat();
  std::string error;
  ASSERT_TRUE(write_heartbeat(dir.str(), hb, &error)) << error;
  // The tmp name never survives a successful publish.
  EXPECT_FALSE(fs::exists(dir.path / ".heartbeat-2.json.tmp"));
  Heartbeat loaded;
  ASSERT_TRUE(load_heartbeat(heartbeat_path(dir.str(), 2), &loaded));
  EXPECT_EQ(loaded.users_done, 150u);

  // A reader hammering the file while a writer republishes must always see
  // a complete, parseable document — never a torn one.
  std::atomic<bool> stop{false};
  std::atomic<int> writes{0};
  std::thread writer([&] {
    Heartbeat w = hb;
    while (!stop.load()) {
      ++w.users_done;
      w.timestamp_unix += 1.0;
      std::string err;
      ASSERT_TRUE(write_heartbeat(dir.str(), w, &err)) << err;
      writes.fetch_add(1);
    }
  });
  const std::string path = heartbeat_path(dir.str(), 2);
  int reads = 0;
  while (writes.load() < 200) {
    Heartbeat r;
    ASSERT_TRUE(load_heartbeat(path, &r)) << "torn/unparseable heartbeat";
    EXPECT_GE(r.users_done, 150u);
    ++reads;
  }
  stop.store(true);
  writer.join();
  EXPECT_GT(reads, 0);
}

TEST(Heartbeat, ScanSortsByShardAndSkipsJunk) {
  TempDir dir;
  std::string error;
  for (const std::uint64_t shard : {3u, 0u, 1u}) {
    Heartbeat hb = sample_heartbeat();
    hb.shard_index = shard;
    ASSERT_TRUE(write_heartbeat(dir.str(), hb, &error)) << error;
  }
  // Junk that a scan must ignore: an unrelated file, a tmp leftover and a
  // torn half-document under a heartbeat name.
  std::ofstream(dir.path / "notes.txt") << "hello";
  std::ofstream(dir.path / ".heartbeat-9.json.tmp") << "{\"schema\":";
  std::ofstream(dir.path / "heartbeat-7.json") << "{\"schema\":\"rv-heart";
  const auto scanned = scan_heartbeats(dir.str());
  ASSERT_EQ(scanned.size(), 3u);
  EXPECT_EQ(scanned[0].shard_index, 0u);
  EXPECT_EQ(scanned[1].shard_index, 1u);
  EXPECT_EQ(scanned[2].shard_index, 3u);
}

TEST(Heartbeat, StatusTableClassifiesShards) {
  const double now = 1700000100.0;
  const double stale_after = 15.0;
  std::vector<Heartbeat> hbs;
  // Shard 0: fresh and running → ok.
  Heartbeat ok = sample_heartbeat();
  ok.shard_index = 0;
  ok.timestamp_unix = now - 2.0;
  hbs.push_back(ok);
  // Shard 1: finished → done, regardless of age.
  Heartbeat done = sample_heartbeat();
  done.shard_index = 1;
  done.status = "done";
  done.users_done = done.users_total;
  done.timestamp_unix = now - 500.0;
  hbs.push_back(done);
  // Shard 2: old heartbeat, process still alive → STALE (wedged).
  Heartbeat stale = sample_heartbeat();
  stale.shard_index = 2;
  stale.pid = 111;
  stale.timestamp_unix = now - 60.0;
  hbs.push_back(stale);
  // Shard 3 never wrote a heartbeat → MISSING.

  const auto alive = [](std::int64_t pid) { return pid == 111; };
  const std::string table =
      render_status_table(hbs, now, stale_after, alive);
  EXPECT_NE(table.find("ok"), std::string::npos);
  EXPECT_NE(table.find("done"), std::string::npos);
  EXPECT_NE(table.find("STALE"), std::string::npos);
  EXPECT_NE(table.find("MISSING"), std::string::npos);
  EXPECT_EQ(table.find("DEAD"), std::string::npos);
  EXPECT_NE(table.find("need attention"), std::string::npos);
  EXPECT_NE(table.find("1/4 shards done"), std::string::npos);
}

TEST(Heartbeat, KilledShardReportsDead) {
  // The acceptance scenario: a shard was deliberately killed — its last
  // heartbeat ages past --stale-after and its pid is gone → DEAD.
  const double now = 1700000100.0;
  Heartbeat killed = sample_heartbeat();
  killed.shard_index = 1;
  killed.shard_count = 2;
  killed.pid = 222;
  killed.timestamp_unix = now - 120.0;
  Heartbeat ok = sample_heartbeat();
  ok.shard_index = 0;
  ok.shard_count = 2;
  ok.timestamp_unix = now - 1.0;
  const auto nothing_alive = [](std::int64_t) { return false; };
  const std::string table =
      render_status_table({ok, killed}, now, 15.0, nothing_alive);
  EXPECT_NE(table.find("DEAD"), std::string::npos);
  EXPECT_EQ(table.find("STALE"), std::string::npos);
  EXPECT_NE(table.find("1 shard(s) need attention"), std::string::npos);
}

TEST(Heartbeat, PidAliveSelfAndNonsense) {
  EXPECT_TRUE(pid_alive(static_cast<std::int64_t>(::getpid())));
  EXPECT_FALSE(pid_alive(0));
  EXPECT_FALSE(pid_alive(-5));
}

}  // namespace
}  // namespace rv::obs
