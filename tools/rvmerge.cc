// rvmerge — merge campaign shard outputs into one rollup (and one spill).
// `rvmerge --help` prints the flags of its two modes, rendered from the
// table below.
//
// Each shard dir is a `realdata campaign --spill-dir` output: rollup.bin
// (mergeable aggregate) plus records.spill (columnar raw records). Shards
// must be given in shard order; contiguity of their user-id ranges is
// validated, so a missing or duplicated shard is an error, not a silently
// wrong merge. The merged rollup and spill are byte-identical to what a
// single-process run over the same user range writes — per-shard and merged
// md5s are printed so drift is visible at a glance.
//
// --report additionally prints the merged rollup's human-readable report.
//
// Status mode (--status DIR, no merge) renders a campaign-wide table from
// the shard heartbeat files written by `realdata campaign --heartbeat-dir`
// (one row per shard: progress, rate, heartbeat age, state). A heartbeat
// older than --stale-after (default 15 s) is STALE while its pid is still
// alive and DEAD once the process is gone; shards that never wrote a
// heartbeat show as MISSING. Exit status: 0 when every shard is done or ok,
// 1 when any shard needs attention.
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "obs/heartbeat.h"
#include "study/campaign.h"
#include "study/spill.h"
#include "util/args.h"
#include "util/md5.h"

namespace {

int cmd_status(const rv::util::Args& args) {
  using namespace rv;
  const std::string dir = args.get_or("status", "");
  const double stale_after = args.get_double("stale-after", 15.0);
  const auto heartbeats = obs::scan_heartbeats(dir);
  if (heartbeats.empty()) {
    std::cerr << "no heartbeat files under " << dir << "\n";
    return 1;
  }
  const std::string table = obs::render_status_table(
      heartbeats, obs::wall_clock_unix(), stale_after);
  std::cout << table;
  // "need attention" is rendered exactly when some shard is STALE, DEAD or
  // MISSING — surface that in the exit status for scripting.
  return table.find("need attention") == std::string::npos ? 0 : 1;
}

using rv::util::FlagKind;

// The merge mode, then the --status mode.
const rv::util::CommandSpec kModes[] = {
    {.operands = "SHARD-DIR...",
     .flags = {rv::util::required({"out", FlagKind::kPath, "DIR"}),
               {"report"}}},
    {.flags = {rv::util::required({"status", FlagKind::kPath, "DIR"}),
               {"stale-after", FlagKind::kReal, "SEC", 0,
                rv::util::kDaySec}}},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace rv;
  const util::Args args(argc, argv, kModes);
  const bool status = args.has("status");
  if (args.has("help") || (!status && args.positional().empty())) {
    std::cout << util::usage("rvmerge", kModes);
    return args.has("help") ? 0 : 2;
  }
  if (!util::check_flags(args, kModes[status ? 1 : 0], std::cerr)) return 2;
  if (status) return cmd_status(args);
  const std::string out_dir = args.get_or("out", "");

  study::CampaignRollup merged;
  bool have_first = false;
  std::vector<std::string> spills;
  bool all_spills = true;
  for (const auto& dir : args.positional()) {
    const std::string rollup_path = dir + "/rollup.bin";
    const std::string spill_path = dir + "/records.spill";
    study::CampaignRollup shard;
    std::string error;
    if (!study::CampaignRollup::load(rollup_path, &shard, &error)) {
      std::cerr << "shard " << dir << ": " << error << "\n";
      return 1;
    }
    std::cout << "shard " << dir << ": users [" << shard.user_first << ", "
              << shard.user_first + shard.user_count << "), " << shard.records
              << " records, rollup md5 " << util::md5_file_hex(rollup_path);
    if (std::filesystem::exists(spill_path)) {
      std::cout << ", spill md5 " << util::md5_file_hex(spill_path);
      spills.push_back(spill_path);
    } else {
      all_spills = false;
    }
    std::cout << "\n";
    if (!have_first) {
      merged = std::move(shard);
      have_first = true;
    } else if (!merged.merge(shard, &error)) {
      std::cerr << "shard " << dir << ": " << error << "\n";
      return 1;
    }
  }

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::cerr << "cannot create output dir: " << out_dir << "\n";
    return 1;
  }
  const std::string merged_rollup = out_dir + "/rollup.bin";
  if (!merged.save(merged_rollup)) {
    std::cerr << "cannot write rollup file: " << merged_rollup << "\n";
    return 1;
  }
  std::cout << "merged: users [" << merged.user_first << ", "
            << merged.user_first + merged.user_count << "), " << merged.records
            << " records\n";
  std::cout << "merged rollup: " << merged_rollup << " md5 "
            << util::md5_file_hex(merged_rollup) << "\n";

  if (all_spills && !spills.empty()) {
    const std::string merged_spill = out_dir + "/records.spill";
    std::string error;
    if (!study::concat_spills(spills, merged_spill, &error)) {
      std::cerr << error << "\n";
      return 1;
    }
    std::cout << "merged spill: " << merged_spill << " md5 "
              << util::md5_file_hex(merged_spill) << "\n";
  } else if (!all_spills && !spills.empty()) {
    std::cerr << "warning: not every shard has records.spill; skipping spill "
                 "merge\n";
  }

  if (args.has("report")) std::cout << "\n" << merged.render();
  return 0;
}
