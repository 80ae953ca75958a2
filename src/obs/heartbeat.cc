#include "obs/heartbeat.h"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "obs/metrics.h"
#include "util/args.h"
#include "util/strings.h"

namespace rv::obs {
namespace {

constexpr std::string_view kSchema = "rv-heartbeat-v1";

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Minimal field extraction for the flat heartbeat document: finds
// `"key":` at top level and returns the raw value token after it. The
// schema is ours and flat (no nested objects), so a targeted scan is
// enough — no general JSON parser needed.
std::optional<std::string> raw_field(std::string_view json,
                                     std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const auto pos = json.find(needle);
  if (pos == std::string_view::npos) return std::nullopt;
  std::size_t start = pos + needle.size();
  while (start < json.size() && (json[start] == ' ')) ++start;
  if (start >= json.size()) return std::nullopt;
  if (json[start] == '"') {
    // String value: scan to the closing unescaped quote, undoing
    // util::json_escape. JSON forbids raw control characters in strings,
    // and json_escape writes \u escapes only for ASCII control characters,
    // so anything else is a corrupted document.
    std::string out;
    for (std::size_t i = start + 1; i < json.size(); ++i) {
      const char c = json[i];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) return std::nullopt;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (++i >= json.size()) break;
      switch (json[i]) {
        case '"':
        case '\\':
        case '/':
          out += json[i];
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          unsigned code = 0;
          const char* first = json.data() + i + 1;
          const char* last =
              first + std::min<std::size_t>(4, json.size() - i - 1);
          const auto [ptr, ec] = std::from_chars(first, last, code, 16);
          if (ec != std::errc() || ptr != first + 4 || code >= 0x80) {
            return std::nullopt;
          }
          out += static_cast<char>(code);
          i += 4;
          break;
        }
        default:
          return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated string: torn/truncated document
  }
  std::size_t end = start;
  while (end < json.size() && json[end] != ',' && json[end] != '}') ++end;
  if (end >= json.size()) return std::nullopt;  // truncated document
  return std::string(json.substr(start, end - start));
}

std::optional<std::uint64_t> u64_field(std::string_view json,
                                       std::string_view key) {
  const auto raw = raw_field(json, key);
  if (!raw) return std::nullopt;
  const auto v = util::parse_int(*raw);
  if (!v || *v < 0) return std::nullopt;
  return static_cast<std::uint64_t>(*v);
}

std::optional<double> f64_field(std::string_view json, std::string_view key) {
  const auto raw = raw_field(json, key);
  if (!raw) return std::nullopt;
  return util::parse_double(*raw);
}

}  // namespace

std::string heartbeat_path(const std::string& dir,
                           std::uint64_t shard_index) {
  return dir + "/heartbeat-" + std::to_string(shard_index) + ".json";
}

std::string heartbeat_json(const Heartbeat& hb) {
  std::ostringstream os;
  std::string status;
  util::json_escape(status, hb.status);
  os << "{\"schema\":\"" << kSchema << "\""
     << ",\"shard_index\":" << hb.shard_index
     << ",\"shard_count\":" << hb.shard_count << ",\"pid\":" << hb.pid
     << ",\"timestamp_unix\":" << json_number(hb.timestamp_unix)
     << ",\"status\":\"" << status << "\""
     << ",\"users_done\":" << hb.users_done
     << ",\"users_total\":" << hb.users_total << ",\"plays\":" << hb.plays
     << ",\"last_fold_user\":" << hb.last_fold_user
     << ",\"plays_per_sec\":" << json_number(hb.plays_per_sec)
     << ",\"rss_kb\":" << hb.rss_kb << ",\"seed\":" << hb.seed << "}\n";
  return os.str();
}

bool parse_heartbeat(std::string_view json, Heartbeat* out) {
  const auto schema = raw_field(json, "schema");
  if (!schema || *schema != kSchema) return false;
  // A complete document ends in '}' — rejects any prefix of a larger write
  // (belt and braces: atomic rename means we should never see one).
  const auto close = json.find_last_not_of(" \n\r\t");
  if (close == std::string_view::npos || json[close] != '}') return false;

  Heartbeat hb;
  const auto shard_index = u64_field(json, "shard_index");
  const auto shard_count = u64_field(json, "shard_count");
  const auto pid = raw_field(json, "pid");
  const auto ts = f64_field(json, "timestamp_unix");
  const auto status = raw_field(json, "status");
  const auto users_done = u64_field(json, "users_done");
  const auto users_total = u64_field(json, "users_total");
  const auto plays = u64_field(json, "plays");
  const auto rate = f64_field(json, "plays_per_sec");
  if (!shard_index || !shard_count || *shard_count == 0 || !pid || !ts ||
      !status || !users_done || !users_total || !plays || !rate) {
    return false;
  }
  const auto pid_v = util::parse_int(*pid);
  if (!pid_v) return false;
  hb.shard_index = *shard_index;
  hb.shard_count = *shard_count;
  hb.pid = *pid_v;
  hb.timestamp_unix = *ts;
  hb.status = *status;
  hb.users_done = *users_done;
  hb.users_total = *users_total;
  hb.plays = *plays;
  hb.plays_per_sec = *rate;
  hb.last_fold_user = u64_field(json, "last_fold_user").value_or(0);
  if (const auto rss = raw_field(json, "rss_kb")) {
    if (const auto v = util::parse_int(*rss)) hb.rss_kb = *v;
  }
  hb.seed = u64_field(json, "seed").value_or(0);
  *out = hb;
  return true;
}

bool write_heartbeat(const std::string& dir, const Heartbeat& hb,
                     std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    if (error != nullptr) *error = "cannot create heartbeat dir: " + dir;
    return false;
  }
  const std::string tmp =
      dir + "/.heartbeat-" + std::to_string(hb.shard_index) + ".json.tmp";
  {
    std::ofstream os(tmp, std::ios::trunc | std::ios::binary);
    os << heartbeat_json(hb);
    if (!os) {
      if (error != nullptr) *error = "cannot write heartbeat tmp: " + tmp;
      return false;
    }
  }
  // rename(2) within one directory is atomic: a concurrent reader sees the
  // old complete file or the new complete file, never a mix.
  std::filesystem::rename(tmp, heartbeat_path(dir, hb.shard_index), ec);
  if (ec) {
    if (error != nullptr) {
      *error = "cannot rename heartbeat into place: " + ec.message();
    }
    return false;
  }
  metrics_add(Metric::kHeartbeatsWritten);
  return true;
}

bool load_heartbeat(const std::string& path, Heartbeat* out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  std::ostringstream buf;
  buf << is.rdbuf();
  return parse_heartbeat(buf.str(), out);
}

std::vector<Heartbeat> scan_heartbeats(const std::string& dir) {
  std::vector<Heartbeat> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("heartbeat-", 0) != 0 ||
        name.find(".json") == std::string::npos ||
        name.find(".tmp") != std::string::npos) {
      continue;
    }
    Heartbeat hb;
    if (load_heartbeat(entry.path().string(), &hb)) out.push_back(hb);
  }
  std::sort(out.begin(), out.end(), [](const Heartbeat& a, const Heartbeat& b) {
    return a.shard_index < b.shard_index;
  });
  return out;
}

bool pid_alive(std::int64_t pid) {
  if (pid <= 0) return false;
  return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno == EPERM;
}

std::string render_status_table(
    const std::vector<Heartbeat>& heartbeats, double now_unix,
    double stale_after_sec, const std::function<bool(std::int64_t)>& alive) {
  std::ostringstream os;
  os << "shard   pid       users               plays         rate/s   age     state\n";
  std::uint64_t shard_count = 0;
  std::uint64_t total_plays = 0, total_done = 0, total_users = 0;
  std::uint64_t done_shards = 0, bad_shards = 0;
  std::vector<bool> seen;
  for (const auto& hb : heartbeats) {
    shard_count = std::max(shard_count, hb.shard_count);
  }
  seen.resize(shard_count, false);
  for (const auto& hb : heartbeats) {
    if (hb.shard_index < seen.size()) seen[hb.shard_index] = true;
    const double age = now_unix - hb.timestamp_unix;
    std::string state;
    if (hb.status == "done") {
      state = "done";
      ++done_shards;
    } else if (age > stale_after_sec) {
      state = alive(hb.pid) ? "STALE" : "DEAD";
      ++bad_shards;
    } else {
      state = "ok";
    }
    const double pct =
        hb.users_total > 0
            ? 100.0 * static_cast<double>(hb.users_done) /
                  static_cast<double>(hb.users_total)
            : 0.0;
    char row[256];
    std::snprintf(row, sizeof(row),
                  "%-7s %-9lld %8llu/%-8llu %3.0f%%  %-13llu %8.1f   %-7s %s\n",
                  (std::to_string(hb.shard_index) + "/" +
                   std::to_string(hb.shard_count))
                      .c_str(),
                  static_cast<long long>(hb.pid),
                  static_cast<unsigned long long>(hb.users_done),
                  static_cast<unsigned long long>(hb.users_total), pct,
                  static_cast<unsigned long long>(hb.plays),
                  hb.plays_per_sec,
                  (util::format_double(age, 1) + "s").c_str(), state.c_str());
    os << row;
    total_plays += hb.plays;
    total_done += hb.users_done;
    total_users += hb.users_total;
  }
  for (std::uint64_t i = 0; i < seen.size(); ++i) {
    if (!seen[i]) {
      os << i << "/" << shard_count << "  (no heartbeat)"
         << std::string(46, ' ') << "MISSING\n";
      ++bad_shards;
    }
  }
  os << "campaign: " << total_done << "/" << total_users << " users, "
     << total_plays << " plays, " << done_shards << "/"
     << (shard_count == 0 ? heartbeats.size() : shard_count)
     << " shards done";
  if (bad_shards > 0) os << ", " << bad_shards << " shard(s) need attention";
  os << "\n";
  return os.str();
}

double wall_clock_unix() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace rv::obs
