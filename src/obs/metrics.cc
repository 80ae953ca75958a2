#include "obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/strings.h"

namespace rv::obs {
namespace {

// Renders a double the way Prometheus clients expect: plain decimal, no
// exponent for the magnitudes we emit, trailing zeros trimmed.
std::string prom_double(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string prom_escape_label(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string prom_escape_help(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

MetricsRegistry::MetricsRegistry()
    : hists_(make_hists(std::make_index_sequence<std::size(kHistInfo)>())),
      start_(std::chrono::steady_clock::now()) {}

void MetricsRegistry::observe(MetricHist h, double value) {
  Hist& slot = hists_[static_cast<std::size_t>(h)];
  std::lock_guard<std::mutex> lock(slot.mu);
  slot.h.add(value);
  slot.sum += value;
}

std::uint64_t MetricsRegistry::hist_count(MetricHist h) const {
  const Hist& slot = hists_[static_cast<std::size_t>(h)];
  std::lock_guard<std::mutex> lock(slot.mu);
  return slot.h.total();
}

double MetricsRegistry::hist_quantile(MetricHist h, double q) const {
  const Hist& slot = hists_[static_cast<std::size_t>(h)];
  std::lock_guard<std::mutex> lock(slot.mu);
  return slot.h.quantile(q);
}

void MetricsRegistry::set_common_label(std::string name, std::string value) {
  std::lock_guard<std::mutex> lock(label_mu_);
  label_name_ = std::move(name);
  label_value_ = std::move(value);
}

double MetricsRegistry::elapsed_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

std::string MetricsRegistry::encode_prometheus() const {
  std::string label;       // `{name="value"}` or ""
  std::string label_open;  // `{name="value",` or "{" — for histogram le
  {
    std::lock_guard<std::mutex> lock(label_mu_);
    if (!label_name_.empty()) {
      const std::string pair =
          label_name_ + "=\"" + prom_escape_label(label_value_) + "\"";
      label = "{" + pair + "}";
      label_open = "{" + pair + ",";
    } else {
      label_open = "{";
    }
  }

  std::ostringstream os;
  const auto family = [&os](const char* name, const char* help,
                            const char* type) {
    os << "# HELP " << name << ' ' << prom_escape_help(help) << "\n";
    os << "# TYPE " << name << ' ' << type << "\n";
  };
  for (std::size_t i = 0; i < std::size(kMetricInfo); ++i) {
    const MetricInfo& info = kMetricInfo[i];
    family(info.name, info.help, "counter");
    os << info.name << label << ' ' << value(static_cast<Metric>(i)) << "\n";
  }
  for (std::size_t i = 0; i < std::size(kGaugeInfo); ++i) {
    const MetricInfo& info = kGaugeInfo[i];
    family(info.name, info.help, "gauge");
    os << info.name << label << ' ' << gauge(static_cast<MetricGauge>(i))
       << "\n";
  }
  for (std::size_t i = 0; i < std::size(kHistInfo); ++i) {
    const char* name = kHistInfo[i].name;
    const Hist& slot = hists_[i];
    std::lock_guard<std::mutex> lock(slot.mu);
    family(name, kHistInfo[i].help, "histogram");
    // Cumulative le-buckets over the sketch's fixed geometry. Values above
    // hi clamp into the last finite bucket by MergeableHistogram::add, so
    // the +Inf bucket always equals the total count.
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < slot.h.bins(); ++b) {
      cumulative += slot.h.bin_count(b);
      const double le =
          slot.h.lo() +
          (slot.h.hi() - slot.h.lo()) *
              (static_cast<double>(b + 1) / static_cast<double>(slot.h.bins()));
      os << name << "_bucket" << label_open << "le=\"" << prom_double(le)
         << "\"} " << cumulative << "\n";
    }
    os << name << "_bucket" << label_open << "le=\"+Inf\"} "
       << slot.h.total() << "\n";
    os << name << "_sum" << label << ' ' << prom_double(slot.sum) << "\n";
    os << name << "_count" << label << ' ' << slot.h.total() << "\n";
  }
  return os.str();
}

ProgressSnapshot snapshot_progress(const MetricsRegistry& registry) {
  ProgressSnapshot s;
  s.plays = registry.value(Metric::kPlaysCompleted);
  s.users_done = registry.value(Metric::kUsersCompleted);
  s.users_total =
      static_cast<std::uint64_t>(registry.gauge(MetricGauge::kUsersPlanned));
  s.shard_index =
      static_cast<std::uint64_t>(registry.gauge(MetricGauge::kShardIndex));
  const std::int64_t shards = registry.gauge(MetricGauge::kShardCount);
  s.shard_count = shards > 0 ? static_cast<std::uint64_t>(shards) : 1;
  s.elapsed_seconds = registry.elapsed_seconds();
  if (s.elapsed_seconds > 0.0) {
    s.plays_per_sec = static_cast<double>(s.plays) / s.elapsed_seconds;
    s.users_per_sec = static_cast<double>(s.users_done) / s.elapsed_seconds;
  }
  s.done = s.users_total > 0 && s.users_done >= s.users_total;
  if (s.done) {
    s.eta_seconds = 0.0;
  } else if (s.users_total > 0 && s.users_per_sec > 0.0) {
    s.eta_seconds =
        static_cast<double>(s.users_total - s.users_done) / s.users_per_sec;
  }
  s.rss_kb = registry.gauge(MetricGauge::kRssKb);
  return s;
}

std::string progress_json(const ProgressSnapshot& s) {
  std::ostringstream os;
  os << "{\"plays\":" << s.plays << ",\"users_done\":" << s.users_done
     << ",\"users_total\":" << s.users_total
     << ",\"plays_per_sec\":" << prom_double(s.plays_per_sec)
     << ",\"users_per_sec\":" << prom_double(s.users_per_sec)
     << ",\"elapsed_seconds\":" << prom_double(s.elapsed_seconds)
     << ",\"eta_seconds\":";
  if (s.eta_seconds < 0.0) {
    os << "null";
  } else {
    os << prom_double(s.eta_seconds);
  }
  os << ",\"shard_index\":" << s.shard_index
     << ",\"shard_count\":" << s.shard_count << ",\"rss_kb\":" << s.rss_kb
     << ",\"done\":" << (s.done ? "true" : "false") << "}";
  return os.str();
}

namespace detail {
std::atomic<MetricsRegistry*> g_metrics{nullptr};
}  // namespace detail

void install_metrics(MetricsRegistry* registry) {
  detail::g_metrics.store(registry, std::memory_order_release);
}

MetricsRegistry* installed_metrics() {
  return detail::g_metrics.load(std::memory_order_acquire);
}

std::int64_t current_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      long kb = 0;
      std::sscanf(line.c_str(), "VmRSS: %ld", &kb);
      return static_cast<std::int64_t>(kb);
    }
  }
  return 0;
}

}  // namespace rv::obs
