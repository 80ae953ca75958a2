#include "telemetry/series.h"

#include "telemetry/sampler.h"
#include "util/check.h"

namespace rv::telemetry {

void Series::reset(std::size_t link_count) {
  t.clear();
  for (const SeriesColumn& col : kSeriesColumns) (this->*col.member).clear();
  links.resize(link_count);
  for (auto& link : links) {
    link.occupancy.clear();
    link.drops.clear();
  }
}

int bottleneck_link(const Series& series) {
  if (series.empty() || series.links.empty()) return -1;
  const auto n = static_cast<double>(series.size());
  std::uint64_t total_drops = 0;
  for (const auto& link : series.links) {
    for (const std::uint64_t d : link.drops) total_drops += d;
  }
  int best = 0;
  double best_score = -1.0;
  for (std::size_t l = 0; l < series.links.size(); ++l) {
    const auto& link = series.links[l];
    double occ_sum = 0.0;
    std::uint64_t drops = 0;
    for (const double o : link.occupancy) occ_sum += o;
    for (const std::uint64_t d : link.drops) drops += d;
    const double drop_share =
        total_drops > 0
            ? static_cast<double>(drops) / static_cast<double>(total_drops)
            : 0.0;
    const double score = occ_sum / n + drop_share;
    if (score > best_score) {  // strict: ties keep the lower index
      best_score = score;
      best = static_cast<int>(l);
    }
  }
  return best;
}

PlaySampler::PlaySampler(sim::Simulator& sim, net::Network* network,
                         std::size_t link_count, Probe probe, Series* out,
                         SimTime interval)
    : sim_(sim),
      network_(network),
      link_count_(link_count),
      probe_(std::move(probe)),
      out_(out),
      interval_(interval) {
  RV_CHECK_GT(interval_, 0) << "telemetry interval must be positive";
  RV_CHECK(out_ != nullptr);
  RV_CHECK_EQ(out_->links.size(), link_count_)
      << "Series not reset to the sampled link count";
  last_link_drops_.assign(link_count_, 0);
}

PlaySampler::~PlaySampler() {
  if (tick_event_ != sim::kInvalidEventId) sim_.cancel(tick_event_);
}

void PlaySampler::start() {
  active_ = true;
  tick_event_ = sim_.schedule_in(interval_, [this] { tick(); });
}

void PlaySampler::tick() {
  tick_event_ = sim::kInvalidEventId;
  if (probe_.finished && probe_.finished()) {
    // The play is over; freeze the series rather than recording an idle
    // tail out to the horizon.
    active_ = false;
    return;
  }
  sample_at(sim_.now());
  tick_event_ = sim_.schedule_in(interval_, [this] { tick(); });
}

void PlaySampler::sample_at(SimTime now) {
  // Cumulative probes can step backwards when their source is replaced
  // mid-session (the playout engine is rebuilt on TCP fallback; a server
  // session can be torn down). A reset reads as a zero-rate interval rather
  // than a negative or wrapped one.
  const auto delta_u64 = [](std::uint64_t cur, std::uint64_t& last) {
    const std::uint64_t d = cur >= last ? cur - last : 0;
    last = cur;
    return d;
  };
  const auto delta_i64 = [](std::int64_t cur, std::int64_t& last) {
    const std::int64_t d = cur >= last ? cur - last : 0;
    last = cur;
    return d;
  };

  const double interval_sec = to_seconds(interval_);
  out_->t.push_back(now);
  out_->buffer_sec.push_back(probe_.buffer_sec ? probe_.buffer_sec() : 0.0);

  const std::int64_t frames =
      probe_.frames_played ? probe_.frames_played() : 0;
  out_->fps.push_back(static_cast<double>(delta_i64(frames, last_frames_)) /
                      interval_sec);

  const std::int64_t bytes =
      probe_.bytes_received ? probe_.bytes_received() : 0;
  out_->bandwidth_kbps.push_back(
      static_cast<double>(delta_i64(bytes, last_bytes_)) * 8.0 / 1000.0 /
      interval_sec);

  out_->cwnd_bytes.push_back(probe_.cwnd_bytes ? probe_.cwnd_bytes() : 0.0);

  const std::uint64_t retx =
      probe_.tcp_retransmits ? probe_.tcp_retransmits() : 0;
  out_->retx_per_sec.push_back(
      static_cast<double>(delta_u64(retx, last_retx_)) / interval_sec);

  out_->pacing_kbps.push_back(
      probe_.pacing_bps ? probe_.pacing_bps() * 8.0 / 1000.0 : 0.0);
  out_->cc_state.push_back(
      probe_.cc_state ? static_cast<double>(probe_.cc_state()) : 0.0);

  for (std::size_t l = 0; l < link_count_; ++l) {
    auto& col = out_->links[l];
    if (network_ != nullptr && l < network_->link_count()) {
      net::Link& link = network_->link(l);
      col.occupancy.push_back(link.max_queue_fill());
      col.drops.push_back(
          delta_u64(link.total_dropped(), last_link_drops_[l]));
    } else {
      col.occupancy.push_back(0.0);
      col.drops.push_back(0);
    }
  }
}

}  // namespace rv::telemetry
