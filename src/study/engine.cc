#include "study/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <mutex>
#include <thread>

#include "obs/metrics.h"
#include "util/check.h"

namespace rv::study {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void scale_plays(double play_scale, world::UserProfile& u) {
  if (play_scale >= 1.0) return;
  u.clips_to_play = std::max(
      1, static_cast<int>(std::lround(u.clips_to_play * play_scale)));
  u.clips_to_rate = std::min(u.clips_to_rate, u.clips_to_play);
}

}  // namespace

void feed_metrics(std::uint64_t users,
                  std::span<const tracer::TraceRecord> records) {
  if (obs::installed_metrics() == nullptr) return;
  obs::metrics_add(obs::Metric::kUsersCompleted, users);
  obs::metrics_add(obs::Metric::kPlaysCompleted, records.size());
  for (const auto& rec : records) {
    if (!rec.analyzable()) continue;
    obs::metrics_observe(obs::MetricHist::kPlayFps, rec.stats.measured_fps);
    obs::metrics_observe(obs::MetricHist::kPlayBandwidthKbps,
                         to_kbps(rec.stats.measured_bandwidth));
  }
  obs::metrics_gauge_set(obs::MetricGauge::kRssKb, obs::current_rss_kb());
}

Engine::Engine(const StudyConfig& config, std::uint64_t plays_scale,
               std::uint64_t first, std::uint64_t last)
    : config_(config),
      catalog_(make_catalog(config)),
      tracer_(catalog_, graph_, [&config] {
        // Tie the fault universe to the study seed unless pinned explicitly.
        tracer::TracerConfig cfg = config.tracer;
        if (cfg.faults.seed == 0) cfg.faults.seed = config.seed;
        return cfg;
      }()),
      stream_(config.population, plays_scale),
      last_(last) {
  RV_CHECK(config.play_scale > 0.0 && config.play_scale <= 1.0)
      << "play_scale must be in (0, 1], got " << config.play_scale;
  RV_CHECK_GE(config.threads, 0)
      << "threads must be >= 0 (0 = hardware concurrency)";
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  n_threads_ = std::clamp(config.threads > 0 ? config.threads : cores, 1, 64);
  for (int i = 0; i < n_threads_; ++i) contexts_.emplace_back();
  // Wall-clock-side metrics: no-ops unless a registry is installed.
  obs::metrics_gauge_set(obs::MetricGauge::kUsersPlanned,
                         static_cast<std::int64_t>(last - first));
  obs::metrics_gauge_set(obs::MetricGauge::kWorkers, n_threads_);

  // Self-profiling is wall-clock-only and gated so the default path takes
  // zero clock reads; it can never feed back into simulation state.
  Clock::time_point start{};
  if (config.profile) {
    profile.enabled = true;
    profile.workers.resize(static_cast<std::size_t>(n_threads_));
    start = Clock::now();
  }
  // Mechanistic unavailability grids each site's accesses over the whole
  // population: one streaming prefix pass (profiles are ~1000x cheaper than
  // plays) counts every user, and only [first, last) keeps per-user bases.
  if (config.tracer.faults.enabled &&
      config.tracer.faults.mechanistic_unavailability) {
    tracer_.access_plan_begin();
    world::PopulationStream all(config.population, plays_scale);
    for (std::uint64_t id = 0; id < all.size(); ++id) {
      world::UserProfile u = all.next();
      scale_plays(config.play_scale, u);
      tracer_.access_plan_add(u, /*keep_base=*/id >= first && id < last);
    }
  }
  if (config.profile) profile.plan_seconds = seconds_since(start);
  stream_.skip(first);
}

void Engine::run(std::uint64_t chunk_users, const ChunkSink& sink) {
  std::vector<world::UserProfile> users;
  std::vector<tracer::TraceRecord> records;
  while (stream_.position() < last_) {
    const std::uint64_t count =
        std::min(chunk_users, last_ - stream_.position());
    users.clear();
    users.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      users.push_back(stream_.next());
      scale_plays(config_.play_scale, users.back());
    }
    Clock::time_point start{};
    if (profile.enabled) start = Clock::now();
    // Plan/execute split: a serial pass emits one self-contained task per
    // play; workers drain them cost-descending, each writing its preassigned
    // slot, so the output is byte-identical for any thread count.
    const tracer::StudyPlan plan = tracer_.build_plan(users, config_.seed);
    if (profile.enabled) {
      profile.plan_seconds += seconds_since(start);
      start = Clock::now();
    }
    records.resize(plan.tasks.size());
    // One writer per slot, and no two writers share a slot's cache line.
    static_assert(sizeof(tracer::TraceRecord) >= 64,
                  "result slots narrower than a cache line: align them");
    // Claims need no ordering: workers only read state published before the
    // pool started and publish records via join. The counter is the one
    // contended word, so it owns its cache line.
    alignas(64) std::atomic<std::size_t> next{0};
    // A play that throws must not escape its std::thread (std::terminate):
    // the first failure ends the claim loop and is rethrown after the join.
    std::exception_ptr failure;
    std::mutex failure_mu;
    const auto worker = [&](std::size_t w) {
      tracer::PlayContext& ctx = contexts_[w];
      WorkerProfile* wp = profile.enabled ? &profile.workers[w] : nullptr;
      try {
        while (true) {
          const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
          if (k >= plan.order.size()) return;
          const tracer::PlayTask& task = plan.tasks[plan.order[k]];
          const auto play_start = wp ? Clock::now() : Clock::time_point{};
          records[task.record_slot] =
              tracer_.run_play(task, users[task.user_index], ctx);
          if (wp == nullptr) continue;
          const double dt = seconds_since(play_start);
          ++wp->plays;
          wp->busy_seconds += dt;
          wp->max_play_seconds = std::max(wp->max_play_seconds, dt);
        }
      } catch (...) {
        next.store(plan.order.size(), std::memory_order_relaxed);
        const std::lock_guard<std::mutex> lock(failure_mu);
        if (!failure) failure = std::current_exception();
      }
    };
    if (n_threads_ == 1 || plan.tasks.size() < 2) {
      worker(0);
    } else {
      std::vector<std::thread> pool;
      pool.reserve(contexts_.size());
      for (std::size_t i = 0; i < contexts_.size(); ++i) {
        pool.emplace_back(worker, i);
      }
      for (auto& t : pool) t.join();
    }
    if (failure) std::rethrow_exception(failure);
    if (profile.enabled) profile.execute_seconds += seconds_since(start);
    feed_metrics(count, records);
    sink(users, records);
  }
  // Idle = starvation: execute wall a worker spent off-task (queue drained,
  // or waiting on a chunk's last straggler play).
  for (auto& wp : profile.workers) {
    wp.idle_seconds = std::max(0.0, profile.execute_seconds - wp.busy_seconds);
  }
}

}  // namespace rv::study
