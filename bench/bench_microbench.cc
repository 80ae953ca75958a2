// Microbenchmarks of the simulation substrate: event scheduling, packet
// forwarding, cross-traffic load, TCP bulk transfer, frame-schedule
// generation, reassembly and CDF analysis. These bound how fast the full
// study can run and catch performance regressions in the hot paths.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <memory>

#include "media/catalog.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "telemetry/sampler.h"
#include "media/frame_schedule.h"
#include "media/packetizer.h"
#include "net/cross_traffic.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "stats/cdf.h"
#include "transport/mux.h"
#include "transport/tcp.h"
#include "util/rng.h"

namespace {

using namespace rv;

void BM_SimulatorScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at(i, [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_SimulatorScheduleRun);

void BM_SimulatorCancelHeavy(benchmark::State& state) {
  // Retransmission-timer pattern: nearly every scheduled timer is cancelled
  // before it fires (an ack disarms it). Stresses cancel cost and tombstone
  // skipping; the old kernel paid an unordered_set insert+find per cancel.
  for (auto _ : state) {
    sim::Simulator sim;
    int fired = 0;
    std::vector<sim::EventId> ids;
    ids.reserve(100);
    for (int round = 0; round < 100; ++round) {
      ids.clear();
      for (int i = 0; i < 10; ++i) {
        ids.push_back(
            sim.schedule_at(sim.now() + 10 + i, [&fired] { ++fired; }));
      }
      for (int i = 0; i < 9; ++i) sim.cancel(ids[static_cast<size_t>(i)]);
      sim.run_until(sim.now() + 20);
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_SimulatorCancelHeavy);

void BM_SimulatorTimerChurn(benchmark::State& state) {
  // Steady-state churn: a fixed population of repeating timers, each firing
  // and immediately rescheduling itself — the playout/keepalive shape. The
  // heap stays small but every event is a pop+push; slot reuse keeps the
  // kernel allocation-free after warmup.
  constexpr int kTimers = 64;
  for (auto _ : state) {
    sim::Simulator sim;
    long fired = 0;
    std::function<void(int)> tick = [&](int period) {
      ++fired;
      if (fired < 10000) {
        sim.schedule_in(period, [&tick, period] { tick(period); });
      }
    };
    for (int t = 0; t < kTimers; ++t) {
      const int period = 5 + (t % 13);
      sim.schedule_in(period, [&tick, period] { tick(period); });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_SimulatorTimerChurn);

void BM_SimulatorStudyShape(benchmark::State& state) {
  // The kernel load of one study play with cross traffic on, as counted in
  // a traced `retracer --connection dsl --clip 3` play (95k events) and
  // across a 2%-scale study (78 plays, 12.1M events): at most ~20 events
  // pending at once, so the heap is 2-3 levels deep; 0.03% of schedules
  // cancelled before they fire; delays under 1 ms for 4.7% of schedules,
  // 1-10 ms for 87.9% (cross-traffic and link transmissions), 10-100 ms for
  // 5.9%, 0.1-1 s for 1.4% and longer for 0.16%.
  constexpr int kTimers = 20;
  constexpr long kFires = 100000;
  constexpr long kCancelEvery = 3000;
  constexpr std::size_t kDelayMask = 4095;
  std::vector<SimTime> delays(kDelayMask + 1);
  util::Rng rng(2001);
  for (auto& d : delays) {
    const double u = rng.uniform();
    d = u < 0.047    ? rng.uniform_int(1, 999)
        : u < 0.926  ? rng.uniform_int(1000, 9999)
        : u < 0.985  ? rng.uniform_int(10000, 99999)
        : u < 0.9984 ? rng.uniform_int(100000, 999999)
                     : rng.uniform_int(1000000, 5000000);
  }
  for (auto _ : state) {
    sim::Simulator sim;
    long fired = 0;
    // A retransmission-style guard timer, disarmed and re-armed every
    // kCancelEvery fires (~3 simulated seconds, well inside its 30 s).
    sim::EventId guard = sim::kInvalidEventId;
    std::function<void()> tick = [&] {
      ++fired;
      if (fired % kCancelEvery == 0) {
        sim.cancel(guard);
        guard = sim.schedule_in(sec(30), [] {});
      }
      if (fired < kFires) {
        sim.schedule_in(delays[static_cast<std::size_t>(fired) & kDelayMask],
                        [&tick] { tick(); });
      }
    };
    for (int t = 0; t < kTimers; ++t) {
      sim.schedule_in(delays[static_cast<std::size_t>(t)], [&tick] { tick(); });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * kFires);
}
BENCHMARK(BM_SimulatorStudyShape)->Unit(benchmark::kMicrosecond);

void BM_PacketForwardingChain(benchmark::State& state) {
  const auto hops = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    net::Network net(sim);
    std::vector<net::NodeId> nodes;
    for (std::size_t i = 0; i <= hops; ++i) {
      nodes.push_back(net.add_node("n"));
    }
    for (std::size_t i = 0; i < hops; ++i) {
      net.add_link(nodes[i], nodes[i + 1], mbps(100), msec(1));
    }
    net.compute_routes();
    int delivered = 0;
    net.node(nodes.back()).set_local_sink([&](net::Packet) { ++delivered; });
    for (int i = 0; i < 100; ++i) {
      net::Packet p;
      p.src = nodes.front();
      p.dst = nodes.back();
      p.proto = net::Protocol::kUdp;
      p.size_bytes = 1000;
      net.send(p);
    }
    sim.run();
    benchmark::DoNotOptimize(delivered);
  }
}
BENCHMARK(BM_PacketForwardingChain)->Arg(2)->Arg(8);

// A deep same-tick burst through one link: 512 packets queue behind the
// transmitter and drain at line rate, one tx-done/start-transmission event
// chain per packet.
void BM_LinkBurstForward(benchmark::State& state) {
  constexpr int kPackets = 512;
  net::QueueConfig queue;
  queue.capacity_bytes = kPackets * 1000;
  for (auto _ : state) {
    sim::Simulator sim;
    net::Network net(sim);
    const auto a = net.add_node("a");
    const auto b = net.add_node("b");
    net.add_link(a, b, mbps(100), msec(1), queue);
    net.compute_routes();
    int delivered = 0;
    net.node(b).set_local_sink([&](net::Packet) { ++delivered; });
    for (int i = 0; i < kPackets; ++i) {
      net::Packet p;
      p.src = a;
      p.dst = b;
      p.proto = net::Protocol::kUdp;
      p.size_bytes = 1000;
      net.send(p);
    }
    sim.run();
    if (delivered != kPackets) state.SkipWithError("burst lost packets");
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * kPackets);
}
BENCHMARK(BM_LinkBurstForward)->Unit(benchmark::kMicrosecond);

// One ISP-uplink-shaped link (2 Mbps, 3 ms, ~80 ms of queue) carrying a
// study-shaped normal-regime cross-traffic source for 60 simulated
// seconds: bursts at line rate (the 1.05x cap), 400 ms mean ON periods
// at 50% duty, 1000 B packets. A foreground train of 1000 B packets every
// 33 ms touches the link at about the study's per-link send rate (~2.2k
// sends per link per play), so background load is computed in stretches
// between sends as in the study, not once at the deadline. Cross traffic is
// most of the study's link work, so this is the per-packet cost of that
// load.
void BM_CrossTrafficLink(benchmark::State& state) {
  net::QueueConfig queue;
  queue.capacity_bytes = 20'000;
  net::CrossTrafficConfig ct;
  ct.burst_rate = kbps(2000);
  ct.mean_on = msec(400);
  ct.mean_off = msec(400);
  ct.packet_bytes = 1000;
  std::uint64_t packets = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    net::Network net(sim);
    const auto a = net.add_node("a");
    const auto b = net.add_node("b");
    net.add_link(a, b, kbps(2000), msec(3), queue);
    net.compute_routes();
    std::uint64_t delivered = 0;
    net.node(b).set_local_sink([&delivered](net::Packet) { ++delivered; });
    net::CrossTrafficSource source(net, a, b, ct, util::Rng(2001));
    source.start();
    std::function<void()> train = [&] {
      net::Packet p;
      p.src = a;
      p.dst = b;
      p.proto = net::Protocol::kUdp;
      p.size_bytes = 1000;
      net.send(p);
      sim.schedule_in(msec(33), train);
    };
    sim.schedule_at(0, train);
    sim.run_until(sec(60));
    packets += source.packets_emitted() + delivered;
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(packets));
}
BENCHMARK(BM_CrossTrafficLink)->Unit(benchmark::kMicrosecond);

void BM_TcpBulkTransfer(benchmark::State& state) {
  struct Tag : net::PayloadMeta {};
  for (auto _ : state) {
    sim::Simulator sim;
    net::Network net(sim);
    const auto a = net.add_node("a");
    const auto b = net.add_node("b");
    net.add_link(a, b, mbps(10), msec(10));
    net.compute_routes();
    transport::TransportMux ma(net, a);
    transport::TransportMux mb(net, b);
    std::unique_ptr<transport::TcpConnection> accepted;
    transport::TcpListener listener(
        mb, 80, transport::TcpConfig{},
        [&](std::unique_ptr<transport::TcpConnection> c) {
          accepted = std::move(c);
        });
    transport::TcpConnection client(ma, transport::TcpConfig{});
    client.set_on_established([&] {
      for (int i = 0; i < 500; ++i) {
        client.send_chunk(1000, std::make_shared<Tag>());
      }
    });
    client.connect({b, 80});
    sim.run_until(sec(10));
    benchmark::DoNotOptimize(accepted->stats().bytes_delivered);
  }
}
BENCHMARK(BM_TcpBulkTransfer);

void BM_TcpChunkedSegments(benchmark::State& state) {
  // Many small application chunks per MSS: 250-byte chunks in 1000-byte
  // segments, so each segment ends four chunk records (the RTP-over-TCP
  // interleaving shape). That is past the inline capacity (2) of
  // Packet::chunks, so this measures the SmallVec heap-spill path; the
  // study's MSS-sized writes stay inline. SACK is off and the link neither
  // drops nor reorders.
  struct Tag : net::PayloadMeta {};
  for (auto _ : state) {
    sim::Simulator sim;
    net::Network net(sim);
    const auto a = net.add_node("a");
    const auto b = net.add_node("b");
    net.add_link(a, b, mbps(10), msec(5));
    net.compute_routes();
    transport::TransportMux ma(net, a);
    transport::TransportMux mb(net, b);
    std::unique_ptr<transport::TcpConnection> accepted;
    transport::TcpListener listener(
        mb, 80, transport::TcpConfig{},
        [&](std::unique_ptr<transport::TcpConnection> c) {
          accepted = std::move(c);
        });
    transport::TcpConnection client(ma, transport::TcpConfig{});
    client.set_on_established([&] {
      for (int i = 0; i < 2000; ++i) {
        client.send_chunk(250, std::make_shared<Tag>());
      }
    });
    client.connect({b, 80});
    sim.run_until(sec(10));
    benchmark::DoNotOptimize(accepted->stats().bytes_delivered);
  }
}
BENCHMARK(BM_TcpChunkedSegments);

void BM_FrameScheduleGenerate(benchmark::State& state) {
  media::CatalogSpec spec;
  spec.clips_per_site = 1;
  spec.playlist_size = 1;
  const media::Catalog catalog(spec, {media::SiteProfile::kSportsNetwork});
  const auto& clip = catalog.clip(0);
  for (auto _ : state) {
    // Schedules generate on demand; size() generates the whole clip.
    const auto schedule = media::FrameSchedule::generate(clip, 0);
    benchmark::DoNotOptimize(schedule.size());
  }
}
BENCHMARK(BM_FrameScheduleGenerate);

void BM_PacketizeReassemble(benchmark::State& state) {
  media::VideoFrame frame;
  frame.index = 1;
  frame.pts = sec(1);
  frame.bytes = 6000;
  for (auto _ : state) {
    std::uint32_t seq = 0;
    const auto frags = media::packetize_frame(frame, 1, 0, 1000, seq);
    media::FrameAssembler assembler;
    std::optional<media::FrameAssembler::CompleteFrame> done;
    for (const auto& f : frags) done = assembler.add(*f);
    benchmark::DoNotOptimize(done);
  }
}
BENCHMARK(BM_PacketizeReassemble);

void BM_ObsHookDisabled(benchmark::State& state) {
  // Cost of 1000 emit+count hook pairs with no sink installed — the
  // tracing-off tax every hot-path call site pays. scripts/run_bench.py
  // --obs-overhead-check divides this per-pair cost into the measured
  // per-hop cost of BM_PacketForwardingChain to bound total overhead <2%.
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      obs::emit(i, obs::Code::kFrameDrop, static_cast<std::uint64_t>(i), 0);
      obs::count(obs::Counter::kPacketsEnqueued);
      // Compiler barrier: without it the thread-local load is hoisted and
      // the whole loop folds to nothing, measuring zero instead of the
      // per-call-site load+branch that real hook sites pay.
      benchmark::ClobberMemory();
    }
    benchmark::DoNotOptimize(obs::current_sink());
  }
}
BENCHMARK(BM_ObsHookDisabled);

void BM_ObsHookEnabled(benchmark::State& state) {
  // Same loop with a live sink: ring write + counter add per pair. Not
  // gated — tracing on is an explicitly requested mode — but tracked so a
  // regression is visible.
  obs::PlaySink sink;
  sink.reset(4096);
  obs::ScopedSink scope(&sink);
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      obs::emit(i, obs::Code::kFrameDrop, static_cast<std::uint64_t>(i), 0);
      obs::count(obs::Counter::kPacketsEnqueued);
    }
    benchmark::DoNotOptimize(sink.buffer.total_emitted());
  }
}
BENCHMARK(BM_ObsHookEnabled);

void BM_MetricsDisabled(benchmark::State& state) {
  // Cost of 1000 metrics_add hooks with no registry installed — the
  // metrics-off tax a campaign-loop call site pays (one relaxed atomic load
  // plus a predicted-untaken branch). Gated alongside the obs/telemetry
  // hooks by scripts/run_bench.py --obs-overhead-check.
  obs::install_metrics(nullptr);
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      obs::metrics_add(obs::Metric::kPlaysCompleted);
      benchmark::ClobberMemory();
    }
    benchmark::DoNotOptimize(obs::installed_metrics());
  }
}
BENCHMARK(BM_MetricsDisabled);

void BM_MetricsEnabled(benchmark::State& state) {
  // Same loop with a live registry: one relaxed fetch_add per call. Not
  // gated — the registry is only installed by tools — but tracked so a
  // regression is visible.
  obs::MetricsRegistry registry;
  obs::install_metrics(&registry);
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      obs::metrics_add(obs::Metric::kPlaysCompleted);
    }
    benchmark::DoNotOptimize(registry.value(obs::Metric::kPlaysCompleted));
  }
  obs::install_metrics(nullptr);
}
BENCHMARK(BM_MetricsEnabled);

void BM_SeriesSampleDisabled(benchmark::State& state) {
  // Cost of 1000 sample_if_active guards on an inactive sampler — the
  // telemetry-off tax a sampling call site pays, gated alongside the obs
  // hooks by scripts/run_bench.py --obs-overhead-check.
  sim::Simulator sim;
  telemetry::Series series;
  series.reset(0);
  telemetry::PlaySampler sampler(sim, nullptr, 0, telemetry::Probe{}, &series,
                                 msec(500));
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      sampler.sample_if_active(i);
      benchmark::ClobberMemory();
    }
    benchmark::DoNotOptimize(series.size());
  }
}
BENCHMARK(BM_SeriesSampleDisabled);

void BM_SeriesSampleEnabled(benchmark::State& state) {
  // Full sample_at against a live two-link network and synthetic probes.
  // Not gated — telemetry on is an explicitly requested mode — but tracked
  // so a per-tick regression is visible.
  sim::Simulator sim;
  net::Network net(sim);
  const auto a = net.add_node("a");
  const auto b = net.add_node("b");
  const auto c = net.add_node("c");
  net.add_link(a, b, mbps(10), msec(5));
  net.add_link(b, c, mbps(10), msec(5));
  net.compute_routes();
  std::int64_t frames = 0, bytes = 0;
  telemetry::Probe probe;
  probe.buffer_sec = [] { return 4.2; };
  probe.frames_played = [&frames] { return frames += 7; };
  probe.bytes_received = [&bytes] { return bytes += 12000; };
  probe.cwnd_bytes = [] { return 8760.0; };
  probe.tcp_retransmits = [] { return std::uint64_t{3}; };
  telemetry::Series series;
  for (auto _ : state) {
    state.PauseTiming();
    series.reset(2);
    telemetry::PlaySampler sampler(sim, &net, 2, probe, &series, msec(500));
    state.ResumeTiming();
    for (int i = 0; i < 1000; ++i) sampler.sample_at(i);
    benchmark::DoNotOptimize(series.size());
  }
}
BENCHMARK(BM_SeriesSampleEnabled);

void BM_CdfBuildAndQuery(benchmark::State& state) {
  util::Rng rng(7);
  std::vector<double> xs;
  for (int i = 0; i < 3000; ++i) xs.push_back(rng.normal(10.0, 5.0));
  for (auto _ : state) {
    const stats::Cdf cdf(xs);
    double acc = 0;
    for (double x = 0; x < 30; x += 0.5) acc += cdf.at(x);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_CdfBuildAndQuery);

}  // namespace

BENCHMARK_MAIN();
