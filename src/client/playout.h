// Client playout engine: pre-roll buffer, playout clock, rebuffering and the
// CPU decode model (§II.B, §II.C of the paper).
//
// Frames enter via on_frame() as they are reassembled from the network and
// leave at their presentation deadlines against a wall-clock playout timer.
// If the buffer drains, playout halts (up to 20 s, per RealPlayer) while the
// buffer refills. A decode-cost model (per PC class) delays or — via the
// Scalable Video Technology scaler — skips frames on underpowered machines.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "client/clip_stats.h"
#include "client/pc_class.h"
#include "media/packetizer.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/units.h"

namespace rv::client {

struct PlayoutConfig {
  double preroll_target_sec = 8.0;      // media buffered before playout
  SimTime preroll_timeout = sec(25);    // start with whatever has arrived
  double rebuffer_target_sec = 4.0;     // media needed to resume
  SimTime rebuffer_max_wait = sec(20);  // RealPlayer halts at most this long
  PcClass pc = pc_class_by_name("Pentium II / 128-256");
  double cpu_headroom = 0.85;  // SVT scaler keeps decode duty below this
  // Host playout-timing wobble: 2001 desktop OSes display frames late by an
  // (exponentially distributed) delay with this mean, from timer granularity
  // and background processes. Affects measured jitter only, not throughput.
  double host_timing_noise_ms = 0.0;
  std::uint64_t noise_seed = 1;
};

class PlayoutEngine {
 public:
  enum class State { kPreroll, kPlaying, kRebuffering, kDone };

  PlayoutEngine(sim::Simulator& sim, const PlayoutConfig& config);
  // Pending frame/preroll events capture `this`; cancel them so the engine
  // can be replaced mid-session (TCP fallback discards the UDP engine).
  ~PlayoutEngine();

  // Playout lifecycle -----------------------------------------------------
  void start();  // called at PLAY time; pre-roll begins
  // A fully reassembled frame arrived from the network.
  void on_frame(const media::FrameAssembler::CompleteFrame& frame);
  void on_end_of_stream();
  // External stop (RealTracer's 1-minute watch window). Finalises stats.
  void stop();

  State state() const { return state_; }
  bool done() const { return state_ == State::kDone; }
  // Media position below which frames are useless (feeds assembler discard
  // and late-arrival handling).
  SimTime playout_position() const { return play_pos_; }
  std::int64_t frames_played() const { return frames_played_; }
  bool playout_started() const { return playout_started_; }
  // Media seconds currently buffered ahead of the playout position
  // (telemetry's buffer-depth probe; also feeds preroll/rebuffer decisions).
  double buffered_span_sec() const;

  // Network-level frame losses detected outside the engine (incomplete
  // frames discarded by the assembler) are folded into the stats here.
  void add_network_drops(std::int64_t n) { network_drops_ += n; }

  void set_on_done(std::function<void()> cb) { on_done_ = std::move(cb); }

  // Valid after stop(): playout portions of the RealTracer record.
  struct Result {
    bool played_any = false;
    double preroll_seconds = 0.0;
    double play_seconds = 0.0;
    double measured_fps = 0.0;
    double jitter_ms = 0.0;
    std::int64_t frames_played = 0;
    std::int64_t frames_dropped = 0;
    std::int64_t frames_cpu_scaled = 0;
    std::int32_t rebuffer_events = 0;
    double rebuffer_seconds = 0.0;
    double cpu_utilization = 0.0;
  };
  const Result& result() const { return result_; }

 private:
  void maybe_begin_playout();
  void begin_playout();
  void schedule_next_frame();
  void play_due_frames();
  void enter_rebuffer();
  void resume_from_rebuffer();
  void finish();
  SimTime deadline_of(SimTime pts) const {
    return wall_start_ + (pts - media_start_) + stall_accum_;
  }

  sim::Simulator& sim_;
  PlayoutConfig config_;
  util::Rng noise_rng_;
  State state_ = State::kPreroll;

  std::map<SimTime, media::FrameAssembler::CompleteFrame> buffer_;
  SimTime play_pos_ = 0;     // next expected media time
  SimTime wall_start_ = 0;   // wall time playout began
  SimTime media_start_ = 0;  // media time of the first played frame
  SimTime stall_accum_ = 0;  // total rebuffering stall inserted so far
  SimTime start_time_ = 0;   // when start() was called (preroll timing)
  SimTime stall_start_ = 0;
  bool playout_started_ = false;
  bool eos_ = false;
  bool started_ = false;

  // Decode model.
  SimTime decoder_free_at_ = 0;
  SimTime decode_busy_total_ = 0;
  SimTime last_play_time_ = -1;
  double decode_cost_ewma_sec_ = 0.0;

  std::vector<SimTime> play_times_;
  std::int64_t frames_played_ = 0;
  std::int64_t late_drops_ = 0;
  std::int64_t network_drops_ = 0;
  std::int64_t cpu_scaled_ = 0;
  std::int32_t rebuffer_events_ = 0;
  SimTime rebuffer_total_ = 0;

  sim::EventId frame_event_ = sim::kInvalidEventId;
  sim::EventId timer_event_ = sim::kInvalidEventId;

  std::function<void()> on_done_;
  Result result_;
};

}  // namespace rv::client
