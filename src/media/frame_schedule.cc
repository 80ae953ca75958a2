#include "media/frame_schedule.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/rng.h"

namespace rv::media {
namespace {

// Keyframes carry several times the bits of a delta frame.
constexpr double kKeyframeFactor = 3.0;
// Lognormal sigma for frame-size variation.
constexpr double kSizeSigma = 0.30;

}  // namespace

FrameSchedule FrameSchedule::generate(const Clip& clip,
                                      std::size_t level_index) {
  return FrameSchedule(clip, level_index);
}

FrameSchedule::FrameSchedule(const Clip& clip, std::size_t level_index)
    : clip_(&clip),
      level_(&clip.level(level_index)),
      rng_(clip.seed() ^ (0xF00Du + level_index)),
      // Compensate the lognormal mean so the noise is rate-neutral.
      lognormal_mean_fix_(std::exp(-kSizeSigma * kSizeSigma / 2.0)),
      kf_interval_(std::max(level_->keyframe_interval, 2)),
      // Scale all frames down so keyframes don't push the level over its
      // rate: with one keyframe (factor K) every N frames, mean factor =
      // (N-1+K)/N.
      kf_mean_((static_cast<double>(kf_interval_ - 1) + kKeyframeFactor) /
               static_cast<double>(kf_interval_)) {}

bool FrameSchedule::generate_next() const {
  const SimTime t = next_pts_;
  if (t >= clip_->duration()) return false;
  // The scenes tile the clip in order and t only grows, so a cursor finds
  // the scene Clip::action_at(t) would.
  const std::vector<Scene>& scenes = clip_->scenes();
  while (scene_ + 1 < scenes.size() &&
         t >= scenes[scene_].start + scenes[scene_].duration) {
    ++scene_;
  }
  const double action = scenes[scene_].action;
  const double fps = std::max(2.0, level_->encoded_fps * action);
  const SimTime interval = seconds_to_sim(1.0 / fps);
  VideoFrame frame;
  frame.index = static_cast<std::int32_t>(frames_.size());
  frame.pts = t;
  frame.keyframe = (frame.index % kf_interval_) == 0;
  // Bits for this frame: the video track's share of the inter-frame gap.
  const double base_bytes =
      level_->video_bandwidth() * to_seconds(interval) / 8.0 / kf_mean_;
  const double factor = (frame.keyframe ? kKeyframeFactor : 1.0) *
                        rng_.lognormal(0.0, kSizeSigma) * lognormal_mean_fix_;
  frame.bytes =
      std::max<std::int32_t>(32, static_cast<std::int32_t>(
                                     std::round(base_bytes * factor)));
  frames_.push_back(frame);
  next_pts_ = t + interval;
  return true;
}

const VideoFrame* FrameSchedule::find(std::size_t i) const {
  while (frames_.size() <= i) {
    if (!generate_next()) return nullptr;
  }
  return &frames_[i];
}

const VideoFrame& FrameSchedule::frame(std::size_t i) const {
  find(i);
  return frames_.at(i);
}

std::size_t FrameSchedule::first_frame_at(SimTime t) const {
  while (frames_.empty() || frames_.back().pts < t) {
    if (!generate_next()) return frames_.size();
  }
  const auto it = std::lower_bound(
      frames_.begin(), frames_.end(), t,
      [](const VideoFrame& f, SimTime value) { return f.pts < value; });
  return static_cast<std::size_t>(it - frames_.begin());
}

std::span<const VideoFrame> FrameSchedule::frames() const {
  while (generate_next()) {
  }
  return frames_;
}

std::int64_t FrameSchedule::total_bytes() const {
  std::int64_t total = 0;
  for (const VideoFrame& f : frames()) total += f.bytes;
  return total;
}

double FrameSchedule::average_fps() const {
  return static_cast<double>(size()) / to_seconds(duration());
}

BitsPerSec FrameSchedule::average_video_bandwidth() const {
  return static_cast<double>(total_bytes()) * 8.0 / to_seconds(duration());
}

}  // namespace rv::media
