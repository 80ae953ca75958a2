// Per-level frame schedules: the exact frames (timestamps, sizes, keyframes)
// the encoder produced for one SureStream level of a clip.
//
// A schedule is generated on demand: frames come from the schedule's own
// (clip, level) Rng in index order, each the first time a reader reaches
// it, so a play builds only the frames its sender gets to (a 60 s watch of
// a several-minute clip reads a fraction of them). The sequence does not
// depend on how far or in which steps it was read. Readers of the whole
// clip (size, frames, totals, averages) generate it to the end. A schedule
// refers to its Clip, which must outlive it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "media/clip.h"
#include "util/rng.h"
#include "util/units.h"

namespace rv::media {

struct VideoFrame {
  std::int32_t index = 0;
  SimTime pts = 0;          // presentation timestamp within the clip
  std::int32_t bytes = 0;   // encoded size
  bool keyframe = false;
};

class FrameSchedule {
 public:
  // The frame sequence for `level_index` of `clip`. Deterministic: the same
  // (clip, level) always yields the same frames.
  static FrameSchedule generate(const Clip& clip, std::size_t level_index);

  // Frame `i`, or null past the clip's end. Generates up to frame i only.
  // The pointer stays valid until the schedule generates further.
  const VideoFrame* find(std::size_t i) const;
  // Frame `i`; throws std::out_of_range past the clip's end.
  const VideoFrame& frame(std::size_t i) const;
  // Index of the first frame with pts >= t (== size() when past the end).
  // Generates only as far as that frame.
  std::size_t first_frame_at(SimTime t) const;

  // Whole-clip readers: each generates the schedule to the clip's end.
  std::span<const VideoFrame> frames() const;
  std::size_t size() const { return frames().size(); }
  std::int64_t total_bytes() const;
  SimTime duration() const { return clip_->duration(); }
  // Average encoded frame rate over the whole clip (frames / duration) —
  // what RealTracer reports as the clip's "encoded frame rate".
  double average_fps() const;
  // Average encoded video bandwidth (bits/sec).
  BitsPerSec average_video_bandwidth() const;

 private:
  FrameSchedule(const Clip& clip, std::size_t level_index);
  // Appends the next frame; false once the clip's end is reached.
  bool generate_next() const;

  const Clip* clip_;
  const EncodingLevel* level_;
  // Generator state: frames_ is the generated prefix, and the next frame
  // starts at next_pts_, in scene scene_, with the Rng where the last one
  // left it.
  mutable util::Rng rng_;
  mutable std::vector<VideoFrame> frames_;
  mutable SimTime next_pts_ = 0;
  mutable std::size_t scene_ = 0;
  double lognormal_mean_fix_;
  int kf_interval_;
  double kf_mean_;
};

}  // namespace rv::media
