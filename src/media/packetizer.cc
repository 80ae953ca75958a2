#include "media/packetizer.h"

#include <algorithm>

#include "util/check.h"

namespace rv::media {

std::vector<std::shared_ptr<MediaPacketMeta>> packetize_frame(
    const VideoFrame& frame, std::uint32_t clip_id, std::uint16_t level,
    std::int32_t max_payload, std::uint32_t& seq) {
  RV_CHECK_GT(max_payload, 0);
  RV_CHECK_GT(frame.bytes, 0);
  const std::int32_t frag_count =
      (frame.bytes + max_payload - 1) / max_payload;
  std::vector<std::shared_ptr<MediaPacketMeta>> out;
  out.reserve(static_cast<std::size_t>(frag_count));
  std::int32_t remaining = frame.bytes;
  for (std::int32_t i = 0; i < frag_count; ++i) {
    auto meta = std::make_shared<MediaPacketMeta>();
    meta->clip_id = clip_id;
    meta->level = level;
    meta->kind = MediaKind::kVideo;
    meta->frame_index = frame.index;
    meta->pts = frame.pts;
    meta->keyframe = frame.keyframe;
    meta->frag_index = i;
    meta->frag_count = frag_count;
    meta->frame_bytes = frame.bytes;
    meta->payload_bytes = std::min(remaining, max_payload);
    meta->seq = seq++;
    remaining -= meta->payload_bytes;
    out.push_back(std::move(meta));
  }
  RV_CHECK_EQ(remaining, 0);
  return out;
}

std::optional<FrameAssembler::CompleteFrame> FrameAssembler::add(
    const MediaPacketMeta& meta) {
  if (meta.kind != MediaKind::kVideo && meta.kind != MediaKind::kRepair) {
    return std::nullopt;
  }
  RV_CHECK_GT(meta.frag_count, 0);
  RV_CHECK_LT(meta.frag_index, meta.frag_count);
  auto& partial = partial_[key_of(meta.level, meta.frame_index)];
  if (partial.got.empty()) {
    partial.got.assign(static_cast<std::size_t>(meta.frag_count), false);
    partial.pts = meta.pts;
    partial.frame_bytes = meta.frame_bytes;
    partial.keyframe = meta.keyframe;
    partial.level = meta.level;
  }
  const auto idx = static_cast<std::size_t>(meta.frag_index);
  if (idx >= partial.got.size() || partial.got[idx]) {
    return std::nullopt;  // duplicate or mismatched fragmentation
  }
  partial.got[idx] = true;
  ++partial.received;
  if (partial.received < static_cast<std::int32_t>(partial.got.size())) {
    return std::nullopt;
  }
  CompleteFrame done{meta.frame_index, partial.pts, partial.frame_bytes,
                     partial.keyframe, partial.level};
  partial_.erase(key_of(meta.level, meta.frame_index));
  return done;
}

std::size_t FrameAssembler::discard_before(SimTime horizon) {
  std::size_t dropped = 0;
  for (auto it = partial_.begin(); it != partial_.end();) {
    if (it->second.pts < horizon) {
      it = partial_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

void LossMonitor::on_packet(std::uint32_t seq) {
  ++interval_received_;
  ++total_received_;
  if (!have_any_) {
    have_any_ = true;
    highest_seq_ = seq;
    // Treat everything before the first packet as outside the window.
    interval_start_seq_ = seq > 0 ? seq - 1 : 0;
    return;
  }
  highest_seq_ = std::max(highest_seq_, seq);
}

LossMonitor::IntervalReport LossMonitor::take() {
  IntervalReport report;
  report.received = interval_received_;
  if (have_any_) {
    report.expected = static_cast<std::int64_t>(highest_seq_) -
                      static_cast<std::int64_t>(interval_start_seq_);
    interval_start_seq_ = highest_seq_;
  }
  // A reordering tail can make received exceed expected; clamp.
  report.expected = std::max(report.expected, report.received);
  interval_received_ = 0;
  return report;
}

}  // namespace rv::media
