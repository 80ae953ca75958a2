// Columnar, compressed, seekable on-disk spill for bulk TraceRecords.
//
// A campaign-scale study cannot keep millions of records resident; it folds
// each finished play into mergeable rollups and spills the raw record to
// disk. The spill format is DataSeries-flavoured: records are grouped into
// frames (extents) of up to kFrameRecords; within a frame every field is a
// column with its own encoding — zigzag-delta varints for integers,
// XOR-with-previous varints for doubles, bit-packed booleans, and pooled
// string ids (util::Symbol) mapped through a file-local string table. A
// footer carries the string table plus a frame index, so a reader can seek
// to any record by number without scanning the file.
//
// The layout is deterministic: appending the same record sequence always
// produces the same bytes, and frame boundaries depend only on record
// ordinals. Concatenating N shard spills through SpillWriter (decode →
// re-append) therefore reproduces the single-process file byte-for-byte —
// the property the shard-merge CI gate pins.
//
// Like the study cache, obs and telemetry payloads are never spilled.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "tracer/record.h"

namespace rv::study {

// Records per frame. Bounds writer memory (one frame of records plus its
// encoded columns) and is the unit of seek granularity.
constexpr std::size_t kSpillFrameRecords = 4096;

class SpillWriter {
 public:
  // Creates/truncates `path`. ok() reports whether the stream is healthy;
  // append/finish on a failed writer are no-ops.
  explicit SpillWriter(const std::string& path);
  ~SpillWriter();

  SpillWriter(const SpillWriter&) = delete;
  SpillWriter& operator=(const SpillWriter&) = delete;

  void append(const tracer::TraceRecord& rec);
  // Flushes the open frame and writes the footer. Idempotent; returns
  // overall success.
  bool finish();

  bool ok() const { return ok_; }
  std::uint64_t records() const { return records_; }
  // Live file-size / frame counters (observable mid-campaign without
  // touching the stream): bytes flushed so far and frames written.
  std::uint64_t bytes_written() const { return bytes_written_; }
  std::uint64_t frames_written() const { return index_.size(); }

 private:
  void flush_frame();

  std::ofstream os_;
  bool ok_ = false;
  bool finished_ = false;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::vector<tracer::TraceRecord> frame_;
  // File-local string table in first-appearance order.
  std::unordered_map<std::uint32_t, std::uint32_t> symbol_to_local_;
  std::vector<std::string> strings_;
  struct FrameEntry {
    std::uint64_t offset = 0;
    std::uint64_t first_record = 0;
    std::uint32_t record_count = 0;
  };
  std::vector<FrameEntry> index_;
};

class SpillReader {
 public:
  SpillReader() = default;

  // Opens and validates the footer. Returns false (with error() set) on a
  // missing file, bad magic/version, a truncated/corrupt footer, or a frame
  // index entry whose record count exceeds its frame's byte extent.
  bool open(const std::string& path);

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  std::uint64_t records() const { return records_; }
  std::size_t frames() const { return index_.size(); }
  std::uint64_t frame_first_record(std::size_t frame) const;

  // Decodes one whole frame. Returns false on a corrupt frame.
  bool read_frame(std::size_t frame,
                  std::vector<tracer::TraceRecord>& out) const;
  // Random access by record ordinal: seeks to the containing frame and
  // decodes it. Returns false when `index` is out of range or the frame is
  // corrupt.
  bool read_record(std::uint64_t index, tracer::TraceRecord& out) const;

 private:
  // Where frame `frame`'s bytes end: the next frame or the footer.
  std::uint64_t frame_end(std::size_t frame) const;

  mutable std::ifstream is_;
  bool ok_ = false;
  std::string error_;
  std::uint64_t records_ = 0;
  std::uint64_t footer_offset_ = 0;
  std::vector<std::string> strings_;
  struct FrameEntry {
    std::uint64_t offset = 0;
    std::uint64_t first_record = 0;
    std::uint32_t record_count = 0;
  };
  std::vector<FrameEntry> index_;
};

// Streams every record of `inputs` (in order) into a fresh spill at
// `out_path` — the shard-merge concat. Because the format is deterministic,
// the output is byte-identical to a single-process spill of the same record
// sequence. Returns false on any read or write failure.
bool concat_spills(const std::vector<std::string>& inputs,
                   const std::string& out_path, std::string* error);

}  // namespace rv::study
