#include "study/spill.h"

#include <bit>
#include <concepts>
#include <utility>

#include "util/bytes.h"
#include "util/check.h"

namespace rv::study {
namespace {

// File layout:
//   header:  u32 magic "RVSP", u32 version
//   frames:  repeated { u32 record_count, u32 column_count,
//                       column_count × u32 byte-length, payloads }
//   footer:  u32 string_count, { u32 len, bytes }...,
//            u32 frame_count, { u64 offset, u64 first, u32 count }...
//   trailer: u64 footer_offset, u32 magic "RVSE"
constexpr std::uint32_t kMagic = 0x50535652;     // "RVSP" little-endian
constexpr std::uint32_t kEndMagic = 0x45535652;  // "RVSE"
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 8;
constexpr std::size_t kTrailerBytes = 12;
constexpr std::size_t kMaxStrings = 1u << 20;
constexpr std::size_t kMaxFrames = 0xFFFFFFFF;  // u32 count; bytes bound it

// Column order within a frame. Fixed by the version: readers decode
// positionally, and determinism of the file bytes depends on it.
enum Column : std::size_t {
  kColUserId = 0,
  kColClipId,
  kColSite,
  kColRtspRetries,
  kColRebufferEvents,
  kColFramesPlayed,
  kColFramesDropped,
  kColFramesCpuScaled,
  kColBytesReceived,
  kColPacketsReceived,
  kColRepairsReceived,
  kColSampleCount,
  kColEnums,
  kColBools,
  kColSymbols,
  kColRating,
  kColEncodedBandwidth,
  kColEncodedFps,
  kColMeasuredBandwidth,
  kColMeasuredFps,
  kColJitterMs,
  kColRebufferSeconds,
  kColPrerollSeconds,
  kColPlaySeconds,
  kColCpuUtilization,
  kColSampleT,
  kColSampleBandwidth,
  kColSampleFps,
  kColumnCount,
};

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

// The RVSP field table: every record field, the column it is stored in and
// that column's encoding. flush_frame encodes and read_frame decodes by
// walking this one list; within a column, values follow its order.
//   delta     zigzag varint of the difference from the column's previous
//             value: monotone-ish columns (user_id, clip_id) take one byte
//   xor_bits  varint of the double's bits XOR the column's previous bits:
//             repeated values take one byte, slowly-varying ones share
//             their high bytes
//   bit       bit-packed flags, eight per byte, low bit first
//   enum8     one byte
//   symbol    varint index into the footer's string table
//   size      a delta-coded element count
template <class Io, class Record>
void record_fields(Io& io, Record& rec) {
  auto& st = rec.stats;
  io.delta(kColUserId, rec.user_id);
  io.delta(kColClipId, rec.clip_id);
  io.delta(kColSite, rec.site);
  io.delta(kColRtspRetries, st.rtsp_retries);
  io.delta(kColRebufferEvents, st.rebuffer_events);
  io.delta(kColFramesPlayed, st.frames_played);
  io.delta(kColFramesDropped, st.frames_dropped);
  io.delta(kColFramesCpuScaled, st.frames_cpu_scaled);
  io.delta(kColBytesReceived, st.bytes_received);
  io.delta(kColPacketsReceived, st.packets_received);
  io.delta(kColRepairsReceived, st.repairs_received);
  io.enum8(kColEnums, rec.user_group, world::kUserRegionGroupCount);
  io.enum8(kColEnums, rec.connection, world::kConnectionClassCount);
  io.enum8(kColEnums, rec.server_group, world::kServerRegionGroupCount);
  io.enum8(kColEnums, st.protocol, net::kProtocolCount);
  io.bit(kColBools, rec.rtsp_blocked_user);
  io.bit(kColBools, rec.available);
  io.bit(kColBools, st.session_established);
  io.bit(kColBools, st.played_any_frame);
  io.bit(kColBools, st.fell_back_to_tcp);
  io.bit(kColBools, st.fell_back_to_http);
  io.symbol(kColSymbols, rec.country);
  io.symbol(kColSymbols, rec.us_state);
  io.symbol(kColSymbols, rec.pc_class);
  io.symbol(kColSymbols, rec.server_name);
  io.symbol(kColSymbols, rec.server_country);
  io.xor_bits(kColRating, rec.rating);
  io.xor_bits(kColEncodedBandwidth, st.encoded_bandwidth);
  io.xor_bits(kColEncodedFps, st.encoded_fps);
  io.xor_bits(kColMeasuredBandwidth, st.measured_bandwidth);
  io.xor_bits(kColMeasuredFps, st.measured_fps);
  io.xor_bits(kColJitterMs, st.jitter_ms);
  io.xor_bits(kColRebufferSeconds, st.rebuffer_seconds);
  io.xor_bits(kColPrerollSeconds, st.preroll_seconds);
  io.xor_bits(kColPlaySeconds, st.play_seconds);
  io.xor_bits(kColCpuUtilization, st.cpu_utilization);
  // Every sample takes at least one byte of the sample-time column, which
  // bounds the decoded count.
  io.size(kColSampleCount, st.samples, kColSampleT);
  for (auto& s : st.samples) {
    io.xor_bits(kColSampleT, s.t_seconds);
    io.xor_bits(kColSampleBandwidth, s.bandwidth);
    io.xor_bits(kColSampleFps, s.frame_rate);
  }
}

// The footer's field list, shared by SpillWriter::finish and
// SpillReader::open.
template <class Io, class Strings, class Index>
void footer_fields(Io& io, Strings& strings, Index& index) {
  io.list(strings, kMaxStrings, [&io](auto& s) { io.str(s); });
  io.list(index, kMaxFrames, [&io](auto& e) {
    io.u64(e.offset);
    io.u64(e.first_record);
    io.u32(e.record_count);
  });
}

// One frame's columns being encoded. `prev` is the column's last value
// (delta), last bits (xor_bits) or pending byte (bit); `fill` counts the
// pending byte's bits.
class FrameEncoder {
 public:
  FrameEncoder(std::unordered_map<std::uint32_t, std::uint32_t>& local_ids,
               std::vector<std::string>& strings)
      : local_ids_(local_ids), strings_(strings) {}

  template <class T>
  void delta(Column c, T v) {
    Col& col = cols_[c];
    const auto x = static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
    col.out.varint(zigzag(static_cast<std::int64_t>(x - col.prev)));
    col.prev = x;
  }
  void xor_bits(Column c, double d) {
    Col& col = cols_[c];
    const auto bits = std::bit_cast<std::uint64_t>(d);
    col.out.varint(bits ^ col.prev);
    col.prev = bits;
  }
  void bit(Column c, bool b) {
    Col& col = cols_[c];
    col.prev |= static_cast<std::uint64_t>(b) << col.fill;
    if (++col.fill == 8) flush_bits(col);
  }
  template <class E>
  void enum8(Column c, E e, int count) {
    cols_[c].out.enum_u8(e, count);
  }
  // File-local string ids in first-appearance order.
  void symbol(Column c, util::Symbol s) {
    const auto [it, inserted] = local_ids_.emplace(
        s.id(), static_cast<std::uint32_t>(strings_.size()));
    if (inserted) strings_.push_back(s.str());
    cols_[c].out.varint(it->second);
  }
  template <class T>
  void size(Column c, const std::vector<T>& v, Column /*each*/) {
    delta(c, v.size());
  }

  // Writes the frame: its header (record count, column count, column
  // lengths), then each column's payload from its own buffer, so the
  // frame is never copied whole. Returns the bytes written.
  std::uint64_t write(std::ostream& os, std::uint32_t record_count) {
    util::ByteWriter header;
    header.u32(record_count);
    header.u32(kColumnCount);
    for (Col& col : cols_) {
      if (col.fill > 0) flush_bits(col);
      header.u32(static_cast<std::uint32_t>(col.out.size()));
    }
    const auto put = [&os](const std::string& bytes) {
      os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      return bytes.size();
    };
    std::uint64_t written = put(header.bytes());
    for (const Col& col : cols_) written += put(col.out.bytes());
    return written;
  }

 private:
  struct Col {
    util::ByteWriter out;
    std::uint64_t prev = 0;
    int fill = 0;
  };
  static void flush_bits(Col& col) {
    col.out.u8(static_cast<std::uint8_t>(col.prev));
    col.prev = 0;
    col.fill = 0;
  }

  std::unordered_map<std::uint32_t, std::uint32_t>& local_ids_;
  std::vector<std::string>& strings_;
  Col cols_[kColumnCount];
};

// One frame's columns being decoded: the mirror of FrameEncoder. Every
// column reader fails on its own; ok() is all of them.
class FrameDecoder {
 public:
  explicit FrameDecoder(const std::vector<std::string>& strings)
      : strings_(strings) {}

  // Reads the frame header and carves the column payloads out of `frame`,
  // which they must fill exactly.
  bool split(util::ByteReader& frame, std::uint32_t record_count) {
    std::uint32_t records = 0, columns = 0;
    frame.u32(records);
    frame.u32(columns);
    frame.check(records == record_count && columns == kColumnCount);
    std::uint32_t lengths[kColumnCount] = {};
    for (auto& len : lengths) frame.u32(len);
    for (std::size_t c = 0; c < kColumnCount; ++c) {
      std::string_view payload;
      frame.raw(payload, lengths[c]);
      cols_[c].in = util::ByteReader(payload);
    }
    return frame.ok() && frame.remaining() == 0;
  }

  template <std::integral T>
  void delta(Column c, T& v) {
    Col& col = cols_[c];
    std::uint64_t raw = 0;
    col.in.varint(raw);
    col.prev += static_cast<std::uint64_t>(unzigzag(raw));
    const auto x = static_cast<std::int64_t>(col.prev);
    col.in.check(std::in_range<T>(x));
    if (col.in.ok()) v = static_cast<T>(x);
  }
  void xor_bits(Column c, double& d) {
    Col& col = cols_[c];
    std::uint64_t raw = 0;
    col.in.varint(raw);
    col.prev ^= raw;
    d = std::bit_cast<double>(col.prev);
  }
  void bit(Column c, bool& b) {
    Col& col = cols_[c];
    if (col.fill == 0) col.in.u8(col.prev);
    b = ((col.prev >> col.fill) & 1) != 0;
    col.fill = (col.fill + 1) % 8;
  }
  template <class E>
  void enum8(Column c, E& e, int count) {
    cols_[c].in.enum_u8(e, count);
  }
  void symbol(Column c, util::Symbol& s) {
    util::ByteReader& in = cols_[c].in;
    std::size_t id = 0;
    in.varint(id);
    in.check(id < strings_.size());
    if (in.ok()) s = util::Symbol(strings_[id]);
  }
  template <class T>
  void size(Column c, std::vector<T>& v, Column each) {
    std::size_t n = 0;
    delta(c, n);
    cols_[c].in.check(n <= cols_[each].in.remaining());
    if (cols_[c].in.ok()) v.resize(n);
  }

  bool ok() const {
    for (const Col& col : cols_) {
      if (!col.in.ok()) return false;
    }
    return true;
  }
  bool exhausted() const {
    for (const Col& col : cols_) {
      if (col.in.remaining() != 0) return false;
    }
    return true;
  }

 private:
  struct Col {
    util::ByteReader in{{}};
    std::uint64_t prev = 0;
    int fill = 0;
  };

  const std::vector<std::string>& strings_;
  Col cols_[kColumnCount];
};

// Reads out.size() bytes at `offset`.
bool read_at(std::ifstream& is, std::uint64_t offset, std::string& out) {
  is.clear();
  is.seekg(static_cast<std::streamoff>(offset));
  is.read(out.data(), static_cast<std::streamsize>(out.size()));
  return is.gcount() == static_cast<std::streamsize>(out.size());
}

}  // namespace

SpillWriter::SpillWriter(const std::string& path)
    : os_(path, std::ios::binary | std::ios::trunc) {
  ok_ = os_.good();
  if (!ok_) return;
  util::ByteWriter header;
  header.u32(kMagic);
  header.u32(kVersion);
  os_.write(header.bytes().data(),
            static_cast<std::streamsize>(header.size()));
  ok_ = os_.good();
  bytes_written_ = header.size();
  frame_.reserve(kSpillFrameRecords);
}

SpillWriter::~SpillWriter() { finish(); }

void SpillWriter::append(const tracer::TraceRecord& rec) {
  if (!ok_ || finished_) return;
  frame_.push_back(rec);
  // obs/telemetry payloads are in-memory only; drop them so a buffered frame
  // costs what the columns cost, not what tracing costs.
  frame_.back().obs = obs::PlayObs{};
  frame_.back().series = telemetry::PlaySeries{};
  ++records_;
  if (frame_.size() >= kSpillFrameRecords) flush_frame();
}

void SpillWriter::flush_frame() {
  if (frame_.empty()) return;
  FrameEncoder columns(symbol_to_local_, strings_);
  for (const auto& rec : frame_) record_fields(columns, rec);
  FrameEntry entry;
  entry.offset = static_cast<std::uint64_t>(os_.tellp());
  entry.first_record = records_ - frame_.size();
  entry.record_count = static_cast<std::uint32_t>(frame_.size());
  bytes_written_ = entry.offset + columns.write(os_, entry.record_count);
  ok_ = ok_ && os_.good();
  index_.push_back(entry);
  frame_.clear();
}

bool SpillWriter::finish() {
  if (finished_) return ok_;
  if (!ok_) {
    finished_ = true;
    return false;
  }
  flush_frame();
  const auto footer_offset = static_cast<std::uint64_t>(os_.tellp());
  util::ByteWriter footer;
  footer_fields(footer, strings_, index_);
  footer.u64(footer_offset);
  footer.u32(kEndMagic);
  os_.write(footer.bytes().data(),
            static_cast<std::streamsize>(footer.size()));
  os_.flush();
  ok_ = ok_ && os_.good();
  bytes_written_ = footer_offset + footer.size();
  finished_ = true;
  os_.close();
  return ok_;
}

bool SpillReader::open(const std::string& path) {
  ok_ = false;
  error_.clear();
  records_ = 0;
  footer_offset_ = 0;
  strings_.clear();
  index_.clear();
  is_.close();
  is_.clear();
  is_.open(path, std::ios::binary);
  const auto fail = [&](const char* what) {
    error_ = what + path;
    return false;
  };
  if (!is_.good()) return fail("cannot open spill file: ");
  std::string head(kHeaderBytes, '\0');
  read_at(is_, 0, head);
  util::ByteReader h(head);
  std::uint32_t magic = 0, version = 0;
  h.u32(magic);
  h.u32(version);
  if (magic != kMagic) return fail("not a spill file (bad magic): ");
  if (version != kVersion) return fail("unsupported spill version in ");
  is_.clear();
  is_.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(is_.tellg());
  if (file_size < kHeaderBytes + kTrailerBytes) {
    return fail("truncated spill file: ");
  }
  const std::uint64_t trailer_offset = file_size - kTrailerBytes;
  std::string trailer(kTrailerBytes, '\0');
  const bool have_trailer = read_at(is_, trailer_offset, trailer);
  util::ByteReader t(trailer);
  std::uint32_t end_magic = 0;
  t.u64(footer_offset_);
  t.u32(end_magic);
  if (!have_trailer || end_magic != kEndMagic ||
      footer_offset_ < kHeaderBytes || footer_offset_ > trailer_offset) {
    return fail("corrupt spill trailer in ");
  }
  std::string footer(trailer_offset - footer_offset_, '\0');
  if (!read_at(is_, footer_offset_, footer)) {
    return fail("corrupt spill footer in ");
  }
  util::ByteReader f(footer);
  footer_fields(f, strings_, index_);
  if (!f.ok() || f.remaining() != 0) return fail("corrupt spill footer in ");
  // Frames lie between the header and the footer in index order: a frame's
  // byte extent runs to the next frame's offset (the footer's for the last)
  // and bounds its record count, and no frame holds more than a writer puts
  // in one.
  for (std::size_t i = 0; i < index_.size(); ++i) {
    const FrameEntry& e = index_[i];
    const std::uint64_t end = frame_end(i);
    if (e.offset < kHeaderBytes || e.offset >= end ||
        e.first_record != records_ || e.record_count > kSpillFrameRecords ||
        e.record_count > end - e.offset) {
      return fail("corrupt spill frame index in ");
    }
    records_ += e.record_count;
  }
  ok_ = true;
  return true;
}

std::uint64_t SpillReader::frame_first_record(std::size_t frame) const {
  RV_CHECK_LT(frame, index_.size());
  return index_[frame].first_record;
}

std::uint64_t SpillReader::frame_end(std::size_t frame) const {
  return frame + 1 < index_.size() ? index_[frame + 1].offset : footer_offset_;
}

bool SpillReader::read_frame(std::size_t frame,
                             std::vector<tracer::TraceRecord>& out) const {
  out.clear();
  if (!ok_ || frame >= index_.size()) return false;
  const FrameEntry& entry = index_[frame];
  std::string bytes(frame_end(frame) - entry.offset, '\0');
  if (!read_at(is_, entry.offset, bytes)) return false;
  util::ByteReader r(bytes);
  FrameDecoder columns(strings_);
  if (!columns.split(r, entry.record_count)) return false;
  out.reserve(entry.record_count);
  for (std::uint32_t i = 0; i < entry.record_count; ++i) {
    tracer::TraceRecord rec;
    record_fields(columns, rec);
    if (!columns.ok()) return false;
    out.push_back(std::move(rec));
  }
  return columns.exhausted();
}

bool SpillReader::read_record(std::uint64_t index,
                              tracer::TraceRecord& out) const {
  if (!ok_ || index >= records_) return false;
  // Binary search the frame index for the frame containing `index`.
  std::size_t lo = 0, hi = index_.size();
  while (lo + 1 < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (index_[mid].first_record <= index) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  std::vector<tracer::TraceRecord> frame;
  if (!read_frame(lo, frame)) return false;
  const std::uint64_t off = index - index_[lo].first_record;
  if (off >= frame.size()) return false;
  out = std::move(frame[off]);
  return true;
}

bool concat_spills(const std::vector<std::string>& inputs,
                   const std::string& out_path, std::string* error) {
  SpillWriter writer(out_path);
  if (!writer.ok()) {
    if (error != nullptr) *error = "cannot write spill file: " + out_path;
    return false;
  }
  std::vector<tracer::TraceRecord> frame;
  for (const auto& path : inputs) {
    SpillReader reader;
    if (!reader.open(path)) {
      if (error != nullptr) *error = reader.error();
      return false;
    }
    for (std::size_t f = 0; f < reader.frames(); ++f) {
      if (!reader.read_frame(f, frame)) {
        if (error != nullptr) *error = "corrupt spill frame in " + path;
        return false;
      }
      for (const auto& rec : frame) writer.append(rec);
    }
  }
  if (!writer.finish()) {
    if (error != nullptr) *error = "cannot finalize spill file: " + out_path;
    return false;
  }
  return true;
}

}  // namespace rv::study
