// Shared binary wire-format helpers for the durable on-disk artifacts: the
// compiled design (core/compiled.cpp, magic "SCALDTVC") and the fixpoint
// snapshot (core/fixpoint.cpp, magic "SCALDTVF"). Both formats follow the
// same discipline -- explicitly little-endian records, a fixed 40-byte
// header carrying an FNV-1a content hash over the payload, a section table,
// and bounds-checked readers that report exactly one diagnostic on the
// first failure. This header is internal to src/core (serve/ borrows only
// fnv1a, for journal digests and quarantine keys); the public surfaces are
// compiled.hpp and fixpoint.hpp.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/waveform.hpp"
#include "diag/diagnostic.hpp"

namespace tv::wire {

inline constexpr std::uint32_t kEndianTag = 0x01020304u;
inline constexpr std::uint32_t kEndianTagSwapped = 0x04030201u;
inline constexpr std::size_t kHeaderSize = 40;
inline constexpr std::size_t kSectionEntrySize = 24;

inline std::uint64_t fnv1a(const void* data, std::size_t n,
                           std::uint64_t h = 14695981039346656037ull) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// ---------------------------------------------------------------- writing

/// Appends explicitly little-endian records to a byte string, so the format
/// is identical regardless of host byte order.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.append(s.data(), s.size());
  }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

// ---------------------------------------------------------------- reading

/// Bounds-checked little-endian cursor over one section. Every read checks
/// the remaining size; on underflow it sets `truncated` and returns zeros,
/// so the caller can finish the record and fail once at the end.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    if (!need(1)) return 0;
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes_[pos_ + i])) << (8 * i);
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes_[pos_ + i])) << (8 * i);
    pos_ += 8;
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str() {
    std::uint32_t n = u32();
    if (!need(n)) return {};
    std::string s(bytes_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  bool truncated() const { return truncated_; }
  bool at_end() const { return pos_ == bytes_.size(); }

 private:
  bool need(std::size_t n) {
    if (truncated_ || bytes_.size() - pos_ < n) {
      truncated_ = true;
      return false;
    }
    return true;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool truncated_ = false;
};

/// Per-load validation state: reports exactly one diagnostic (the first
/// failure) and remembers that loading failed. `malformed_code` is the
/// format's own bad-record code (TV-E305 for artifacts, TV-E315 for
/// snapshots) so shared record readers report in the caller's family.
struct Loader {
  diag::DiagnosticEngine& diags;
  std::string_view origin;
  const char* malformed_code = diag::kErrArtifactMalformed;
  bool failed = false;

  bool fail(const char* code, const std::string& message) {
    if (!failed) {
      failed = true;
      diags.report(diag::Severity::Error, code, diag::SourceLoc{},
                   std::string(origin) + ": " + message);
    }
    return false;
  }
};

// ------------------------------------------------------- waveform records

inline void write_waveform(ByteWriter& w, const Waveform& wave) {
  w.i64(wave.period());
  w.i64(wave.skew());
  w.u32(static_cast<std::uint32_t>(wave.segments().size()));
  for (const Waveform::Segment& s : wave.segments()) {
    w.u8(static_cast<std::uint8_t>(s.value));
    w.i64(s.width);
  }
}

inline bool read_waveform(ByteReader& r, Waveform& out, Loader& L) {
  Time period = r.i64();
  Time skew = r.i64();
  std::uint32_t nsegs = r.u32();
  if (r.truncated()) return true;  // reported by the section-end check
  if (period <= 0 || nsegs == 0)
    return L.fail(L.malformed_code, "bad waveform record");
  std::vector<Waveform::Segment> segs;
  segs.reserve(nsegs);
  Time total = 0;
  for (std::uint32_t i = 0; i < nsegs && !r.truncated(); ++i) {
    std::uint8_t v = r.u8();
    Time width = r.i64();
    if (v >= kNumValues || width <= 0)
      return L.fail(L.malformed_code, "bad waveform segment");
    segs.push_back({static_cast<Value>(v), width});
    total += width;
  }
  if (r.truncated()) return true;
  if (total != period)
    return L.fail(L.malformed_code, "waveform widths do not sum to the period");
  out = Waveform::from_segments(period, skew, std::move(segs));
  return true;
}

}  // namespace tv::wire
