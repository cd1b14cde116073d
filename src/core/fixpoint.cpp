// Fixpoint snapshot serialization (see fixpoint.hpp for the format), plus
// Verifier::snapshot/restore -- kept here, next to the wire format, the way
// reverify lives in incremental.cpp.
#include "core/fixpoint.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>
#include <unordered_map>

#include "core/wire_format.hpp"
#include "util/atomic_file.hpp"

namespace tv {
namespace {

using wire::ByteReader;
using wire::ByteWriter;
using wire::fnv1a;
using wire::kEndianTag;
using wire::kEndianTagSwapped;
using wire::kHeaderSize;
using wire::kSectionEntrySize;
using wire::Loader;
using wire::read_waveform;
using wire::write_waveform;

// Section ids (the table is written in this order).
enum : std::uint32_t {
  kSecBind = 1,
  kSecWaves = 2,
  kSecSigs = 3,
  kSecResult = 4,
  kSecCases = 5,
};
constexpr std::uint32_t kSectionIds[] = {kSecBind, kSecWaves, kSecSigs, kSecResult,
                                         kSecCases};
constexpr std::size_t kSectionCount = sizeof(kSectionIds) / sizeof(kSectionIds[0]);

/// Degradation codes are static diag constants in-process; on disk they are
/// strings. Restore maps them back so Degradation::code keeps pointing at
/// storage with program lifetime; an unrecognized code is a malformed
/// snapshot, not a leak-prone allocation.
const char* intern_degradation_code(const std::string& code) {
  for (const char* k : {diag::kWarnSegmentCap, diag::kWarnTimeLimit,
                        diag::kWarnTableFull, diag::kWarnCheckDeadline}) {
    if (code == k) return k;
  }
  return nullptr;
}

// ---------------------------------------------------------------- writing

void write_violations(ByteWriter& w, const std::vector<Violation>& vs) {
  w.u32(static_cast<std::uint32_t>(vs.size()));
  for (const Violation& v : vs) {
    w.u8(static_cast<std::uint8_t>(v.type));
    w.u32(v.prim);
    w.u32(v.signal);
    w.i64(v.missed_by);
    w.str(v.message);
  }
}

std::string build_bind(const std::string& design, const Netlist& nl,
                       const VerifierOptions& opts, std::uint64_t artifact_hash,
                       std::uint64_t report_digest) {
  ByteWriter w;
  w.u64(artifact_hash);
  w.u64(netlist_shape_digest(nl));
  w.u64(options_semantic_digest(opts));
  w.u64(report_digest);
  w.u32(static_cast<std::uint32_t>(nl.num_signals()));
  w.u32(static_cast<std::uint32_t>(nl.num_prims()));
  w.str(design);
  return w.take();
}

/// Deduplicated waveform arena + per-signal (arena ref, eval string): the
/// on-disk mirror of the evaluator's interned wave table. Shared waveforms
/// (clocks, constants -- the common case by far) serialize once.
void build_waves_and_sigs(const Netlist& nl, std::string& waves_out,
                          std::string& sigs_out) {
  ByteWriter waves;
  ByteWriter sigs;
  std::vector<Waveform> arena;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets;
  sigs.u32(static_cast<std::uint32_t>(nl.num_signals()));
  for (SignalId id = 0; id < nl.num_signals(); ++id) {
    const Signal& s = nl.signal(id);
    Waveform w = s.wave.canonical();
    std::uint64_t h = w.canonical_hash();
    std::uint32_t ref = kNoWaveform;
    for (std::uint32_t cand : buckets[h]) {
      if (arena[cand].equivalent(w)) {
        ref = cand;
        break;
      }
    }
    if (ref == kNoWaveform) {
      ref = static_cast<std::uint32_t>(arena.size());
      buckets[h].push_back(ref);
      arena.push_back(std::move(w));
    }
    sigs.u32(ref);
    sigs.str(s.eval_str);
  }
  waves.u32(static_cast<std::uint32_t>(arena.size()));
  for (const Waveform& w : arena) write_waveform(waves, w);
  waves_out = waves.take();
  sigs_out = sigs.take();
}

std::string build_result(const VerifyResult& r) {
  ByteWriter w;
  write_violations(w, r.violations);
  w.u64(r.base_events);
  w.u64(r.base_evals);
  w.u8(r.converged ? 1 : 0);
  w.u8(r.partial ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(r.degradations.size()));
  for (const Degradation& d : r.degradations) {
    w.str(d.code);
    w.str(d.message);
  }
  w.u32(static_cast<std::uint32_t>(r.cases.size()));
  for (const VerifyResult::CaseResult& c : r.cases) {
    w.str(c.name);
    w.u64(c.events);
    w.u8(c.converged ? 1 : 0);
    w.u8(c.degraded ? 1 : 0);
    write_violations(w, c.violations);
  }
  w.u32(static_cast<std::uint32_t>(r.cross_reference.size()));
  for (SignalId id : r.cross_reference) w.u32(id);
  return w.take();
}

std::string build_cases(const std::vector<CaseSpec>& cases) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(cases.size()));
  for (const CaseSpec& c : cases) {
    w.str(c.name);
    w.u32(static_cast<std::uint32_t>(c.pins.size()));
    for (const auto& [sig, value] : c.pins) {
      w.u32(sig);
      w.u8(static_cast<std::uint8_t>(value));
    }
  }
  return w.take();
}

// ---------------------------------------------------------------- reading

bool read_violations(ByteReader& r, std::vector<Violation>& out, std::uint32_t nsignals,
                     std::uint32_t nprims, Loader& L) {
  std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count && !r.truncated(); ++i) {
    Violation v;
    std::uint8_t type = r.u8();
    if (!r.truncated() && type > static_cast<std::uint8_t>(Violation::Type::Unconverged))
      return L.fail(diag::kErrSnapshotMalformed, "bad violation kind");
    v.type = static_cast<Violation::Type>(type);
    v.prim = r.u32();
    if (!r.truncated() && v.prim != kNoPrim && v.prim >= nprims)
      return L.fail(diag::kErrSnapshotMalformed, "violation primitive out of range");
    v.signal = r.u32();
    if (!r.truncated() && v.signal != kNoSignal && v.signal >= nsignals)
      return L.fail(diag::kErrSnapshotMalformed, "violation signal out of range");
    v.missed_by = r.i64();
    v.message = r.str();
    if (r.truncated()) break;
    out.push_back(std::move(v));
  }
  return true;
}

bool read_bind(ByteReader& r, FixpointState& st, std::uint32_t& nsignals) {
  st.artifact_hash = r.u64();
  st.shape_digest = r.u64();
  st.options_digest = r.u64();
  st.report_digest = r.u64();
  nsignals = r.u32();
  st.num_prims = r.u32();
  st.design = r.str();
  return true;
}

bool read_waves(ByteReader& r, std::vector<Waveform>& arena, Loader& L) {
  std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count && !r.truncated(); ++i) {
    Waveform w;
    if (!read_waveform(r, w, L)) return false;
    if (r.truncated()) break;
    arena.push_back(std::move(w));
  }
  return true;
}

bool read_sigs(ByteReader& r, const std::vector<Waveform>& arena, std::uint32_t nsignals,
               FixpointState& st, Loader& L) {
  std::uint32_t count = r.u32();
  if (!r.truncated() && count != nsignals)
    return L.fail(diag::kErrSnapshotMalformed,
                  "signal table does not match the bound signal count");
  for (std::uint32_t i = 0; i < count && !r.truncated(); ++i) {
    std::uint32_t ref = r.u32();
    std::string eval_str = r.str();
    if (r.truncated()) break;
    if (ref >= arena.size())
      return L.fail(diag::kErrSnapshotMalformed, "waveform ref out of range");
    st.waves.push_back(arena[ref]);
    st.eval_strs.push_back(std::move(eval_str));
  }
  return true;
}

bool read_result(ByteReader& r, std::uint32_t nsignals, std::uint32_t nprims,
                 FixpointState& st, Loader& L) {
  VerifyResult& res = st.result;
  if (!read_violations(r, res.violations, nsignals, nprims, L)) return false;
  res.base_events = r.u64();
  res.base_evals = r.u64();
  res.converged = r.u8() != 0;
  res.partial = r.u8() != 0;
  std::uint32_t ndeg = r.u32();
  for (std::uint32_t i = 0; i < ndeg && !r.truncated(); ++i) {
    std::string code = r.str();
    std::string message = r.str();
    if (r.truncated()) break;
    const char* interned = intern_degradation_code(code);
    if (interned == nullptr)
      return L.fail(diag::kErrSnapshotMalformed,
                    "unknown degradation code \"" + code + "\"");
    res.degradations.push_back(Degradation{interned, std::move(message)});
  }
  std::uint32_t ncases = r.u32();
  for (std::uint32_t i = 0; i < ncases && !r.truncated(); ++i) {
    VerifyResult::CaseResult c;
    c.name = r.str();
    c.events = r.u64();
    c.converged = r.u8() != 0;
    c.degraded = r.u8() != 0;
    if (!read_violations(r, c.violations, nsignals, nprims, L)) return false;
    if (r.truncated()) break;
    res.cases.push_back(std::move(c));
  }
  std::uint32_t nxref = r.u32();
  for (std::uint32_t i = 0; i < nxref && !r.truncated(); ++i) {
    std::uint32_t id = r.u32();
    if (!r.truncated() && id >= nsignals)
      return L.fail(diag::kErrSnapshotMalformed, "cross-reference signal out of range");
    res.cross_reference.push_back(id);
  }
  return true;
}

bool read_cases(ByteReader& r, std::uint32_t nsignals, FixpointState& st, Loader& L) {
  std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count && !r.truncated(); ++i) {
    CaseSpec c;
    c.name = r.str();
    std::uint32_t npins = r.u32();
    for (std::uint32_t j = 0; j < npins && !r.truncated(); ++j) {
      std::uint32_t sig = r.u32();
      std::uint8_t value = r.u8();
      if (r.truncated()) break;
      if (sig >= nsignals)
        return L.fail(diag::kErrSnapshotMalformed,
                      "case \"" + c.name + "\": signal out of range");
      if (value != static_cast<std::uint8_t>(Value::Zero) &&
          value != static_cast<std::uint8_t>(Value::One))
        return L.fail(diag::kErrSnapshotMalformed, "case \"" + c.name + "\": bad value");
      c.pins.emplace_back(sig, static_cast<Value>(value));
    }
    if (r.truncated()) break;
    st.cases.push_back(std::move(c));
  }
  return true;
}

}  // namespace

std::uint64_t netlist_shape_digest(const Netlist& nl) {
  // Everything restore needs to agree on before grafting a fixpoint:
  // per-signal identity and parameters, per-primitive kind/parameters and
  // connectivity. Evaluation state (wave, eval_str) is deliberately
  // excluded -- that is the payload, not the binding.
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(nl.num_signals()));
  w.u32(static_cast<std::uint32_t>(nl.num_prims()));
  for (SignalId id = 0; id < nl.num_signals(); ++id) {
    const Signal& s = nl.signal(id);
    w.str(s.full_name);
    w.u8(s.wire_delay ? 1 : 0);
    if (s.wire_delay) {
      w.i64(s.wire_delay->dmin);
      w.i64(s.wire_delay->dmax);
    }
  }
  for (PrimId id = 0; id < nl.num_prims(); ++id) {
    const Primitive& p = nl.prim(id);
    w.u8(static_cast<std::uint8_t>(p.kind));
    w.str(p.name);
    w.i64(p.dmin);
    w.i64(p.dmax);
    w.u8(p.rise_fall ? 1 : 0);
    if (p.rise_fall) {
      w.i64(p.rise_fall->rise_min);
      w.i64(p.rise_fall->rise_max);
      w.i64(p.rise_fall->fall_min);
      w.i64(p.rise_fall->fall_max);
    }
    w.i64(p.setup);
    w.i64(p.hold);
    w.i64(p.min_high);
    w.i64(p.min_low);
    w.u32(p.output);
    w.u32(static_cast<std::uint32_t>(p.inputs.size()));
    for (const Pin& pin : p.inputs) {
      w.u32(pin.sig);
      w.u8(pin.invert ? 1 : 0);
      w.str(pin.directives);
    }
  }
  std::string bytes = w.take();
  return fnv1a(bytes.data(), bytes.size());
}

std::uint64_t options_semantic_digest(const VerifierOptions& o) {
  ByteWriter w;
  w.i64(o.period);
  w.i64(o.units.ps_per_unit());
  w.i64(o.default_wire.dmin);
  w.i64(o.default_wire.dmax);
  w.f64(o.assertion_defaults.precision_skew_minus_ns);
  w.f64(o.assertion_defaults.precision_skew_plus_ns);
  w.f64(o.assertion_defaults.clock_skew_minus_ns);
  w.f64(o.assertion_defaults.clock_skew_plus_ns);
  w.u64(o.max_evals_per_prim);
  w.u64(o.max_segments_per_signal);
  w.u32(o.max_waveforms_per_shard);
  std::string bytes = w.take();
  return fnv1a(bytes.data(), bytes.size());
}

std::string serialize_fixpoint(const Verifier& v, const std::string& design,
                               std::uint64_t artifact_hash) {
  if (!v.has_baseline()) {
    throw std::logic_error("serialize_fixpoint: verifier has no baseline fixpoint");
  }
  const Netlist& nl = v.evaluator().netlist();
  std::string waves_sec, sigs_sec;
  build_waves_and_sigs(nl, waves_sec, sigs_sec);
  std::string result_sec = build_result(v.baseline());
  std::uint64_t report_digest = fnv1a(result_sec.data(), result_sec.size());
  const std::string sections[kSectionCount] = {
      build_bind(design, nl, v.evaluator().options(), artifact_hash, report_digest),
      std::move(waves_sec), std::move(sigs_sec), std::move(result_sec),
      build_cases(v.baseline_cases())};

  // Section table + payload, then the header over them (same assembly as
  // serialize_compiled).
  ByteWriter body;
  std::uint64_t offset = 0;
  for (std::size_t i = 0; i < kSectionCount; ++i) {
    body.u32(kSectionIds[i]);
    body.u32(0);  // reserved
    body.u64(offset);
    body.u64(sections[i].size());
    offset += sections[i].size();
  }
  std::string out = body.take();
  for (const std::string& s : sections) out += s;

  std::uint64_t content_hash = fnv1a(out.data(), out.size());

  ByteWriter header;
  for (std::size_t i = 0; i < 8; ++i) header.u8(static_cast<std::uint8_t>(kFixpointMagic[i]));
  header.u32(kEndianTag);
  header.u32(kFixpointFormatVersion);
  header.u64(content_hash);
  header.u64(out.size());
  header.u32(static_cast<std::uint32_t>(kSectionCount));
  header.u32(0);  // reserved
  return header.take() + out;
}

std::optional<FixpointState> load_fixpoint(std::string_view bytes, std::string_view origin,
                                           diag::DiagnosticEngine& diags) {
  Loader L{diags, origin, diag::kErrSnapshotMalformed};
  if (bytes.size() < kHeaderSize) {
    L.fail(diag::kErrSnapshotTruncated, "file too small to hold a snapshot header");
    return std::nullopt;
  }
  ByteReader h(bytes.substr(0, kHeaderSize));
  char magic[8];
  for (char& c : magic) c = static_cast<char>(h.u8());
  if (std::memcmp(magic, kFixpointMagic, sizeof magic) != 0) {
    L.fail(diag::kErrSnapshotMagic, "not a fixpoint snapshot (bad magic)");
    return std::nullopt;
  }
  std::uint32_t endian = h.u32();
  if (endian != kEndianTag) {
    L.fail(endian == kEndianTagSwapped ? diag::kErrSnapshotEndian
                                       : diag::kErrSnapshotMalformed,
           endian == kEndianTagSwapped ? "snapshot written with opposite byte order"
                                       : "bad endianness tag");
    return std::nullopt;
  }
  std::uint32_t version = h.u32();
  if (version != kFixpointFormatVersion) {
    L.fail(diag::kErrSnapshotVersion,
           "format version " + std::to_string(version) + " (this build reads version " +
               std::to_string(kFixpointFormatVersion) + "); re-run to regenerate");
    return std::nullopt;
  }
  std::uint64_t stored_hash = h.u64();
  std::uint64_t payload_size = h.u64();
  std::uint32_t nsections = h.u32();
  if (payload_size != bytes.size() - kHeaderSize) {
    L.fail(diag::kErrSnapshotTruncated,
           payload_size > bytes.size() - kHeaderSize ? "snapshot is truncated"
                                                     : "trailing bytes after the payload");
    return std::nullopt;
  }
  std::string_view payload = bytes.substr(kHeaderSize);
  std::uint64_t hash = fnv1a(payload.data(), payload.size());
  if (hash != stored_hash) {
    L.fail(diag::kErrSnapshotHash, "content hash mismatch (snapshot is corrupted)");
    return std::nullopt;
  }
  if (nsections != kSectionCount || payload.size() < nsections * kSectionEntrySize) {
    L.fail(diag::kErrSnapshotMalformed, "bad section table");
    return std::nullopt;
  }

  std::string_view sections[kSectionCount];
  {
    ByteReader t(payload.substr(0, kSectionCount * kSectionEntrySize));
    std::string_view data = payload.substr(kSectionCount * kSectionEntrySize);
    for (std::size_t i = 0; i < kSectionCount; ++i) {
      std::uint32_t id = t.u32();
      t.u32();  // reserved
      std::uint64_t off = t.u64();
      std::uint64_t size = t.u64();
      if (id != kSectionIds[i] || off > data.size() || size > data.size() - off) {
        L.fail(diag::kErrSnapshotMalformed, "bad section table");
        return std::nullopt;
      }
      sections[i] = data.substr(off, size);
    }
  }

  FixpointState st;
  std::uint32_t nsignals = 0;
  std::vector<Waveform> arena;
  ByteReader readers[kSectionCount] = {ByteReader(sections[0]), ByteReader(sections[1]),
                                       ByteReader(sections[2]), ByteReader(sections[3]),
                                       ByteReader(sections[4])};
  bool ok = read_bind(readers[0], st, nsignals) && read_waves(readers[1], arena, L) &&
            read_sigs(readers[2], arena, nsignals, st, L) &&
            read_result(readers[3], nsignals, st.num_prims, st, L) &&
            read_cases(readers[4], nsignals, st, L);
  if (ok) {
    for (std::size_t i = 0; i < kSectionCount; ++i) {
      if (readers[i].truncated()) {
        L.fail(diag::kErrSnapshotTruncated, "section ends mid-record");
        break;
      }
      if (!readers[i].at_end()) {
        L.fail(diag::kErrSnapshotMalformed, "unconsumed bytes at the end of a section");
        break;
      }
    }
  }
  if (!L.failed && st.report_digest != fnv1a(sections[3].data(), sections[3].size())) {
    L.fail(diag::kErrSnapshotMalformed, "report digest mismatch");
  }
  if (L.failed) return std::nullopt;
  return st;
}

std::optional<FixpointState> load_fixpoint_file(const std::string& path,
                                                diag::DiagnosticEngine& diags) {
  // Same mmap-with-fallback discipline as load_compiled_file: parse out of
  // a read-only mapping, release it before return (load_fixpoint copies).
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    diags.report(diag::Severity::Error, diag::kErrSnapshotIo, diag::SourceLoc{},
                 path + ": cannot open fixpoint snapshot");
    return std::nullopt;
  }
  struct stat st{};
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
    std::size_t len = static_cast<std::size_t>(st.st_size);
    void* map = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      ::close(fd);
      auto result = load_fixpoint(
          std::string_view(static_cast<const char*>(map), len), path, diags);
      ::munmap(map, len);
      return result;
    }
  }
  ::close(fd);
  bool opened = false;
  std::optional<std::string> bytes = util::read_file(path, &opened);
  if (!bytes) {
    diags.report(diag::Severity::Error, diag::kErrSnapshotIo, diag::SourceLoc{},
                 path + (opened ? ": read error" : ": cannot open fixpoint snapshot"));
    return std::nullopt;
  }
  return load_fixpoint(*bytes, path, diags);
}

bool write_fixpoint_file(const Verifier& v, const std::string& design,
                         std::uint64_t artifact_hash, const std::string& path,
                         std::string* error) {
  std::string bytes = serialize_fixpoint(v, design, artifact_hash);
  return util::atomic_write_file(path, bytes, error);
}

// ------------------------------------------------- Verifier::snapshot/restore

std::string Verifier::snapshot(const std::string& design,
                               std::uint64_t artifact_hash) const {
  return serialize_fixpoint(*this, design, artifact_hash);
}

bool Verifier::restore(const FixpointState& state, std::uint64_t expected_artifact_hash,
                       diag::DiagnosticEngine& diags) {
  auto reject = [&](const std::string& message) {
    diags.report(diag::Severity::Error, diag::kErrSnapshotBinding, diag::SourceLoc{},
                 "snapshot of \"" + state.design + "\": " + message);
    return false;
  };
  const Netlist& nl = ev_.netlist();
  if (state.artifact_hash != expected_artifact_hash) {
    return reject("bound to a different compiled artifact");
  }
  if (state.waves.size() != nl.num_signals() || state.num_prims != nl.num_prims()) {
    return reject("signal/primitive counts do not match this design");
  }
  if (state.shape_digest != netlist_shape_digest(nl)) {
    return reject("netlist shape digest does not match this design");
  }
  if (state.options_digest != options_semantic_digest(ev_.options())) {
    return reject("verifier options do not match the snapshot's");
  }
  ev_.restore_fixpoint(state.waves, state.eval_strs, state.result.converged,
                       state.result.partial, state.result.degradations);
  last_ = state.result;
  last_cases_ = state.cases;
  has_baseline_ = true;
  return true;
}

}  // namespace tv
