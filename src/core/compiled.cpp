// Compiled-design artifact serialization (see compiled.hpp for the format).
#include "core/compiled.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
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
  kSecMeta = 1,
  kSecSignals = 2,
  kSecPrims = 3,
  kSecCases = 4,
  kSecWaves = 5,
};
constexpr std::uint32_t kSectionIds[] = {kSecMeta, kSecSignals, kSecPrims, kSecCases,
                                         kSecWaves};
constexpr std::size_t kSectionCount = sizeof(kSectionIds) / sizeof(kSectionIds[0]);

// ---------------------------------------------------------------- writing

void write_assertion(ByteWriter& w, const Assertion& a) {
  w.u8(static_cast<std::uint8_t>(a.kind));
  w.u8(a.active_low ? 1 : 0);
  w.u8(a.skew_ns ? 1 : 0);
  if (a.skew_ns) {
    w.f64(a.skew_ns->first);
    w.f64(a.skew_ns->second);
  }
  w.u32(static_cast<std::uint32_t>(a.ranges.size()));
  for (const Assertion::Range& r : a.ranges) {
    w.f64(r.begin);
    w.f64(r.end);
    w.u8(r.width_ns ? 1 : 0);
    if (r.width_ns) w.f64(*r.width_ns);
  }
}

std::string build_meta(const CompiledDesign& d) {
  ByteWriter w;
  w.str(d.name);
  const VerifierOptions& o = d.options;
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
  w.u8(o.interning ? 1 : 0);
  w.u8(o.batch_eval ? 1 : 0);
  w.u32(o.batch_lanes);
  w.u64(d.summary.macro_instances);
  w.u64(d.summary.primitives);
  w.u64(d.summary.unique_signals);
  w.u64(d.summary.total_bits);
  w.u32(static_cast<std::uint32_t>(d.summary.prims_by_kind.size()));
  for (const auto& [kind, count] : d.summary.prims_by_kind) {  // std::map: sorted
    w.str(kind);
    w.u64(count);
  }
  return w.take();
}

std::string build_signals(const Netlist& nl) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(nl.num_signals()));
  for (SignalId id = 0; id < nl.num_signals(); ++id) {
    const Signal& s = nl.signal(id);
    w.str(s.full_name);
    w.str(s.base_name);
    write_assertion(w, s.assertion);
    w.u8(static_cast<std::uint8_t>(s.scope));
    w.u32(static_cast<std::uint32_t>(s.width));
    w.u8(s.wire_delay ? 1 : 0);
    if (s.wire_delay) {
      w.i64(s.wire_delay->dmin);
      w.i64(s.wire_delay->dmax);
    }
  }
  return w.take();
}

std::string build_prims(const Netlist& nl) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(nl.num_prims()));
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
    w.u32(static_cast<std::uint32_t>(p.width));
    w.u32(p.output);
    w.u32(static_cast<std::uint32_t>(p.inputs.size()));
    for (const Pin& pin : p.inputs) {
      w.u32(pin.sig);
      w.u8(pin.invert ? 1 : 0);
      w.str(pin.directives);
    }
  }
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

std::string build_waves(const CompiledDesign& d) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(d.seed_arena.size()));
  for (const Waveform& wave : d.seed_arena) write_waveform(w, wave);
  w.u32(static_cast<std::uint32_t>(d.seed_refs.size()));
  for (std::uint32_t ref : d.seed_refs) w.u32(ref);
  return w.take();
}

// ---------------------------------------------------------------- reading

bool read_assertion(ByteReader& r, Assertion& a, Loader& L) {
  std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(Assertion::Kind::Stable))
    return L.fail(diag::kErrArtifactMalformed, "bad assertion kind");
  a.kind = static_cast<Assertion::Kind>(kind);
  a.active_low = r.u8() != 0;
  if (r.u8() != 0) {
    double minus = r.f64();
    double plus = r.f64();
    a.skew_ns = {minus, plus};
  }
  std::uint32_t nranges = r.u32();
  a.ranges.reserve(nranges);
  for (std::uint32_t i = 0; i < nranges && !r.truncated(); ++i) {
    Assertion::Range range;
    range.begin = r.f64();
    range.end = r.f64();
    if (r.u8() != 0) range.width_ns = r.f64();
    a.ranges.push_back(range);
  }
  return true;
}

bool read_meta(ByteReader& r, CompiledDesign& d, Loader& L) {
  d.name = r.str();
  d.options.period = r.i64();
  d.options.units = ClockUnits(r.i64());
  d.options.default_wire.dmin = r.i64();
  d.options.default_wire.dmax = r.i64();
  d.options.assertion_defaults.precision_skew_minus_ns = r.f64();
  d.options.assertion_defaults.precision_skew_plus_ns = r.f64();
  d.options.assertion_defaults.clock_skew_minus_ns = r.f64();
  d.options.assertion_defaults.clock_skew_plus_ns = r.f64();
  d.options.max_evals_per_prim = r.u64();
  d.options.max_segments_per_signal = r.u64();
  d.options.interning = r.u8() != 0;
  d.options.batch_eval = r.u8() != 0;
  d.options.batch_lanes = r.u32();
  d.summary.macro_instances = r.u64();
  d.summary.primitives = r.u64();
  d.summary.unique_signals = r.u64();
  d.summary.total_bits = r.u64();
  std::uint32_t nkinds = r.u32();
  for (std::uint32_t i = 0; i < nkinds && !r.truncated(); ++i) {
    std::string kind = r.str();
    std::uint64_t count = r.u64();
    d.summary.prims_by_kind[kind] = count;
  }
  if (!r.truncated() && d.options.period <= 0)
    return L.fail(diag::kErrArtifactMalformed, "non-positive clock period");
  return true;
}

bool read_signals(ByteReader& r, CompiledDesign& d, Loader& L) {
  std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count && !r.truncated(); ++i) {
    Signal s;
    s.full_name = r.str();
    s.base_name = r.str();
    if (!read_assertion(r, s.assertion, L)) return false;
    std::uint8_t scope = r.u8();
    if (!r.truncated() && scope > static_cast<std::uint8_t>(SignalScope::Parameter))
      return L.fail(diag::kErrArtifactMalformed, "bad signal scope");
    s.scope = static_cast<SignalScope>(scope);
    s.width = static_cast<int>(r.u32());
    if (r.u8() != 0) {
      WireDelay wd;
      wd.dmin = r.i64();
      wd.dmax = r.i64();
      s.wire_delay = wd;
    }
    if (r.truncated()) break;
    d.netlist.push_signal(std::move(s));
  }
  return true;
}

bool read_prims(ByteReader& r, CompiledDesign& d, Loader& L) {
  const std::uint32_t nsignals = static_cast<std::uint32_t>(d.netlist.num_signals());
  std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count && !r.truncated(); ++i) {
    Primitive p;
    std::uint8_t kind = r.u8();
    if (!r.truncated() && kind > static_cast<std::uint8_t>(PrimKind::MinPulseWidthChk))
      return L.fail(diag::kErrArtifactMalformed, "bad primitive kind");
    p.kind = static_cast<PrimKind>(kind);
    p.name = r.str();
    p.dmin = r.i64();
    p.dmax = r.i64();
    if (r.u8() != 0) {
      RiseFallDelay rf;
      rf.rise_min = r.i64();
      rf.rise_max = r.i64();
      rf.fall_min = r.i64();
      rf.fall_max = r.i64();
      p.rise_fall = rf;
    }
    p.setup = r.i64();
    p.hold = r.i64();
    p.min_high = r.i64();
    p.min_low = r.i64();
    p.width = static_cast<int>(r.u32());
    p.output = r.u32();
    if (!r.truncated() && p.output != kNoSignal && p.output >= nsignals)
      return L.fail(diag::kErrArtifactMalformed,
                    "primitive \"" + p.name + "\": output signal out of range");
    std::uint32_t ninputs = r.u32();
    for (std::uint32_t j = 0; j < ninputs && !r.truncated(); ++j) {
      Pin pin;
      pin.sig = r.u32();
      if (!r.truncated() && pin.sig >= nsignals)
        return L.fail(diag::kErrArtifactMalformed,
                      "primitive \"" + p.name + "\": input signal out of range");
      pin.invert = r.u8() != 0;
      pin.directives = r.str();
      p.inputs.push_back(std::move(pin));
    }
    if (r.truncated()) break;
    try {
      d.netlist.add_prim(std::move(p));
    } catch (const std::exception& e) {
      return L.fail(diag::kErrArtifactMalformed, e.what());
    }
  }
  return true;
}

bool read_cases(ByteReader& r, CompiledDesign& d, Loader& L) {
  const std::uint32_t nsignals = static_cast<std::uint32_t>(d.netlist.num_signals());
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
        return L.fail(diag::kErrArtifactMalformed,
                      "case \"" + c.name + "\": signal out of range");
      if (value >= kNumValues)
        return L.fail(diag::kErrArtifactMalformed, "case \"" + c.name + "\": bad value");
      c.pins.emplace_back(sig, static_cast<Value>(value));
    }
    if (r.truncated()) break;
    d.cases.push_back(std::move(c));
  }
  return true;
}

bool read_waves(ByteReader& r, CompiledDesign& d, Loader& L) {
  std::uint32_t arena = r.u32();
  for (std::uint32_t i = 0; i < arena && !r.truncated(); ++i) {
    Waveform w;
    if (!read_waveform(r, w, L)) return false;
    if (r.truncated()) break;
    d.seed_arena.push_back(std::move(w));
  }
  std::uint32_t nrefs = r.u32();
  for (std::uint32_t i = 0; i < nrefs && !r.truncated(); ++i) {
    std::uint32_t ref = r.u32();
    if (!r.truncated() && ref >= d.seed_arena.size())
      return L.fail(diag::kErrArtifactMalformed, "seed-waveform ref out of range");
    d.seed_refs.push_back(ref);
  }
  if (!r.truncated() && d.seed_refs.size() != d.netlist.num_signals())
    return L.fail(diag::kErrArtifactMalformed,
                  "seed-ref table does not match the signal count");
  return true;
}

}  // namespace

CompiledDesign compile_design(std::string name, const Netlist& netlist,
                              const VerifierOptions& options,
                              std::vector<CaseSpec> cases, CompiledSummary summary) {
  CompiledDesign d;
  d.name = std::move(name);
  d.netlist = netlist;
  d.options = options;
  d.cases = std::move(cases);
  d.summary = std::move(summary);

  // Deduplicated seed arena: every signal's initial waveform (materialized
  // assertion / always-STABLE / UNKNOWN), one unique canonical copy each.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets;
  d.seed_refs.reserve(netlist.num_signals());
  for (SignalId id = 0; id < netlist.num_signals(); ++id) {
    Waveform w = seed_waveform(netlist.signal(id), options).canonical();
    std::uint64_t h = w.canonical_hash();
    std::uint32_t ref = kNoWaveform;
    for (std::uint32_t cand : buckets[h]) {
      if (d.seed_arena[cand].equivalent(w)) {
        ref = cand;
        break;
      }
    }
    if (ref == kNoWaveform) {
      ref = static_cast<std::uint32_t>(d.seed_arena.size());
      buckets[h].push_back(ref);
      d.seed_arena.push_back(std::move(w));
    }
    d.seed_refs.push_back(ref);
  }
  return d;
}

std::string serialize_compiled(CompiledDesign& design) {
  const std::string sections[kSectionCount] = {
      build_meta(design), build_signals(design.netlist), build_prims(design.netlist),
      build_cases(design.cases), build_waves(design)};

  // Section table + payload, then the header over them.
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

  design.content_hash = fnv1a(out.data(), out.size(), 14695981039346656037ull);

  ByteWriter header;
  for (char c : kCompiledMagic) header.u8(static_cast<std::uint8_t>(c));
  header.u32(kEndianTag);
  header.u32(kCompiledFormatVersion);
  header.u64(design.content_hash);
  header.u64(out.size());
  header.u32(static_cast<std::uint32_t>(kSectionCount));
  header.u32(0);  // reserved
  return header.take() + out;
}

std::optional<CompiledDesign> load_compiled(std::string_view bytes, std::string_view origin,
                                            diag::DiagnosticEngine& diags) {
  Loader L{diags, origin};
  if (bytes.size() < kHeaderSize) {
    L.fail(diag::kErrArtifactTruncated, "file too small to hold an artifact header");
    return std::nullopt;
  }
  ByteReader h(bytes.substr(0, kHeaderSize));
  char magic[8];
  for (char& c : magic) c = static_cast<char>(h.u8());
  if (std::memcmp(magic, kCompiledMagic, sizeof magic) != 0) {
    L.fail(diag::kErrArtifactMagic, "not a compiled design (bad magic)");
    return std::nullopt;
  }
  std::uint32_t endian = h.u32();
  if (endian != kEndianTag) {
    L.fail(endian == kEndianTagSwapped ? diag::kErrArtifactEndian : diag::kErrArtifactMalformed,
           endian == kEndianTagSwapped ? "artifact written with opposite byte order"
                                       : "bad endianness tag");
    return std::nullopt;
  }
  std::uint32_t version = h.u32();
  if (version != kCompiledFormatVersion) {
    L.fail(diag::kErrArtifactVersion,
           "format version " + std::to_string(version) + " (this build reads version " +
               std::to_string(kCompiledFormatVersion) + "); recompile with scaldtvc");
    return std::nullopt;
  }
  std::uint64_t stored_hash = h.u64();
  std::uint64_t payload_size = h.u64();
  std::uint32_t nsections = h.u32();
  if (payload_size != bytes.size() - kHeaderSize) {
    L.fail(diag::kErrArtifactTruncated,
           payload_size > bytes.size() - kHeaderSize ? "artifact is truncated"
                                                     : "trailing bytes after the payload");
    return std::nullopt;
  }
  std::string_view payload = bytes.substr(kHeaderSize);
  std::uint64_t hash = fnv1a(payload.data(), payload.size(), 14695981039346656037ull);
  if (hash != stored_hash) {
    L.fail(diag::kErrArtifactHash, "content hash mismatch (artifact is corrupted)");
    return std::nullopt;
  }
  if (nsections != kSectionCount || payload.size() < nsections * kSectionEntrySize) {
    L.fail(diag::kErrArtifactMalformed, "bad section table");
    return std::nullopt;
  }

  // Section table: ids in fixed order, ranges inside the payload.
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
        L.fail(diag::kErrArtifactMalformed, "bad section table");
        return std::nullopt;
      }
      sections[i] = data.substr(off, size);
    }
  }

  CompiledDesign d;
  d.content_hash = stored_hash;
  ByteReader readers[kSectionCount] = {ByteReader(sections[0]), ByteReader(sections[1]),
                                       ByteReader(sections[2]), ByteReader(sections[3]),
                                       ByteReader(sections[4])};
  bool ok = read_meta(readers[0], d, L) && read_signals(readers[1], d, L) &&
            read_prims(readers[2], d, L) && read_cases(readers[3], d, L) &&
            read_waves(readers[4], d, L);
  if (ok) {
    for (std::size_t i = 0; i < kSectionCount; ++i) {
      if (readers[i].truncated()) {
        L.fail(diag::kErrArtifactTruncated, "section ends mid-record");
        break;
      }
      if (!readers[i].at_end()) {
        L.fail(diag::kErrArtifactMalformed, "unconsumed bytes at the end of a section");
        break;
      }
    }
  }
  if (!L.failed) {
    // Recompute fanout call lists and re-validate the structure exactly as
    // the front end did; a corrupt-but-well-formed artifact fails here.
    try {
      d.netlist.finalize();
    } catch (const std::exception& e) {
      L.fail(diag::kErrArtifactMalformed, e.what());
    }
  }
  if (L.failed) return std::nullopt;
  return d;
}

std::optional<CompiledDesign> load_compiled_file(const std::string& path,
                                                 diag::DiagnosticEngine& diags) {
  // Map the artifact read-only and parse straight out of the mapping; the
  // layout has been position-independent since PR 7, and load_compiled
  // copies everything it keeps, so the mapping is released before return.
  // Anything mmap can't serve (pipes, /proc, zero-length, exotic
  // filesystems) falls back to a plain buffered read.
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    diags.report(diag::Severity::Error, diag::kErrArtifactIo, diag::SourceLoc{},
                 path + ": cannot open compiled design");
    return std::nullopt;
  }
  struct stat st{};
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
    std::size_t len = static_cast<std::size_t>(st.st_size);
    void* map = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      ::close(fd);
      auto result = load_compiled(
          std::string_view(static_cast<const char*>(map), len), path, diags);
      ::munmap(map, len);
      return result;
    }
  }
  ::close(fd);
  bool opened = false;
  std::optional<std::string> bytes = util::read_file(path, &opened);
  if (!bytes) {
    diags.report(diag::Severity::Error, diag::kErrArtifactIo, diag::SourceLoc{},
                 path + (opened ? ": read error" : ": cannot open compiled design"));
    return std::nullopt;
  }
  return load_compiled(*bytes, path, diags);
}

bool write_compiled_file(CompiledDesign& design, const std::string& path, std::string* error) {
  std::string bytes = serialize_compiled(design);
  return util::atomic_write_file(path, bytes, error);
}

std::size_t preintern_seeds(const CompiledDesign& design, WaveformTable& table) {
  std::size_t n = 0;
  for (const Waveform& w : design.seed_arena) {
    if (table.intern(w) != kNoWaveform) ++n;
  }
  return n;
}

}  // namespace tv
