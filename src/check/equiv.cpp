#include "check/equiv.hpp"

#include <memory>
#include <sstream>

#include "core/compiled.hpp"
#include "core/fixpoint.hpp"
#include "core/incremental.hpp"
#include "core/verifier.hpp"
#include "diag/diagnostic.hpp"
#include "diag/render.hpp"

namespace tv::check {

namespace {

// --- the edit-script generator ---------------------------------------------

void add_prim_param_edit(Rng& rng, const Netlist& nl, NetlistDelta& delta) {
  PrimId pid = static_cast<PrimId>(rng.range(0, static_cast<int>(nl.num_prims()) - 1));
  const Primitive& p = nl.prim(pid);
  NetlistDelta::PrimEdit e;
  e.prim = pid;
  switch (p.kind) {
    case PrimKind::SetupHoldChk:
    case PrimKind::SetupRiseHoldFallChk:
      e.setup_hold = {from_ns(rng.range(0, 6)), from_ns(rng.range(-2, 3))};
      break;
    case PrimKind::MinPulseWidthChk: {
      Time hi = from_ns(rng.range(0, 8));
      e.min_pulse = {hi, rng.chance(50) ? hi : from_ns(rng.range(0, 8))};
      break;
    }
    default: {
      if (rng.chance(70)) {
        Time lo = from_ns(rng.range(0, 6));
        e.delay = {lo, lo + from_ns(rng.range(0, 4))};
      }
      if (rng.chance(25)) {
        if (p.rise_fall && rng.chance(50)) {
          e.clear_rise_fall = true;
        } else {
          e.set_rise_fall = true;
          Time rl = from_ns(rng.range(0, 4));
          Time fl = from_ns(rng.range(0, 4));
          e.rise_fall = {rl, rl + from_ns(rng.range(0, 3)), fl,
                         fl + from_ns(rng.range(0, 3))};
        }
      }
      break;
    }
  }
  delta.prims.push_back(std::move(e));
}

void add_pin_edit(Rng& rng, const Netlist& nl, NetlistDelta& delta) {
  PrimId pid = static_cast<PrimId>(rng.range(0, static_cast<int>(nl.num_prims()) - 1));
  const Primitive& p = nl.prim(pid);
  NetlistDelta::PinEdit e;
  e.prim = pid;
  e.input = static_cast<std::size_t>(
      rng.range(0, static_cast<int>(p.inputs.size()) - 1));
  // Any signal is a legal target -- including the primitive's own output,
  // which closes a loop and must force the cold fallback.
  e.sig = static_cast<SignalId>(rng.range(0, static_cast<int>(nl.num_signals()) - 1));
  e.invert = rng.chance(20);
  e.directives = p.inputs[e.input].directives;  // keep the evaluation string
  delta.pins.push_back(std::move(e));
}

void add_wire_edit(Rng& rng, const Netlist& nl, NetlistDelta& delta) {
  NetlistDelta::WireEdit e;
  e.sig = static_cast<SignalId>(rng.range(0, static_cast<int>(nl.num_signals()) - 1));
  if (rng.chance(65)) {
    Time lo = from_ns(rng.range(0, 3));
    e.wire = WireDelay{lo, lo + from_ns(rng.range(0, 4))};
  }
  delta.wires.push_back(std::move(e));
}

bool add_assertion_edit(Rng& rng, const Netlist& nl, NetlistDelta& delta) {
  SignalId sig =
      static_cast<SignalId>(rng.range(0, static_cast<int>(nl.num_signals()) - 1));
  const Signal& s = nl.signal(sig);
  Assertion a;
  int pick = rng.range(0, s.driver == kNoPrim ? 3 : 1);
  switch (pick) {
    case 0:
      a.kind = Assertion::Kind::None;
      break;
    case 1: {
      a.kind = Assertion::Kind::Stable;
      double begin = rng.range(0, 6);
      a.ranges.push_back({begin, begin + rng.range(1, 5), std::nullopt});
      break;
    }
    default: {
      // Clock assertions are only legal on undriven signals.
      a.kind = pick == 2 ? Assertion::Kind::PrecisionClock : Assertion::Kind::Clock;
      double begin = rng.range(0, 8);
      a.ranges.push_back({begin, begin + rng.range(1, 6), std::nullopt});
      a.active_low = rng.chance(20);
      if (rng.chance(30)) a.skew_ns = {-static_cast<double>(rng.range(0, 2)), rng.range(0, 2)};
      break;
    }
  }
  std::string text = assertion_to_text(a);
  std::string full = text.empty() ? s.base_name : s.base_name + " " + text;
  // The rename must not collide with another signal (apply_delta would
  // reject the whole delta); skip the edit instead.
  SignalId taken = nl.find(full);
  if (taken != kNoSignal && taken != sig) return false;
  delta.assertions.push_back({sig, std::move(a), s.base_name, std::move(full)});
  return true;
}

void add_case_edit(Rng& rng, const Netlist& nl, const std::vector<CaseSpec>& cases,
                   NetlistDelta& delta) {
  NetlistDelta::CaseEdit e;
  if (!cases.empty() && rng.chance(55)) {
    const CaseSpec& victim = cases[static_cast<std::size_t>(
        rng.range(0, static_cast<int>(cases.size()) - 1))];
    e.name = victim.name;
    if (rng.chance(40)) {
      delta.cases.push_back(std::move(e));  // removal
      return;
    }
    CaseSpec spec = victim;
    if (!spec.pins.empty()) {
      Value& val = spec.pins[static_cast<std::size_t>(
                                 rng.range(0, static_cast<int>(spec.pins.size()) - 1))]
                       .second;
      val = val == Value::Zero ? Value::One : Value::Zero;
    }
    e.spec = std::move(spec);
    delta.cases.push_back(std::move(e));
    return;
  }
  // Add a fresh case pinning 1-2 undriven signals.
  std::vector<SignalId> undriven;
  for (SignalId s = 0; s < nl.num_signals(); ++s) {
    if (nl.signal(s).driver == kNoPrim) undriven.push_back(s);
  }
  if (undriven.empty()) return;
  CaseSpec spec;
  spec.name = "fz" + std::to_string(rng.range(0, 9999));
  for (const CaseSpec& c : cases) {
    if (c.name == spec.name) return;  // keep add/replace semantics unambiguous
  }
  int pins = rng.range(1, 2);
  for (int i = 0; i < pins; ++i) {
    SignalId s = undriven[static_cast<std::size_t>(
        rng.range(0, static_cast<int>(undriven.size()) - 1))];
    spec.pins.emplace_back(s, rng.chance(50) ? Value::One : Value::Zero);
  }
  e.name = spec.name;
  e.spec = std::move(spec);
  if (rng.chance(30) && !cases.empty()) {
    e.at = static_cast<std::size_t>(rng.range(0, static_cast<int>(cases.size())));
  }
  delta.cases.push_back(std::move(e));
}

/// Draws a small (1-3 edit) valid delta against the current netlist and
/// cases, from every delta family -- including pin retargets that close a
/// loop, which the incremental engine must refuse and fall back on.
NetlistDelta random_delta(Rng& rng, const Netlist& nl,
                          const std::vector<CaseSpec>& cases) {
  NetlistDelta delta;
  if (nl.num_prims() == 0 || nl.num_signals() == 0) return delta;
  int edits = rng.range(1, 3);
  bool used_assertion = false, used_case = false;
  for (int i = 0; i < edits; ++i) {
    switch (rng.range(0, 4)) {
      case 0: add_prim_param_edit(rng, nl, delta); break;
      case 1: add_pin_edit(rng, nl, delta); break;
      case 2: add_wire_edit(rng, nl, delta); break;
      case 3:
        // At most one rename per delta: the generator's collision check
        // cannot see names claimed by a sibling edit.
        if (!used_assertion) used_assertion = add_assertion_edit(rng, nl, delta);
        break;
      default:
        if (!used_case) {
          add_case_edit(rng, nl, cases, delta);
          used_case = true;
        }
        break;
    }
  }
  return delta;
}

// --- paths, worlds, identities ---------------------------------------------

/// One execution path: the transforms it applies on top of the reference,
/// which is the all-false Path.
struct Path {
  bool interning = false;  // hash-consed waveforms + evaluation memo-cache
  bool batch = false;      // lane-batched case sweep
  bool compiled = false;   // serialize, load, pre-intern the seed arena
  bool restore = false;    // verify, snapshot, restore into a fresh world
  int steps = 0;           // reverify steps after the baseline
  const char* kind = "memo-diff";  // a divergence from the reference
};

Path make_path(const EquivOptions& o) {
  Path p;
  // Every preset but --memo-diff runs the production engine (interning +
  // batching) underneath its own transform: that is the engine users run.
  p.batch = o.batch || o.compile || o.incr || o.snapshot;
  // The one excluded combination: batching without interning. The lane
  // arena holds interned refs, so without interning the verifier silently
  // runs per case and the path would compare the reference with itself.
  p.interning = o.memo || p.batch;
  p.compiled = o.compile;
  p.restore = o.snapshot;
  if (o.incr || o.snapshot) p.steps = o.steps > 0 ? o.steps : o.incr ? 4 : 3;
  p.kind = o.snapshot ? "snapshot-diff"
           : o.incr   ? "incr-diff"
           : o.compile ? "compile-diff"
           : o.batch  ? "batch-diff"
                      : "memo-diff";
  return p;
}

/// A verifier over its own pristine copy of the design.
struct World {
  std::optional<BuiltCircuit> built;     // source front end
  std::optional<CompiledDesign> loaded;  // compiled front end
  Netlist* nl = nullptr;
  std::vector<CaseSpec> cases;
  std::unique_ptr<Verifier> v;
};

/// The one world builder: builds the spec from source, or loads `artifact`
/// and pre-interns its seed arena as `scaldtv --compiled` does, applies the
/// `script` prefix, then constructs the verifier with the path's engine
/// options. Null (with *error) when the artifact does not load;
/// apply_delta's exceptions propagate.
std::unique_ptr<World> make_world(const CircuitSpec& spec, const std::string* artifact,
                                  const Path& p, const std::vector<NetlistDelta>& script,
                                  std::string* error) {
  auto w = std::make_unique<World>();
  VerifierOptions opts;
  if (artifact) {
    diag::DiagnosticEngine diags;
    w->loaded = load_compiled(*artifact, "<memory>", diags);
    if (!w->loaded) {
      *error = diag::render_text(diags);
      return nullptr;
    }
    w->nl = &w->loaded->netlist;
    opts = w->loaded->options;
    w->cases = w->loaded->cases;
  } else {
    w->built.emplace(build(spec));
    w->nl = &w->built->nl;
    opts = w->built->opts;
    w->cases = w->built->cases;
  }
  for (const NetlistDelta& d : script) apply_delta(*w->nl, w->cases, d);
  if (!w->nl->finalized()) w->nl->finalize();
  opts.interning = p.interning;
  opts.batch_eval = p.batch;
  w->v = std::make_unique<Verifier>(*w->nl, opts);
  if (w->loaded && w->v->evaluator().intern_context()) {
    preintern_seeds(*w->loaded, w->v->evaluator().intern_context()->table);
  }
  return w;
}

/// The one identity renderer: everything observable about a verification
/// except the free-text degradation messages (the partial/degraded flags
/// are compared). The effort counters are left out when the result came
/// from reverify, whose fewer evaluations are the speedup itself.
std::string render_identity(const Netlist& nl, const VerifyResult& r, bool counters) {
  std::ostringstream os;
  os << "converged=" << r.converged << " partial=" << r.partial;
  if (counters) os << " base_events=" << r.base_events << " base_evals=" << r.base_evals;
  os << '\n' << timing_summary(nl) << violations_report(r.violations);
  for (const auto& c : r.cases) {
    os << "case " << c.name << " events=" << c.events << " converged=" << c.converged
       << " degraded=" << c.degraded << '\n'
       << violations_report(c.violations);
  }
  os << "xref:";
  for (SignalId id : r.cross_reference) os << ' ' << id;
  os << '\n';
  return os.str();
}

}  // namespace

std::vector<bool> front_ends(const EquivOptions& opts) {
  if (opts.compile) return {true};
  if (opts.incr || opts.snapshot) return {false, true};
  return {false};
}

std::uint64_t edit_seed_for(std::uint64_t circuit_seed) {
  return circuit_seed * 0x9E3779B97F4A7C15ULL + 0x6C62272E07BB0142ULL;
}

std::optional<Failure> check_equivalence(const CircuitSpec& spec,
                                         const EquivOptions& opts) {
  const Path p = make_path(opts);
  const std::uint64_t edit_seed = opts.edit_seed ? opts.edit_seed : edit_seed_for(spec.seed);
  auto fail = [&](const std::string& kind, int step, const std::string& what) {
    std::ostringstream os;
    os << "seed " << spec.seed << " edit_seed " << edit_seed << " ("
       << (p.compiled ? "compiled" : "source") << ") step " << step << ": " << what;
    return Failure{kind, os.str()};
  };
  auto diverge = [&](const std::string& kind, int step, const std::string& what,
                     const char* a_name, const std::string& a, const char* b_name,
                     const std::string& b) {
    return fail(kind, step,
                what + "\n--- " + a_name + " ---\n" + a + "--- " + b_name + " ---\n" + b);
  };

  // Compiled transform: one artifact, serialized twice (the bytes must be
  // deterministic), from which every world of the path loads.
  std::string artifact;
  if (p.compiled) {
    BuiltCircuit bc = build(spec);
    CompiledSummary summary;
    summary.primitives = bc.nl.num_prims();
    summary.unique_signals = bc.nl.num_signals();
    CompiledDesign design = compile_design("FUZZ", bc.nl, bc.opts, bc.cases, summary);
    artifact = serialize_compiled(design);
    if (serialize_compiled(design) != artifact) {
      return fail("compile-diff", 0,
                  "serializing the same design twice produced different bytes");
    }
  }
  const std::string* front = p.compiled ? &artifact : nullptr;
  std::string error;
  auto path_world = [&]() {
    std::unique_ptr<World> w = make_world(spec, front, p, {}, &error);
    if (!w) error = "a freshly serialized artifact failed to load:\n" + error;
    return w;
  };

  std::unique_ptr<World> a = path_world();
  if (!a) return fail("compile-diff", 0, error);
  if (opts.perturb) opts.perturb(a->cases);
  VerifyResult r = a->v->verify(a->cases);

  // Restore transform: the world above becomes the snapshot writer; the
  // path continues in a fresh world restored from its bytes, and the
  // writer shadows it step by step.
  std::unique_ptr<World> writer;
  std::uint64_t hash = 0;
  if (p.restore) {
    writer = std::move(a);
    if (writer->loaded) hash = writer->loaded->content_hash;
    std::string snap = writer->v->snapshot("FUZZ", hash);
    if (writer->v->snapshot("FUZZ", hash) != snap) {
      return fail("snapshot-unstable", 0,
                  "serializing the same baseline twice produced different bytes");
    }
    diag::DiagnosticEngine diags;
    std::optional<FixpointState> state = load_fixpoint(snap, "<memory>", diags);
    if (!state) {
      return fail("snapshot-reject", 0,
                  "a just-written snapshot failed to load:\n" + diag::render_text(diags));
    }
    a = path_world();
    if (!a) return fail("compile-diff", 0, error);
    if (!a->v->restore(*state, hash, diags)) {
      return fail("snapshot-restore", 0,
                  "restore into a fresh verifier refused:\n" + diag::render_text(diags));
    }
    r = a->v->baseline();
    std::string w_id = render_identity(*writer->nl, writer->v->baseline(), true);
    std::string a_id = render_identity(*a->nl, r, true);
    if (w_id != a_id) {
      return diverge("snapshot-baseline-diff", 0, "restored baseline diverges", "writer",
                     w_id, "restored", a_id);
    }
  }

  Rng rng(edit_seed);
  std::vector<NetlistDelta> script;
  for (int step = 0;; ++step) {
    if (step > 0) {
      script.push_back(random_delta(rng, *a->nl, a->v->baseline_cases()));
      ReverifyStats st, wst;
      try {
        r = a->v->reverify(script.back(), &st);
        if (writer) {
          VerifyResult wr = writer->v->reverify(script.back(), &wst);
          std::string w_id = render_identity(*writer->nl, wr, true);
          std::string a_id = render_identity(*a->nl, r, true);
          if (w_id != a_id || wst.incremental != st.incremental) {
            return diverge("snapshot-diff", step,
                           std::string("writer ") + (wst.incremental ? "incremental" : "cold") +
                               ", restored " + (st.incremental ? "incremental" : "cold") +
                               ": reports diverge",
                           "writer", w_id, "restored", a_id);
          }
          if (writer->v->snapshot("FUZZ", hash) != a->v->snapshot("FUZZ", hash)) {
            return fail("snapshot-state-diff", step,
                        "writer and restored report identically but re-serialize to "
                        "different snapshot bytes");
          }
        }
      } catch (const std::exception& e) {
        return fail("incr-apply-throw", step,
                    std::string("reverify threw on a generated delta: ") + e.what());
      }
    }

    // The reference: a fresh source build with the whole prefix applied,
    // verified cold with interning and batching off.
    std::unique_ptr<World> ref;
    try {
      ref = make_world(spec, nullptr, Path{}, script, &error);
    } catch (const std::exception& e) {
      return fail("incr-harness", step,
                  std::string("the reference refused a delta the path took: ") + e.what());
    }
    VerifyResult rr = ref->v->verify(ref->cases);
    std::string a_id = render_identity(*a->nl, r, step == 0);
    std::string ref_id = render_identity(*ref->nl, rr, step == 0);
    if (a_id != ref_id) {
      return diverge(p.kind, step, "the path diverges from the reference", "path", a_id,
                     "reference", ref_id);
    }
    if (step == p.steps) return std::nullopt;
  }
}

std::string to_cpp(const EquivOptions& o) {
  std::ostringstream os;
  os << std::boolalpha << "tv::check::EquivOptions{.memo = " << o.memo << ", .batch = " << o.batch
     << ", .compile = " << o.compile << ", .incr = " << o.incr
     << ", .snapshot = " << o.snapshot << ", .steps = " << o.steps
     << ", .edit_seed = " << o.edit_seed << "ULL}";
  return os.str();
}

}  // namespace tv::check
