// cold_source, compiled_cases and edit_reverify: the single-process
// workloads. Each op is timed from outside through the libraries' public
// functions; in a traced run the same calls are wrapped in spans, and
// Verifier::verify is replaced by the public calls it is made of.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <set>
#include <stdexcept>

#include "bench.hpp"
#include "core/batch_eval.hpp"
#include "core/checker.hpp"
#include "core/compiled.hpp"
#include "core/cone.hpp"
#include "core/export.hpp"
#include "core/fixpoint.hpp"
#include "core/incremental.hpp"
#include "core/snapshot.hpp"
#include "core/verifier.hpp"
#include "gen.hpp"
#include "hdl/elaborate.hpp"
#include "hdl/parser.hpp"

namespace pb {

namespace {

constexpr int kSetupReps = 3;

double secs_since(Clock::time_point t0) { return ms_since(t0) / 1000.0; }

/// The user-visible output of one verification, as `scaldtv --json FILE`
/// gives it: the listing (header, violations, every case block with
/// violations) and the JSON export with its slack table.
std::string render(const tv::Evaluator& ev, const tv::VerifyResult& r, const std::string& design,
                   Tracer& t, std::uint32_t op) {
  Scope span(t, "report.render", op);
  const tv::Netlist& nl = ev.netlist();
  std::string out;
  char head[256];
  std::snprintf(head, sizeof head, "design %s: %zu primitives, %zu signals, %zu events, %zu case(s)\n",
                design.c_str(), nl.num_prims(), nl.num_signals(), r.base_events, r.cases.size());
  out += head;
  {
    Scope s(t, "report.violations_report", op);
    out += "\n" + tv::violations_report(r.violations);
    for (const auto& c : r.cases) {
      if (c.violations.empty()) continue;
      out += "\ncase \"" + c.name + "\" (" + std::to_string(c.events) + " events):\n" +
             tv::violations_report(c.violations);
    }
  }
  std::vector<tv::SlackEntry> slacks;
  {
    Scope s(t, "report.compute_slacks", op);
    slacks = tv::compute_slacks(ev);
  }
  Scope s(t, "report.export_json", op);
  out += tv::export_json(nl, r, ev.options().period, slacks, design);
  return out;
}

/// Incremental reports equal cold ones except for the cumulative effort
/// counters (docs/incremental.md), so edit_reverify renders without them.
std::string render_no_effort(const tv::Evaluator& ev, tv::VerifyResult r, const std::string& design,
                             Tracer& t, std::uint32_t op) {
  r.base_events = 0;
  r.base_evals = 0;
  return render(ev, r, design, t, op);
}

/// What an op's output is checked against: its rendered report, and the
/// timing summary (every signal's settled waveform), which is rendered for
/// the check only, after the op's clock has stopped.
struct Reference {
  std::string report;
  std::string summary;

  static Reference of(const tv::Evaluator& ev, std::string report) {
    return {std::move(report), tv::timing_summary(ev.netlist())};
  }
  bool matches(const tv::Evaluator& ev, const std::string& rendered,
               bool with_summary = true) const {
    return rendered == report && (!with_summary || tv::timing_summary(ev.netlist()) == summary);
  }
  /// Flips one byte (self-test).
  void corrupt(Rng& rng) {
    std::string& s = rng.chance(0.5) ? report : summary;
    if (!s.empty()) s[rng.below(s.size())] ^= 0x20;
  }
};

/// Counters of the lane-batched case sweep, available only when verify is
/// decomposed (traced run).
struct SweepCounters {
  std::size_t lanes_dirty = 0;    // primitive evaluations performed for a lane
  std::size_t lanes_skipped = 0;  // primitive visits skipped by the base-ref test
};

/// Verifier::verify spelled out as the public calls it is made of, each in
/// its own span. Produces the same VerifyResult as verify() (the rendered
/// report is compared against the same reference). Only the lane-batched
/// case path is spelled out; a run the batch engine would not take throws.
tv::VerifyResult traced_verify(tv::Verifier& v, const std::vector<tv::CaseSpec>& cases,
                               Tracer& t, std::uint32_t op, SweepCounters& sc) {
  tv::Evaluator& ev = v.evaluator();
  const tv::VerifierOptions& opts = ev.options();
  const tv::Netlist& nl = ev.netlist();
  tv::VerifyResult r;
  {
    Scope s(t, "eval.initialize", op);
    ev.initialize();
  }
  {
    Scope s(t, "eval.propagate", op);
    r.base_events = ev.propagate();
  }
  r.base_evals = ev.evals_performed();
  r.converged = ev.converged();
  r.partial = ev.degraded();
  r.degradations = ev.degradations();
  std::vector<tv::Degradation> check_degs;
  {
    Scope s(t, "check.run_checks", op);
    r.violations = tv::run_checks(ev, &check_degs);
  }
  for (tv::Degradation& d : check_degs) {
    r.partial = true;
    r.degradations.push_back(std::move(d));
  }
  r.cross_reference = nl.undefined_unasserted();
  if (cases.empty()) return r;

  tv::InternContext* ctx = ev.intern_context().get();
  if (!opts.batch_eval || ctx == nullptr || r.partial || !r.converged ||
      opts.time_limit_seconds > 0 || opts.deadline.armed() || opts.max_evals_per_prim == 0) {
    throw std::runtime_error("traced verify: the case sweep is not batch-eligible");
  }
  std::vector<std::shared_ptr<const tv::Cone>> cones;
  tv::BatchSchedule sched;
  {
    Scope s(t, "cases.cones", op);
    tv::ConeIndex index(nl);
    cones.reserve(cases.size());
    for (const tv::CaseSpec& c : cases) {
      std::vector<tv::SignalId> pins;
      for (const auto& pin : c.pins) pins.push_back(pin.first);
      cones.push_back(index.cone_of(std::move(pins)));
    }
  }
  {
    Scope s(t, "cases.build_batch_schedule", op);
    sched = tv::build_batch_schedule(nl);
  }
  const std::size_t lanes =
      std::clamp<std::size_t>(opts.batch_lanes ? opts.batch_lanes : 64, 1, 4096);
  r.cases.resize(cases.size());
  std::vector<std::vector<tv::Degradation>> case_degs(cases.size());
  for (std::size_t first = 0; first < cases.size(); first += lanes) {
    const std::size_t count = std::min(lanes, cases.size() - first);
    std::vector<tv::EvalSnapshot> snaps;
    tv::BatchBlockResult br;
    {
      Scope s(t, "cases.run_case_block", op);
      snaps.reserve(count);
      for (std::size_t l = 0; l < count; ++l) {
        snaps.emplace_back(nl, cones[first + l], ctx, &ev.wave_refs());
      }
      br = tv::run_case_block(nl, opts, sched, *ctx, ev.wave_refs(), cases, first, count, cones,
                              snaps);
    }
    if (!br.completed) throw std::runtime_error("traced verify: a lane block did not complete");
    std::vector<const tv::EvalSnapshot*> snap_ptrs(count);
    std::vector<const tv::Cone*> cone_ptrs(count);
    std::vector<char> conv(count);
    for (std::size_t l = 0; l < count; ++l) {
      snap_ptrs[l] = &snaps[l];
      cone_ptrs[l] = cones[first + l].get();
      conv[l] = static_cast<char>(r.converged && br.lanes[l].converged);
    }
    std::vector<std::vector<tv::Violation>> lane_violations;
    {
      Scope s(t, "check.run_checks_batch", op);
      lane_violations =
          tv::run_checks_batch(opts, snap_ptrs, cone_ptrs, conv, ev.wave_refs(), r.violations);
    }
    for (std::size_t l = 0; l < count; ++l) {
      tv::BatchLaneStats& ls = br.lanes[l];
      sc.lanes_dirty += ls.evals;
      sc.lanes_skipped += ls.lane_skips;
      tv::VerifyResult::CaseResult& cr = r.cases[first + l];
      cr.name = cases[first + l].name;
      cr.events = snaps[l].disturbed_signals();
      cr.converged = static_cast<bool>(conv[l]);
      cr.degraded = ls.degraded;
      case_degs[first + l] = std::move(ls.degradations);
      cr.violations = std::move(lane_violations[l]);
      tv::sort_violations(cr.violations);
    }
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    if (r.cases[i].degraded) r.partial = true;
    for (tv::Degradation& d : case_degs[i]) r.degradations.push_back(std::move(d));
  }
  return r;
}

/// Per-op counters of the evaluation, interning and checker layers of a
/// fresh Verifier.
void add_engine_layers(LayerSamples& L, const tv::Verifier& v, const tv::VerifyResult& r) {
  L.add("eval.events", static_cast<double>(r.base_events));
  L.add("eval.evals", static_cast<double>(r.base_evals));
  L.add("check.violations", static_cast<double>(r.total_violations()));
  if (const auto& ctx = v.evaluator().intern_context()) {
    tv::InternStats s = tv::collect_intern_stats(*ctx);
    const double hits = static_cast<double>(s.memo_hits);
    const double misses = static_cast<double>(s.memo_misses);
    L.add("intern.memo_hits", hits);
    L.add("intern.memo_misses", misses);
    if (hits + misses > 0) L.add("intern.memo_hit_rate", hits / (hits + misses));
    L.add("intern.unique_waveforms", static_cast<double>(s.unique_waveforms));
  }
}

// Span names folded into per-layer metrics (span -> metric; a metric fed by
// several spans sums them through the per-op totals below).
const std::vector<std::pair<const char*, const char*>> kVerifySpans = {
    {"hdl.parse", "hdl.parse_ms"},
    {"hdl.elaborate", "hdl.elaborate_ms"},
    {"compiled.load_compiled", "compiled.load_ms"},
    {"report.render", "report.render_ms"},
};

/// Per-op layer totals that span several span names.
void add_verify_layer_sums(LayerSamples& L, const OpLayers& op) {
  auto get = [&](const char* n) {
    auto it = op.span_ms.find(n);
    return it == op.span_ms.end() ? 0.0 : it->second;
  };
  L.add("eval.fixpoint_ms", get("eval.initialize") + get("eval.propagate"));
  L.add("check.ms", get("check.run_checks") + get("check.run_checks_batch"));
  const double cases = get("cases.cones") + get("cases.build_batch_schedule") +
                       get("cases.run_case_block");
  if (cases > 0) L.add("cases.ms", cases);
}

/// One timed op: its latency, and whether its output matched the reference.
struct OpOutcome {
  double ms = 0;
  bool ok = false;
};

}  // namespace

// ---------------------------------------------------------------------------
// cold_source: SHDL text -> parse -> elaborate -> verify -> render.

Result run_cold_source(const RunOptions& o) {
  Result res;
  res.why =
      "front end is ~75% of each op and no case runs: front-end and checker work show here only";
  // Half the designs carry injected violations: an assumption, as no record
  // of real design traffic exists.
  constexpr double kViolationShare = 0.5;

  std::vector<S1Text> designs;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    auto t0 = Clock::now();
    Rng rng(o.seed);
    designs = cold_designs(rng, o.smallest, kViolationShare);
    setup_s.push_back(secs_since(t0));
  }

  // References on an independent path: interning and the batch engine off.
  const std::vector<std::string> ref_out = in_child([&] {
    Tracer off(false);
    std::vector<std::string> out;
    for (const S1Text& d : designs) {
      tv::hdl::ElaboratedDesign ed = tv::hdl::elaborate(tv::hdl::parse(d.shdl));
      ed.options.interning = false;
      ed.options.batch_eval = false;
      tv::Verifier v(ed.netlist, ed.options);
      tv::VerifyResult r = v.verify(ed.cases);
      out.push_back(render(v.evaluator(), r, ed.name, off, 0));
      out.push_back(tv::timing_summary(ed.netlist));
      out.push_back(std::to_string(ed.netlist.num_prims()));
    }
    return out;
  });
  if (ref_out.size() != 3 * designs.size()) throw std::runtime_error("incomplete references");
  std::vector<Reference> refs;
  std::vector<std::size_t> prims;
  for (std::size_t i = 0; i < designs.size(); ++i) {
    refs.push_back({ref_out[3 * i], ref_out[3 * i + 1]});
    prims.push_back(std::stoul(ref_out[3 * i + 2]));
  }
  Rng crng(o.seed + 7);
  if (o.corrupt_reference) refs[crng.below(refs.size())].corrupt(crng);

  std::size_t with_violations = 0;
  std::string size_list;
  for (std::size_t i = 0; i < designs.size(); ++i) {
    with_violations += designs[i].violation_stages.empty() ? 0 : 1;
    size_list += (i ? "," : "") + std::to_string(prims[i]);
  }
  res.properties["primitives_per_design"] = "[" + size_list + "]";
  res.properties["cases"] = "0";
  res.properties["violation_share_assumed"] = json_number(kViolationShare);
  res.properties["share_of_designs_with_violations"] =
      json_number(static_cast<double>(with_violations) / designs.size());
  res.properties["op"] = "\"one design: parse, elaborate, verify, render\"";

  Tracer t(o.trace);
  TraceReport tr;
  std::uint32_t traced_op = 0;
  auto one_op = [&](std::size_t i, bool traced) -> OpOutcome {
    Tracer dummy(false);
    Tracer& tt = traced ? t : dummy;
    const std::uint32_t op = traced ? traced_op++ : 0;
    OpOutcome out;
    SweepCounters sc;
    try {
      auto t0 = Clock::now();
      std::optional<Scope> root(std::in_place, tt, "op.cold_source", op);
      std::optional<tv::hdl::File> file;
      {
        Scope s(tt, "hdl.parse", op);
        file = tv::hdl::parse(designs[i].shdl);
      }
      std::optional<tv::hdl::ElaboratedDesign> ed;
      {
        Scope s(tt, "hdl.elaborate", op);
        ed = tv::hdl::elaborate(*file);
      }
      tv::Verifier v(ed->netlist, ed->options);
      tv::VerifyResult r = traced ? traced_verify(v, ed->cases, tt, op, sc) : v.verify(ed->cases);
      std::string report = render(v.evaluator(), r, ed->name, tt, op);
      root.reset();
      out.ms = ms_since(t0);
      out.ok = refs[i].matches(v.evaluator(), report);
      if (traced) {
        add_engine_layers(tr.layers, v, r);
        tr.layers.add("report.bytes", static_cast<double>(report.size()));
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: cold_source op failed: %s\n", e.what());
    }
    return out;
  };

  reset_peak_rss();
  // Design sizes differ 20-fold, so op latencies are scaled to a
  // 10k-primitive design: the median then stays put as sizes cycle, and the
  // tail shows the per-primitive cost of the largest designs.
  std::vector<double> op_ms_per_10k;
  double total_ms = 0, total_prims = 0, parse_elab_ms = 0, traced_prims = 0;
  const auto start = Clock::now();
  std::size_t cycle = 0;
  do {
    for (std::size_t i = 0; i < designs.size(); ++i) {
      ++res.attempted;
      if (!o.trace) {
        OpOutcome r = one_op(i, false);
        res.failed += r.ok ? 0 : 1;
        total_ms += r.ms;
        total_prims += static_cast<double>(prims[i]);
        op_ms_per_10k.push_back(r.ms * 1e4 / static_cast<double>(prims[i]));
        continue;
      }
      // Traced run: the same input untraced and traced, alternating order.
      const bool traced_first = (cycle + i) % 2 == 1;
      OpOutcome a = one_op(i, traced_first);
      OpOutcome b = one_op(i, !traced_first);
      const OpOutcome& tr_out = traced_first ? a : b;
      const OpOutcome& un_out = traced_first ? b : a;
      res.failed += (a.ok && b.ok) ? 0 : 1;
      tr.traced_ms.push_back(tr_out.ms);
      tr.untraced_ms.push_back(un_out.ms);
      traced_prims += static_cast<double>(prims[i]);
    }
    ++cycle;
  } while (secs_since(start) < o.seconds);

  if (!o.trace) {
    put(res, "setup_s", median(setup_s), "s", setup_s.size());
    put(res, "throughput_per_s", total_prims / (total_ms / 1000.0), "1/s",
        op_ms_per_10k.size());
    put_latency(res, op_ms_per_10k);
    res.properties["latency_basis"] = "\"op latency scaled to a 10k-primitive design\"";
    put(res, "peak_rss_mb", peak_rss_mb(), "MB");
    res.properties["throughput_item"] = "\"primitive\"";
    return res;
  }
  for (const OpLayers& op : layers_by_op(t)) {
    add_verify_layer_sums(tr.layers, op);
    auto p = op.span_ms.find("hdl.parse");
    auto e = op.span_ms.find("hdl.elaborate");
    if (p != op.span_ms.end() && e != op.span_ms.end()) parse_elab_ms += p->second + e->second;
  }
  if (traced_prims > 0) tr.layers.add("hdl.us_per_prim", parse_elab_ms * 1000.0 / traced_prims);
  tr.finish(res, t, o, kVerifySpans);
  return res;
}

// ---------------------------------------------------------------------------
// compiled_cases: .tvc bytes -> load_compiled -> verify(cases) -> render.

Result run_compiled_cases(const RunOptions& o) {
  Result res;
  res.why = "front end bypassed; the lane-batched case sweep over ~2k cases does most of the work";
  const int stages = o.smallest ? 4 : 512;

  std::string bytes;
  Reference ref;
  std::vector<double> setup_s, serialize_ms;
  std::size_t prims = 0, ncases = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    auto t0 = Clock::now();
    Rng rng(o.seed);
    // No injected violations, on every seed: with them the op's allocations
    // happen to leave the top of the heap in use, so glibc does not trim it
    // and the op skips most of its page faults (about 20% faster); a seeded
    // share would split the seeds into two speeds. The cases' checks still
    // run on every op.
    S1Text text = make_s1(stages, {});
    tv::hdl::ElaboratedDesign ed = tv::hdl::elaborate(tv::hdl::parse(text.shdl));
    std::vector<tv::CaseSpec> cases = ctl_cases(ed.netlist, rng, stages);
    tv::CompiledSummary sum;
    sum.primitives = ed.summary.primitives;
    tv::CompiledDesign cd = tv::compile_design(ed.name, ed.netlist, ed.options, cases, sum);
    auto ts = Clock::now();
    bytes = tv::serialize_compiled(cd);
    serialize_ms.push_back(ms_since(ts));
    setup_s.push_back(secs_since(t0));
    if (rep + 1 < kSetupReps) continue;
    prims = ed.netlist.num_prims();
    ncases = cases.size();
    // Reference on the source-elaborated netlist, interning and batching off.
    std::vector<std::string> out = in_child([&] {
      ed.options.interning = false;
      ed.options.batch_eval = false;
      tv::Verifier v(ed.netlist, ed.options);
      tv::VerifyResult r = v.verify(cases);
      Tracer off(false);
      return std::vector<std::string>{render(v.evaluator(), r, ed.name, off, 0),
                                      tv::timing_summary(ed.netlist)};
    });
    if (out.size() != 2) throw std::runtime_error("incomplete reference");
    ref = {out[0], out[1]};
  }
  Rng crng(o.seed + 7);
  if (o.corrupt_reference) ref.corrupt(crng);
  res.properties["primitives"] = std::to_string(prims);
  res.properties["cases"] = std::to_string(ncases);
  res.properties["injected_violation_stages"] = "0";
  res.properties["jobs"] = "1";
  res.properties["op"] = "\"load_compiled, verify every case, render\"";

  Tracer t(o.trace);
  TraceReport tr;
  std::uint32_t traced_op = 0;
  auto one_op = [&](bool traced) -> OpOutcome {
    Tracer dummy(false);
    Tracer& tt = traced ? t : dummy;
    const std::uint32_t op = traced ? traced_op++ : 0;
    OpOutcome out;
    SweepCounters sc;
    try {
      auto t0 = Clock::now();
      std::optional<Scope> root(std::in_place, tt, "op.compiled_cases", op);
      tv::diag::DiagnosticEngine diags;
      std::optional<tv::CompiledDesign> cd;
      {
        Scope s(tt, "compiled.load_compiled", op);
        cd = tv::load_compiled(bytes, "cases.tvc", diags);
      }
      if (!cd) throw std::runtime_error("load_compiled rejected the artifact");
      cd->options.jobs = 1;
      tv::Verifier v(cd->netlist, cd->options);
      if (v.evaluator().intern_context()) {
        Scope s(tt, "compiled.preintern_seeds", op);
        tv::preintern_seeds(*cd, v.evaluator().intern_context()->table);
      }
      tv::VerifyResult r = traced ? traced_verify(v, cd->cases, tt, op, sc) : v.verify(cd->cases);
      std::string report = render(v.evaluator(), r, cd->name, tt, op);
      root.reset();
      out.ms = ms_since(t0);
      out.ok = ref.matches(v.evaluator(), report);
      if (traced) {
        add_engine_layers(tr.layers, v, r);
        tr.layers.add("cases.lanes_dirty", static_cast<double>(sc.lanes_dirty));
        tr.layers.add("cases.lanes_skipped", static_cast<double>(sc.lanes_skipped));
        tr.layers.add("report.bytes", static_cast<double>(report.size()));
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: compiled_cases op failed: %s\n", e.what());
    }
    return out;
  };

  reset_peak_rss();
  std::vector<double> op_ms;
  const auto start = Clock::now();
  for (std::size_t i = 0; i == 0 || secs_since(start) < o.seconds; ++i) {
    ++res.attempted;
    if (!o.trace) {
      OpOutcome r = one_op(false);
      res.failed += r.ok ? 0 : 1;
      op_ms.push_back(r.ms);
      continue;
    }
    const bool traced_first = i % 2 == 1;
    OpOutcome a = one_op(traced_first);
    OpOutcome b = one_op(!traced_first);
    res.failed += (a.ok && b.ok) ? 0 : 1;
    tr.traced_ms.push_back(traced_first ? a.ms : b.ms);
    tr.untraced_ms.push_back(traced_first ? b.ms : a.ms);
  }

  if (!o.trace) {
    put(res, "setup_s", median(setup_s), "s", setup_s.size());
    std::vector<double> rate;
    for (double ms : op_ms) rate.push_back(static_cast<double>(ncases) / (ms / 1000.0));
    put(res, "throughput_per_s", median(rate), "1/s", rate.size());
    put_latency(res, op_ms);
    put(res, "peak_rss_mb", peak_rss_mb(), "MB");
    res.properties["throughput_item"] = "\"case instance\"";
    return res;
  }
  for (const OpLayers& op : layers_by_op(t)) add_verify_layer_sums(tr.layers, op);
  tr.layers.add("compiled.bytes", static_cast<double>(bytes.size()));
  tr.layers.add("compiled.serialize_ms", median(serialize_ms));
  tr.finish(res, t, o, kVerifySpans);
  return res;
}

// ---------------------------------------------------------------------------
// edit_reverify: one resident Verifier; each op is one delta JSON edit.

Result run_edit_reverify(const RunOptions& o) {
  Result res;
  res.why = "writes to the netlist: cone-scoped reverify, delta JSON reader and .tvf restore";
  const int stages = o.smallest ? 4 : 512;
  const int case_stages = o.smallest ? 2 : 64;  // 4 cases per stage
  constexpr std::size_t kEdits = 10 * kEditFamilies;
  constexpr std::size_t kSampledRefs = 3;
  constexpr std::size_t kWarmStartEvery = 8;

  std::string bytes, tvf;
  Reference base_ref;
  std::optional<tv::CompiledDesign> resident;
  std::unique_ptr<tv::Verifier> v;
  std::vector<Edit> edits;
  std::vector<double> setup_s, serialize_ms, snap_serialize_ms;
  Tracer off(false);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    v.reset();
    resident.reset();
    auto t0 = Clock::now();
    Rng rng(o.seed);
    S1Text text = make_s1(stages, {});
    tv::hdl::ElaboratedDesign ed = tv::hdl::elaborate(tv::hdl::parse(text.shdl));
    std::vector<tv::CaseSpec> cases = ctl_cases(ed.netlist, rng, case_stages);
    tv::CompiledSummary sum;
    sum.primitives = ed.summary.primitives;
    tv::CompiledDesign cd = tv::compile_design(ed.name, ed.netlist, ed.options, cases, sum);
    auto ts = Clock::now();
    bytes = tv::serialize_compiled(cd);
    serialize_ms.push_back(ms_since(ts));
    tv::diag::DiagnosticEngine diags;
    resident = tv::load_compiled(bytes, "edit.tvc", diags);
    if (!resident) throw std::runtime_error("load_compiled rejected the artifact");
    resident->options.jobs = 1;
    v = std::make_unique<tv::Verifier>(resident->netlist, resident->options);
    if (v->evaluator().intern_context()) {
      tv::preintern_seeds(*resident, v->evaluator().intern_context()->table);
    }
    tv::VerifyResult base = v->verify(resident->cases);
    base_ref = Reference::of(v->evaluator(),
                             render_no_effort(v->evaluator(), base, resident->name, off, 0));
    auto tf = Clock::now();
    tvf = tv::serialize_fixpoint(*v, resident->name, resident->content_hash);
    snap_serialize_ms.push_back(ms_since(tf));
    edits = make_edits(resident->netlist, resident->cases, stages, rng, kEdits);
    setup_s.push_back(secs_since(t0));
  }

  // References: each inverse must give back the baseline bytes, and a seeded
  // sample of edits is compared with a cold verify of the edited design (a
  // fresh load of the artifact, interning and batching off).
  Rng srng(o.seed + 3);
  std::map<std::size_t, Reference> edit_refs;
  std::vector<std::size_t> order(edits.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[srng.below(i)]);
  order.resize(std::min(kSampledRefs, order.size()));
  const std::vector<std::string> ref_out = in_child([&] {
    std::vector<std::string> out;
    for (std::size_t i : order) {
      tv::diag::DiagnosticEngine diags;
      std::optional<tv::CompiledDesign> cd = tv::load_compiled(bytes, "edit.tvc", diags);
      if (!cd) throw std::runtime_error("load_compiled rejected the artifact");
      tv::NetlistDelta delta;
      std::string err;
      if (!tv::parse_delta_json(edits[i].json, cd->netlist, &delta, &err)) {
        throw std::runtime_error("generated delta rejected: " + err);
      }
      tv::apply_delta(cd->netlist, cd->cases, delta);
      if (!cd->netlist.finalized()) cd->netlist.finalize();
      cd->options.interning = false;
      cd->options.batch_eval = false;
      tv::Verifier cold(cd->netlist, cd->options);
      tv::VerifyResult r = cold.verify(cd->cases);
      out.push_back(render_no_effort(cold.evaluator(), r, cd->name, off, 0));
      out.push_back(tv::timing_summary(cd->netlist));
    }
    return out;
  });
  if (ref_out.size() != 2 * order.size()) throw std::runtime_error("incomplete references");
  for (std::size_t k = 0; k < order.size(); ++k) {
    edit_refs[order[k]] = {ref_out[2 * k], ref_out[2 * k + 1]};
  }
  Rng crng(o.seed + 7);
  if (o.corrupt_reference) base_ref.corrupt(crng);

  res.properties["primitives"] = std::to_string(resident->netlist.num_prims());
  res.properties["cases"] = std::to_string(resident->cases.size());
  res.properties["distinct_edits"] = std::to_string(edits.size());
  res.properties["edits_sampled_for_cold_verify"] = std::to_string(edit_refs.size());
  res.properties["warm_start_every_ops"] = std::to_string(kWarmStartEvery);
  res.properties["op"] = "\"parse_delta_json, reverify, render; inverse restores the baseline\"";

  Tracer t(o.trace);
  TraceReport tr;
  std::uint32_t traced_op = 0;
  std::size_t fallbacks = 0, traced_edits = 0, inverse_checks = 0;
  std::vector<std::size_t> edit_runs(edits.size());  // timed runs of each edit
  std::set<std::size_t> cold_checked;                // sampled edits compared
  std::map<std::string, std::vector<double>> family_ms;  // traced edit latency by family

  // One edit: timed apply + render, then the untimed inverse and its check.
  auto edit_op = [&](std::size_t i, bool traced) -> OpOutcome {
    Tracer dummy(false);
    Tracer& tt = traced ? t : dummy;
    const std::uint32_t op = traced ? traced_op++ : 0;
    OpOutcome out;
    try {
      tv::InternStats before;
      if (traced && v->evaluator().intern_context()) {
        before = tv::collect_intern_stats(*v->evaluator().intern_context());
      }
      auto t0 = Clock::now();
      tv::NetlistDelta delta;
      tv::ReverifyStats st;
      tv::VerifyResult r;
      std::string report;
      {
        Scope root(tt, "op.edit", op);
        std::string err;
        bool parsed;
        {
          Scope s(tt, "incr.parse_delta_json", op);
          parsed = tv::parse_delta_json(edits[i].json, resident->netlist, &delta, &err);
        }
        if (!parsed) throw std::runtime_error("delta rejected: " + err);
        {
          Scope s(tt, "incr.reverify", op);
          r = v->reverify(delta, &st);
        }
        report = render_no_effort(v->evaluator(), r, resident->name, tt, op);
      }
      out.ms = ms_since(t0);
      if (traced) family_ms[edit_family_name(edits[i].family)].push_back(out.ms);
      ++edit_runs[i];
      auto ref = edit_refs.find(i);
      bool ok = true;
      if (ref != edit_refs.end()) {
        ok = ref->second.matches(v->evaluator(), report);
        cold_checked.insert(i);
      }
      if (traced) {
        ++traced_edits;
        fallbacks += st.incremental ? 0 : 1;
        LayerSamples& L = tr.layers;
        L.add("incr.dirty_prims", static_cast<double>(st.dirty_prims.size()));
        L.add("incr.touched_signals", static_cast<double>(st.touched_signals));
        L.add("incr.cases_reevaluated", static_cast<double>(st.cases_reevaluated));
        L.add("incr.cases_spliced", static_cast<double>(st.cases_spliced));
        L.add("eval.events", static_cast<double>(st.events));
        L.add("eval.evals", static_cast<double>(st.evals));
        L.add("check.violations", static_cast<double>(r.total_violations()));
        L.add("report.bytes", static_cast<double>(report.size()));
        if (v->evaluator().intern_context()) {
          tv::InternStats after = tv::collect_intern_stats(*v->evaluator().intern_context());
          const double hits = static_cast<double>(after.memo_hits - before.memo_hits);
          const double misses = static_cast<double>(after.memo_misses - before.memo_misses);
          L.add("intern.memo_hits", hits);
          L.add("intern.memo_misses", misses);
          if (hits + misses > 0) L.add("intern.memo_hit_rate", hits / (hits + misses));
          L.add("intern.unique_waveforms", static_cast<double>(after.unique_waveforms));
        }
      }
      // Every inverse must give back the baseline report; the full waveform
      // state (timing summary, ~2x the report's cost) is compared on every
      // fourth, so the untimed checks do not crowd out the timed ops.
      tv::ReverifyStats undo;
      tv::VerifyResult back = v->reverify(st.inverse, &undo);
      ok = ok && base_ref.matches(v->evaluator(),
                                  render_no_effort(v->evaluator(), back, resident->name, off, 0),
                                  inverse_checks++ % 4 == 0);
      out.ok = ok;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: edit_reverify op failed: %s\n", e.what());
    }
    return out;
  };

  // Warm start: a fresh process's view -- artifact + snapshot -> report.
  auto warm_op = [&](bool traced) -> OpOutcome {
    Tracer dummy(false);
    Tracer& tt = traced ? t : dummy;
    const std::uint32_t op = traced ? traced_op++ : 0;
    OpOutcome out;
    try {
      auto t0 = Clock::now();
      std::optional<Scope> root(std::in_place, tt, "op.warm_start", op);
      tv::diag::DiagnosticEngine diags;
      std::optional<tv::CompiledDesign> cd;
      {
        Scope s(tt, "compiled.load_compiled", op);
        cd = tv::load_compiled(bytes, "edit.tvc", diags);
      }
      if (!cd) throw std::runtime_error("load_compiled rejected the artifact");
      std::optional<tv::FixpointState> fs;
      {
        Scope s(tt, "snap.load_fixpoint", op);
        fs = tv::load_fixpoint(tvf, "edit.tvc.tvf", diags);
      }
      if (!fs) throw std::runtime_error("load_fixpoint rejected the snapshot");
      cd->options.jobs = 1;
      tv::Verifier w(cd->netlist, cd->options);
      bool restored;
      {
        Scope s(tt, "snap.restore", op);
        restored = w.restore(*fs, cd->content_hash, diags);
      }
      if (!restored) throw std::runtime_error("restore refused the snapshot");
      std::string report = render_no_effort(w.evaluator(), w.baseline(), cd->name, tt, op);
      root.reset();
      out.ms = ms_since(t0);
      out.ok = base_ref.matches(w.evaluator(), report);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: edit_reverify warm start failed: %s\n", e.what());
    }
    return out;
  };

  reset_peak_rss();
  std::vector<double> op_ms, warm_ms;
  const auto start = Clock::now();
  // Edits are taken in turn by their own counter, and the run goes on until
  // each has run once, so every edit and every sampled check runs.
  std::size_t edit_ops = 0;
  for (std::size_t n = 0; edit_ops < edits.size() || secs_since(start) < o.seconds; ++n) {
    const bool warm = n % kWarmStartEvery == kWarmStartEvery - 1;
    const std::size_t i = warm ? 0 : edit_ops++ % edits.size();
    ++res.attempted;
    if (!o.trace) {
      OpOutcome r = warm ? warm_op(false) : edit_op(i, false);
      res.failed += r.ok ? 0 : 1;
      (warm ? warm_ms : op_ms).push_back(r.ms);
      continue;
    }
    const bool traced_first = n % 2 == 1;
    OpOutcome a = warm ? warm_op(traced_first) : edit_op(i, traced_first);
    OpOutcome b = warm ? warm_op(!traced_first) : edit_op(i, !traced_first);
    res.failed += (a.ok && b.ok) ? 0 : 1;
    if (!warm) {
      tr.traced_ms.push_back(traced_first ? a.ms : b.ms);
      tr.untraced_ms.push_back(traced_first ? b.ms : a.ms);
    }
  }

  std::size_t family_runs[kEditFamilies] = {}, runs = 0;
  for (std::size_t i = 0; i < edits.size(); ++i) {
    family_runs[static_cast<int>(edits[i].family)] += edit_runs[i];
    runs += edit_runs[i];
  }
  std::string shares;
  for (int f = 0; f < kEditFamilies; ++f) {
    const double share = runs ? static_cast<double>(family_runs[f]) / runs : 0.0;
    shares += std::string(f ? ", " : "") + "\"" + edit_family_name(static_cast<EditFamily>(f)) +
              "\": " + json_number(share);
  }
  res.properties["edit_family_shares"] = "{" + shares + "}";
  res.properties["edit_family_shares_basis"] = "\"edits run; equal shares assumed\"";
  res.properties["edits_run"] = std::to_string(
      std::count_if(edit_runs.begin(), edit_runs.end(), [](std::size_t k) { return k > 0; }));
  res.properties["edits_checked_against_cold_verify"] = std::to_string(cold_checked.size());

  if (!o.trace) {
    put(res, "setup_s", median(setup_s), "s", setup_s.size());
    double total_ms = 0;
    for (double ms : op_ms) total_ms += ms;
    put(res, "throughput_per_s", static_cast<double>(op_ms.size()) / (total_ms / 1000.0), "1/s",
        op_ms.size());
    put_latency(res, op_ms);
    put(res, "peak_rss_mb", peak_rss_mb(), "MB");
    res.properties["throughput_item"] = "\"edit\"";
    res.properties["warm_start_ms"] = json_number(median(warm_ms));
    res.properties["warm_start_samples"] = std::to_string(warm_ms.size());
    return res;
  }
  for (const OpLayers& op : layers_by_op(t)) {
    auto get = [&](const char* name) {
      auto it = op.span_ms.find(name);
      return it == op.span_ms.end() ? -1.0 : it->second;
    };
    if (get("op.warm_start") >= 0) tr.layers.add("snap.warm_start_ms", get("op.warm_start"));
  }
  tr.layers.add("compiled.bytes", static_cast<double>(bytes.size()));
  tr.layers.add("compiled.serialize_ms", median(serialize_ms));
  tr.layers.add("snap.serialize_ms", median(snap_serialize_ms));
  tr.layers.add("snap.bytes", static_cast<double>(tvf.size()));
  tr.layers.add("incr.fallback_frac",
                traced_edits ? static_cast<double>(fallbacks) / traced_edits : 0.0);
  std::string by_family;
  for (const auto& [family, xs] : family_ms) {
    by_family += (by_family.empty() ? "\"" : ", \"") + family + "\": " + json_number(median(xs));
  }
  res.properties["traced_edit_p50_ms_by_family"] = "{" + by_family + "}";
  tr.finish(res, t, o,
            {{"incr.parse_delta_json", "incr.parse_delta_ms"},
             {"incr.reverify", "incr.reverify_ms"},
             {"compiled.load_compiled", "compiled.load_ms"},
             {"snap.load_fixpoint", "snap.load_ms"},
             {"snap.restore", "snap.restore_ms"},
             {"report.render", "report.render_ms"}});
  return res;
}

}  // namespace pb
