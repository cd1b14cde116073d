// The two self-checking oracles of the differential harness.
//
// 1. Conservatism oracle (thesis secs. 1.4.1.1, 2.4): the Timing Verifier's
//    one symbolic cycle must *cover* every violation the value-level logic
//    simulator can expose under any input pattern. The oracle enumerates
//    small control patterns, samples concrete delay realizations within each
//    primitive's [dmin, dmax] (per polarity when rise/fall-modeled), samples
//    clock-skew and data-arrival realizations allowed by the assertions, and
//    demands that every steady-state simulator violation is matched by a
//    symbolic violation.
//
// 2. Waveform-algebra oracle: structural invariants of the sec. 2.8 value
//    lists (widths sum to the period, positive widths, merged neighbors),
//    delayed(0,0) identity, delayed() composition, with_skew_incorporated
//    idempotence and soundness against sampled shifts, binary/map pointwise
//    consistency with at(), and a concrete-replay conservatism check of
//    delayed_rise_fall: every independent per-edge delay realization must be
//    covered pointwise by the symbolic result.
//
// Both oracles operate on plain-data specs (CircuitSpec / WaveCase) so
// failures can be shrunk (src/check/shrinker.hpp) and replayed from a
// pasted literal.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "check/rand_netlist.hpp"

namespace tv::check {

/// One oracle failure: `kind` is a stable machine-readable tag
/// ("conservatism", "case-conservatism", "case-refinement", "unconverged",
/// "canonical-form", "delayed-identity", "delayed-composition",
/// "skew-idempotent", "skew-coverage", "pointwise", "rise-fall-coverage"),
/// `detail` a human-readable account of the witness.
struct Failure {
  std::string kind;
  std::string detail;
};

/// covers(model, reality): true when the symbolic value `model` soundly
/// describes a signal that is actually `reality` at the same instant.
/// UNKNOWN covers everything; CHANGE covers everything but UNKNOWN; RISE and
/// FALL cover {0, 1, STABLE, themselves} (a claimed edge that never fires is
/// pessimistic, never unsound); STABLE covers {0, 1, STABLE}; 0/1 cover only
/// themselves.
bool covers(Value model, Value reality);

struct ConservatismStats {
  int sim_runs = 0;            // concrete simulations executed
  int sim_violating_runs = 0;  // runs that exposed at least one violation
  bool tv_found = false;       // symbolic run reported any violation
};

/// Runs the full differential check for one circuit spec. Returns the first
/// failure found, or nullopt when the verifier covers every sampled reality.
std::optional<Failure> check_conservatism(const CircuitSpec& spec,
                                          ConservatismStats* stats = nullptr);

// --- waveform-algebra fuzzing ----------------------------------------------

/// One set() call applied while materializing a waveform spec.
struct WaveOp {
  int at_ns = 0;
  int width_ns = 1;
  char value = 'S';  // 0 1 S C R F U
};

struct WaveSpec {
  int period_ns = 50;
  char fill = 'S';
  std::vector<WaveOp> ops;
  int skew_ns = 0;
};

Waveform materialize(const WaveSpec& spec);

/// A waveform-algebra differential case: a base waveform plus the delay
/// parameters the invariants are exercised with.
struct WaveCase {
  std::uint64_t seed = 0;  // provenance; also derives the binary-op partner
  WaveSpec base;
  int rise_min_ns = 0, rise_max_ns = 0;
  int fall_min_ns = 0, fall_max_ns = 0;
  int d1_min_ns = 0, d1_max_ns = 0;  // delayed() composition, first hop
  int d2_min_ns = 0, d2_max_ns = 0;  // second hop
};

WaveCase random_wave_case(std::uint64_t seed);
std::optional<Failure> check_wave_algebra(const WaveCase& wc);

/// Renders the case as C++ statements building a `tv::check::WaveCase w;`.
std::string to_cpp(const WaveCase& wc);

}  // namespace tv::check
