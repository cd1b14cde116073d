// The equivalence harness (docs/engine_internals.md, "Equivalence harness";
// tvfuzz --memo-diff/--batch-diff/--compile-diff/--incr-diff/--snapshot-diff).
//
// Every execution path must produce the reference report byte for byte, and
// so must every composition of paths. The *reference* is the plainest
// verifier there is: per edit step, a cold verify of a fresh source build of
// the spec with the edit-script prefix applied, interning and batching off.
// A *path* applies transforms on top of it -- interning, lane batching, the
// compiled-artifact round trip, a .tvf snapshot restore, K reverify steps --
// and is compared with the reference after its baseline and after every
// step. Each preset flag contributes its transforms; several presets given
// together compose into one path.
//
// Checks that are properties of a single transform rather than comparisons
// with the reference stay inside that transform: the compiled round trip
// demands deterministic artifact bytes; the restore transform demands
// deterministic snapshot bytes, a restored baseline identical to the
// writer's (effort counters included), the same incremental/fallback
// decision on both sides at every step, and byte-identical re-snapshots.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "check/oracles.hpp"
#include "check/rand_netlist.hpp"

namespace tv::check {

/// Which presets to compose, plus the knobs a shrunk repro pins. With no
/// preset set the path is the reference itself.
struct EquivOptions {
  bool memo = false;      // --memo-diff: interning + evaluation memo-cache
  bool batch = false;     // --batch-diff: lane-batched case sweep
  bool compile = false;   // --compile-diff: compiled-artifact round trip
  bool incr = false;      // --incr-diff: K reverify steps
  bool snapshot = false;  // --snapshot-diff: .tvf restore, then K steps
  /// Reverify steps for incr/snapshot; 0 = preset default (4 with incr,
  /// else 3).
  int steps = 0;
  /// Seed of the edit script; 0 derives it from the circuit seed. Pinned
  /// by the shrinker so the script stays fixed while the circuit shrinks.
  std::uint64_t edit_seed = 0;
  /// Self-test hook: edits the path's case list before its first verify,
  /// so a divergence the harness must report can be planted on purpose.
  std::function<void(std::vector<CaseSpec>&)> perturb = nullptr;
};

/// The front ends (false = source, true = compiled) a preset set is run
/// on: --compile-diff pins the compiled one, --incr-diff and
/// --snapshot-diff sweep both, the rest run the source front end. The
/// compiled leg is run by setting `compile`; the failure kind stays the
/// outermost preset's.
std::vector<bool> front_ends(const EquivOptions& opts);

/// The edit-script seed derived from a circuit seed.
std::uint64_t edit_seed_for(std::uint64_t circuit_seed);

/// Runs the composed path against the reference. Returns the first
/// divergence -- kind "memo-diff", "batch-diff", "compile-diff",
/// "incr-diff" or "snapshot-diff" after the outermost preset, a transform's
/// own "compile-diff"/"snapshot-*", or "incr-apply-throw"/"incr-harness"
/// when a generated delta throws -- or nullopt when every step matched.
std::optional<Failure> check_equivalence(const CircuitSpec& spec,
                                         const EquivOptions& opts);

/// Renders `opts` (without the hook) as a C++ expression for a repro.
std::string to_cpp(const EquivOptions& opts);

}  // namespace tv::check
