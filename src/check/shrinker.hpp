// Counterexample minimization for the differential harness.
//
// Both shrinkers are greedy delta-debuggers over the plain-data specs: each
// pass proposes a list of simplifying mutations (drop a stage, zero a skew,
// collapse a delay range, halve a number, ...), keeps the first mutation
// under which the failure predicate still fires, and repeats to a fixpoint.
// Mutations that produce an unbuildable spec are rejected by the predicate
// wrapper, so candidates do not need to preserve validity.
#pragma once

#include <functional>
#include <string>

#include "check/oracles.hpp"

namespace tv::check {

/// Returns true when the (possibly mutated) spec still exhibits the failure
/// being minimized. Predicates should compare the Failure kind so shrinking
/// cannot wander onto a different bug.
using CircuitPred = std::function<bool(const CircuitSpec&)>;
using WavePred = std::function<bool(const WaveCase&)>;

/// Greedily minimizes a failing circuit spec. `still_fails` is invoked at
/// most `max_checks` times; exceptions thrown by it count as "does not
/// fail". The input spec must satisfy the predicate.
CircuitSpec shrink_circuit(const CircuitSpec& failing, const CircuitPred& still_fails,
                           int max_checks = 4000);

WaveCase shrink_wave(const WaveCase& failing, const WavePred& still_fails,
                     int max_checks = 4000);

/// Renders a ready-to-paste gtest regression test asserting that the given
/// spec passes the named oracle: `check_call`, an expression over the spec
/// `s`, must return no failure.
std::string gtest_repro(const CircuitSpec& spec, const std::string& oracle_kind,
                        const std::string& check_call = "tv::check::check_conservatism(s)");
std::string gtest_repro(const WaveCase& wc, const std::string& oracle_kind);

}  // namespace tv::check
