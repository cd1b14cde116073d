// The seeded workload generator shared by all four workloads. Everything the
// program under test sees -- SHDL text, artifact bytes, delta JSON, job
// lists -- is made here from the run's seed, and each generator records the
// input properties the program's behaviour depends on.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"
#include "core/evaluator.hpp"
#include "core/netlist.hpp"

namespace pb {

/// One synthetic S-1 design as SHDL text (tv::gen's generator), with a setup
/// violation injected into each stage of `violation_stages`: that stage's
/// result OR gets a 40 ns maximum delay, so its output register misses set-up.
struct S1Text {
  int stages = 0;
  std::vector<int> violation_stages;
  std::string shdl;
};
S1Text make_s1(int stages, std::vector<int> violation_stages);

/// Picks the stages of a `stages`-stage design that get an injected
/// violation: with probability `share` the design carries 1-3 of them.
std::vector<int> pick_violation_stages(Rng& rng, int stages, double share);

/// cold_source's design cycle: five size classes from ~5k to ~100k
/// primitives (stage counts jittered by the seed), in seeded order.
std::vector<S1Text> cold_designs(Rng& rng, bool smallest, double violation_share);

/// Control-pinning cases on the first `stages` stages: per stage two of the
/// controls whose fanout stays inside the stage (CTL 0, 1, 8, 9, 10 -- the
/// others reach every later stage through the control pipeline, which would
/// make cost depend on the seed), each pinned to 0 and to 1. The seed
/// decides which stage gets which pair; every pair is used equally often.
std::vector<tv::CaseSpec> ctl_cases(const tv::Netlist& nl, Rng& rng, int stages);

enum class EditFamily { DelayTweak, DelayViolation, Wire, AssertionRename, CaseEdit, PinRetarget };
inline constexpr int kEditFamilies = 6;
const char* edit_family_name(EditFamily f);

/// One designer edit as the delta JSON scaldtv --reverify reads.
struct Edit {
  EditFamily family = EditFamily::DelayTweak;
  std::string json;
};

/// `n` seeded edits on an S-1 design with `stages` stages and case list
/// `cases`. Each consecutive block of kEditFamilies edits holds every family
/// once, in seeded order, so the families get equal shares -- an assumption:
/// no record of real edit traffic exists. The k-th edit of a family takes
/// its stage (and case) from the k-th of n / kEditFamilies equal slices of
/// the design (and case list). Case edits become delay tweaks when there
/// are no cases.
std::vector<Edit> make_edits(const tv::Netlist& nl, const std::vector<tv::CaseSpec>& cases,
                             int stages, Rng& rng, std::size_t n);

}  // namespace pb
