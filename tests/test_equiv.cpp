// The equivalence harness (check/equiv.hpp): every tvfuzz preset and the
// composition of all of them match the plain reference verify, and a path
// perturbed on purpose is caught and reported under its preset's kind --
// the proof that the comparison is not vacuous.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/equiv.hpp"

namespace {

using namespace tv;

struct Preset {
  const char* kind;
  check::EquivOptions opts;
};

std::vector<Preset> presets() {
  return {{"memo-diff", {.memo = true}},
          {"batch-diff", {.batch = true}},
          {"compile-diff", {.compile = true}},
          {"incr-diff", {.incr = true}},
          {"snapshot-diff", {.snapshot = true}}};
}

check::EquivOptions all_transforms() {
  return {.memo = true, .batch = true, .compile = true, .incr = true, .snapshot = true};
}

/// Flips the first pin of the first case: the path then verifies a
/// different case than the reference does.
void flip_first_pin(std::vector<CaseSpec>& cases) {
  if (cases.empty() || cases[0].pins.empty()) return;
  Value& v = cases[0].pins[0].second;
  v = v == Value::Zero ? Value::One : Value::Zero;
}

TEST(Equiv, EveryPresetIsCleanOnEveryFrontEnd) {
  for (const Preset& p : presets()) {
    for (bool compiled : check::front_ends(p.opts)) {
      for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        check::EquivOptions o = p.opts;
        o.compile |= compiled;
        auto fail = check::check_equivalence(check::random_spec(seed), o);
        EXPECT_FALSE(fail) << p.kind << " seed " << seed << " [" << fail->kind
                           << "] " << fail->detail;
      }
    }
  }
}

TEST(Equiv, AllTransformCompositionIsClean) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    auto fail = check::check_equivalence(check::random_spec(seed), all_transforms());
    EXPECT_FALSE(fail) << "seed " << seed << " [" << fail->kind << "] " << fail->detail;
  }
}

TEST(Equiv, FrontEndsFollowThePresets) {
  check::EquivOptions o;
  o.batch = true;
  EXPECT_EQ(check::front_ends(o), std::vector<bool>{false});
  o.incr = true;
  EXPECT_EQ(check::front_ends(o), (std::vector<bool>{false, true}));
  o.compile = true;
  EXPECT_EQ(check::front_ends(o), std::vector<bool>{true});
}

TEST(Equiv, PerturbedPathIsReportedWithThePresetKind) {
  std::vector<Preset> cases = presets();
  cases.push_back({"snapshot-diff", all_transforms()});
  for (const Preset& p : cases) {
    int caught = 0;
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
      check::CircuitSpec spec = check::random_spec(seed);
      if (!spec.with_case) continue;
      check::EquivOptions o = p.opts;
      o.perturb = flip_first_pin;
      auto fail = check::check_equivalence(spec, o);
      if (!fail) continue;  // this circuit's two cases happen to agree
      ++caught;
      EXPECT_EQ(fail->kind, p.kind) << "seed " << seed << ": " << fail->detail;
      EXPECT_NE(fail->detail.find("the path diverges from the reference"),
                std::string::npos)
          << fail->detail;
    }
    EXPECT_GE(caught, 10) << p.kind;
  }
}

TEST(Equiv, ReproRendersThePinnedOptions) {
  check::CircuitSpec spec = check::random_spec(7);
  check::EquivOptions o;
  o.incr = true;
  o.edit_seed = check::edit_seed_for(7);
  EXPECT_FALSE(check::check_equivalence(spec, o));
  EXPECT_NE(check::to_cpp(o).find(".incr = true"), std::string::npos);
  EXPECT_NE(check::to_cpp(o).find(std::to_string(o.edit_seed) + "ULL"), std::string::npos);
}

}  // namespace
