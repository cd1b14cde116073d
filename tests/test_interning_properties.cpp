// Property tests for the waveform interning layer (core/wave_table.hpp):
// canonicalization is idempotent, interning is exactly semantic equality,
// the waveform algebra preserves the sum-of-widths invariant on canonical
// inputs, and memo-cached evaluation is bit-identical to uncached
// evaluation across tvfuzz-generated netlists.
#include <gtest/gtest.h>

#include "check/equiv.hpp"
#include "check/oracles.hpp"
#include "core/evaluator.hpp"
#include "core/storage_stats.hpp"
#include "core/wave_table.hpp"

namespace {

using namespace tv;

Time sum_widths(const Waveform& w) {
  Time t = 0;
  for (const auto& s : w.segments()) t += s.width;
  return t;
}

TEST(InterningProperties, CanonicalizeIsIdempotent) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    check::WaveCase wc = check::random_wave_case(seed);
    Waveform w = check::materialize(wc.base);
    Waveform once = w.canonical();
    Waveform twice = once.canonical();
    EXPECT_TRUE(once == twice) << "seed " << seed;
    EXPECT_TRUE(once.is_canonical()) << "seed " << seed;
    // Canonicalization never changes meaning: same values pointwise.
    for (Time t = 0; t < w.period(); t += w.period() / 37 + 1) {
      EXPECT_EQ(w.at(t), once.at(t)) << "seed " << seed << " t " << t;
    }
  }
}

TEST(InterningProperties, SkewOnInactiveWaveformIsNotADifference) {
  // The satellite fix: diff/convergence/snapshot change detection used to
  // disagree about skew-only differences on activity-free waveforms. The
  // unified predicate says they are equal.
  Waveform a(from_ns(50.0), Value::Stable);
  Waveform b = a;
  b.set_skew(from_ns(3.0));
  EXPECT_FALSE(a == b);                 // structurally different...
  EXPECT_TRUE(a.equivalent(b));         // ...but semantically identical
  EXPECT_EQ(a.canonical_hash(), b.canonical_hash());

  WaveformTable table;
  EXPECT_EQ(table.intern(a), table.intern(b));

  // With activity the skew *is* meaning (it widens RISE/FALL windows).
  Waveform c(from_ns(50.0), Value::Stable);
  c.set(from_ns(10.0), from_ns(20.0), Value::Change);
  Waveform d = c;
  d.set_skew(from_ns(3.0));
  EXPECT_FALSE(c.equivalent(d));
  EXPECT_NE(table.intern(c), table.intern(d));
}

TEST(InterningProperties, InternMatchesSemanticEquality) {
  WaveformTable table;
  std::vector<Waveform> waves;
  std::vector<WaveformRef> refs;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    check::WaveCase wc = check::random_wave_case(seed);
    Waveform w = check::materialize(wc.base);
    waves.push_back(w);
    refs.push_back(table.intern(w));
  }
  for (std::size_t i = 0; i < waves.size(); ++i) {
    for (std::size_t j = 0; j < waves.size(); ++j) {
      EXPECT_EQ(refs[i] == refs[j], waves[i].equivalent(waves[j]))
          << "seeds " << i + 1 << " vs " << j + 1;
    }
    // Interning is stable: re-interning returns the same ref, and the
    // stored waveform is the canonical form of the input.
    EXPECT_EQ(table.intern(waves[i]), refs[i]);
    EXPECT_TRUE(table.get(refs[i]) == waves[i].canonical());
  }
  EXPECT_LE(table.size(), waves.size());
  EXPECT_GE(table.lookups(), 2 * waves.size());
}

TEST(InterningProperties, AlgebraPreservesWidthSum) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    check::WaveCase wc = check::random_wave_case(seed);
    Waveform w = check::materialize(wc.base).canonical();
    Waveform partner = check::materialize(check::random_wave_case(seed + 7000).base);
    if (partner.period() != w.period()) partner = Waveform(w.period(), Value::Stable);

    EXPECT_EQ(sum_widths(w), w.period()) << "seed " << seed;
    EXPECT_EQ(sum_widths(w.delayed(from_ns(wc.d1_min_ns), from_ns(wc.d1_max_ns))),
              w.period())
        << "seed " << seed << " delayed";
    EXPECT_EQ(sum_widths(w.with_skew_incorporated()), w.period())
        << "seed " << seed << " skew fold";
    EXPECT_EQ(sum_widths(w.delayed_rise_fall(
                  from_ns(wc.rise_min_ns), from_ns(wc.rise_max_ns),
                  from_ns(wc.fall_min_ns), from_ns(wc.fall_max_ns))),
              w.period())
        << "seed " << seed << " rise/fall";
    EXPECT_EQ(sum_widths(w.map(value_not)), w.period()) << "seed " << seed << " map";
    EXPECT_EQ(sum_widths(w.replaced(Value::Stable, Value::One)), w.period())
        << "seed " << seed << " replaced";
    EXPECT_EQ(sum_widths(Waveform::binary(w, partner, value_and)), w.period())
        << "seed " << seed << " binary";
  }
}

TEST(InterningProperties, MemoCachedEvaluationIsBitIdentical) {
  // The tentpole's soundness property across 64 tvfuzz-generated netlists:
  // interning + memo on vs off must produce identical waveforms, events,
  // reports, and per-case results, both per case (the harness preset
  // tvfuzz --memo-diff runs) and under lane batching, the default engine
  // (--batch-diff).
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    check::CircuitSpec spec = check::random_spec(seed);
    check::EquivOptions memo, batched;
    memo.memo = true;
    batched.batch = true;
    for (const check::EquivOptions& o : {memo, batched}) {
      auto failure = check::check_equivalence(spec, o);
      EXPECT_FALSE(failure.has_value())
          << "seed " << seed << ": " << (failure ? failure->detail : "");
    }
  }
}

TEST(InterningProperties, EvaluatorExposesInternStats) {
  check::BuiltCircuit bc = check::build(check::random_spec(11));
  Evaluator ev(bc.nl, bc.opts);
  ev.initialize();
  ev.propagate();
  ASSERT_NE(ev.intern_context(), nullptr);
  InternStats st = collect_intern_stats(*ev.intern_context());
  EXPECT_GT(st.unique_waveforms, 0u);
  EXPECT_GE(st.intern_lookups, st.unique_waveforms);
  // A second pass over the identical circuit must be served by the memo.
  ev.initialize();
  ev.propagate();
  InternStats st2 = collect_intern_stats(*ev.intern_context());
  EXPECT_GT(st2.memo_hits, 0u);
  EXPECT_EQ(st2.unique_waveforms, st.unique_waveforms);

  // Interning off: no context, evaluation still works.
  check::BuiltCircuit bc2 = check::build(check::random_spec(11));
  bc2.opts.interning = false;
  Evaluator ev2(bc2.nl, bc2.opts);
  ev2.initialize();
  ev2.propagate();
  EXPECT_EQ(ev2.intern_context(), nullptr);
  EXPECT_EQ(ev.events_processed(), ev2.events_processed());
}

TEST(InterningProperties, StorageStatsReportsUniqueWaveforms) {
  check::BuiltCircuit bc = check::build(check::random_spec(3));
  Evaluator ev(bc.nl, bc.opts);
  ev.initialize();
  ev.propagate();
  StorageBreakdown b = compute_storage(bc.nl);
  EXPECT_GT(b.unique_waveforms, 0u);
  EXPECT_LE(b.unique_waveforms, static_cast<std::size_t>(bc.nl.num_signals()));
  EXPECT_LE(b.unique_value_bytes, b.signal_values);
  EXPECT_GE(b.signals_per_unique_waveform, 1.0);
}

}  // namespace
