// tvfuzz: differential self-checking fuzzer for the Timing Verifier.
//
// Runs two oracles over seeded random inputs:
//   * conservatism: every violation the value-level logic simulator exposes
//     under sampled realities must be covered by a symbolic violation
//     (src/check/oracles.hpp);
//   * wave-algebra: structural and refinement invariants of the sec. 2.8
//     waveform algebra, including a concrete-replay check of
//     delayed_rise_fall.
//
// On failure the counterexample is shrunk and printed as a paste-into-gtest
// repro; the exit code is nonzero.
//
// A third mode, --memo-diff, runs each random circuit twice -- waveform
// interning + evaluation memo-cache on, then off -- and fails on any
// divergence in waveforms, reports, or event counts (the optimization must
// be bit-exact).
//
// A fourth mode, --parser-fuzz, mutates valid SHDL sources (byte- and
// token-level, seeded) and feeds them to the diagnostic front end: it must
// never crash, never let an exception escape, and always report at least
// one error diagnostic when it rejects an input. Each seed also mutates a
// job line, a netlist delta and a journal file through the JSON readers
// under the same contract.
//
// A sixth mode, --batch-diff, runs each random circuit's case analysis
// through both the per-case snapshot path and the structure-of-arrays
// batch path (VerifierOptions::batch_eval) and fails on any divergence in
// reports, waveforms, or counts (the lockstep sweep must be bit-exact).
//
// A seventh mode, --compile-diff, round-trips each random circuit through
// the scaldtvc compiled-design artifact (serialize -> reload -> verify) and
// fails on any divergence from the in-memory original, or on a
// non-deterministic serialization (the artifact must be byte-stable).
//
// An eighth mode, --incr-diff, replays a K-step random edit script against
// each random circuit both incrementally (Verifier::reverify, one long-lived
// verifier) and cold (fresh build + delta prefix + from-scratch verify) on
// both the source and the compiled front ends, and fails on any divergence
// outside the sanctioned evaluation-effort counters (the reverify report
// must be byte-identical to a cold run of the edited design).
//
// A ninth mode, --snapshot-diff, snapshots each random circuit's baseline
// fixpoint (core/fixpoint.hpp), restores it into a fresh verifier over a
// freshly built world, and replays a K-step random edit script on both: the
// restored world must match byte-for-byte after every step -- effort
// counters included -- and re-serialize to identical snapshot bytes, on
// both the source and compiled front ends.
//
// A fifth mode, --serve-chaos, pushes seeded batches of generated designs
// with random fault specs through a real scaldtvd worker pool and asserts
// every job ends in a terminal state, retries are visible in attempt
// counts, and the manifest is byte-stable across identical runs. The mode
// also runs the overload scenarios (memory-budget breach, bounded
// admission, poison-design quarantine + kill/resume, and the ENOSPC sweep
// over every durable write) once per backend. Binaries come from
// --scaldtvd/--scaldtv or TV_SCALDTVD/TV_SCALDTV.
//
// Usage:
//   tvfuzz [--seeds N] [--wave N] [--start S] [--smoke] [--memo-diff]
//          [--batch-diff] [--compile-diff] [--incr-diff] [--incr-steps K]
//          [--snapshot-diff] [--parser-fuzz] [--serve-chaos]
//          [--scaldtvd PATH] [--scaldtv PATH] [--no-shrink] [-v]
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "check/incr_diff.hpp"
#include "check/oracles.hpp"
#include "check/snapshot_diff.hpp"
#include "check/parser_fuzz.hpp"
#include "check/serve_chaos.hpp"
#include "check/shrinker.hpp"

namespace {

struct Options {
  std::uint64_t start = 1;
  int circuit_seeds = 500;
  int wave_seeds = 500;
  bool memo_diff = false;
  bool batch_diff = false;
  bool compile_diff = false;
  bool incr_diff = false;
  int incr_steps = 4;
  bool snapshot_diff = false;
  bool parser_fuzz = false;
  bool serve_chaos = false;
  bool seeds_set = false;
  std::string scaldtvd_path;
  std::string scaldtv_path;
  bool shrink = true;
  bool verbose = false;
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seeds N] [--wave N] [--start S] [--smoke] [--memo-diff] "
               "[--batch-diff] [--compile-diff] [--parser-fuzz] [--no-shrink] [-v]\n"
               "  --seeds N     differential circuit cases to run (default 500)\n"
               "  --wave N      waveform-algebra cases to run (default 500)\n"
               "  --start S     first seed (default 1)\n"
               "  --smoke       quick CI gate: 120 circuit + 250 wave cases\n"
               "  --memo-diff   run each circuit spec twice (interning/memo on vs\n"
               "                off) and fail on any report or waveform divergence\n"
               "  --batch-diff  run each circuit's case analysis through the per-case\n"
               "                and batch engines and fail on any divergence\n"
               "  --compile-diff round-trip each circuit through the compiled-design\n"
               "                artifact and fail on any divergence or instability\n"
               "  --incr-diff   replay a K-step random edit script incrementally\n"
               "                (Verifier::reverify) and cold per step, on both the\n"
               "                source and compiled front ends; fail on divergence\n"
               "  --incr-steps K edits per script in --incr-diff (default 4)\n"
               "  --snapshot-diff snapshot each circuit's baseline fixpoint, restore\n"
               "                it into a fresh verifier, and replay an edit script on\n"
               "                both; fail on any byte divergence (counters included)\n"
               "  --parser-fuzz mutate valid SHDL sources, job lines, deltas and journals;\n"
               "                assert the readers never crash and always explain a\n"
               "                rejection\n"
               "  --serve-chaos run seeded faulted batches through scaldtvd and assert\n"
               "                every job ends terminal with retries observable\n"
               "  --scaldtvd P  daemon binary for --serve-chaos (or TV_SCALDTVD)\n"
               "  --scaldtv P   worker binary for --serve-chaos (or TV_SCALDTV)\n"
               "  --no-shrink   print raw failing specs without minimizing\n"
               "  -v            per-case progress output\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next_int = [&](int& out) {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      out = std::atoi(argv[++i]);
    };
    if (a == "--seeds") {
      next_int(opt.circuit_seeds);
      opt.seeds_set = true;
    } else if (a == "--wave") {
      next_int(opt.wave_seeds);
    } else if (a == "--start") {
      int s = 0;
      next_int(s);
      opt.start = static_cast<std::uint64_t>(s);
    } else if (a == "--smoke") {
      opt.circuit_seeds = 120;
      opt.wave_seeds = 250;
    } else if (a == "--memo-diff") {
      opt.memo_diff = true;
    } else if (a == "--batch-diff") {
      opt.batch_diff = true;
    } else if (a == "--compile-diff") {
      opt.compile_diff = true;
    } else if (a == "--incr-diff") {
      opt.incr_diff = true;
    } else if (a == "--snapshot-diff") {
      opt.snapshot_diff = true;
    } else if (a == "--incr-steps") {
      next_int(opt.incr_steps);
      if (opt.incr_steps < 1) {
        usage(argv[0]);
        return 2;
      }
    } else if (a == "--parser-fuzz") {
      opt.parser_fuzz = true;
    } else if (a == "--serve-chaos") {
      opt.serve_chaos = true;
    } else if (a == "--scaldtvd" && i + 1 < argc) {
      opt.scaldtvd_path = argv[++i];
    } else if (a == "--scaldtv" && i + 1 < argc) {
      opt.scaldtv_path = argv[++i];
    } else if (a == "--no-shrink") {
      opt.shrink = false;
    } else if (a == "-v" || a == "--verbose") {
      opt.verbose = true;
    } else {
      usage(argv[0]);
      return 2;
    }
  }

  int failures = 0;
  long long sim_runs = 0, sim_violating = 0;
  int tv_found = 0;

  if (opt.serve_chaos) {
    // Serving-layer chaos mode: each "case" is one full batch of faulted
    // jobs through a real scaldtvd + worker pool (run twice for the
    // byte-stability check), so the default count is small.
    int batches = opt.seeds_set ? opt.circuit_seeds : 2;
    tv::check::ServeChaosOptions sc;
    sc.scaldtvd_path = opt.scaldtvd_path;
    sc.scaldtv_path = opt.scaldtv_path;
    if (sc.scaldtvd_path.empty()) {
      if (const char* env = std::getenv("TV_SCALDTVD")) sc.scaldtvd_path = env;
    }
    if (sc.scaldtv_path.empty()) {
      if (const char* env = std::getenv("TV_SCALDTV")) sc.scaldtv_path = env;
    }
    sc.verbose = opt.verbose;
    // Graceful-shutdown scenarios first (SIGTERM mid-hang and mid-backoff
    // must requeue, not crash), once per backend.
    for (bool warm : {false, true}) {
      sc.warm = warm;
      auto fail = tv::check::check_drain_requeue(sc);
      if (opt.verbose) {
        std::printf("serve-chaos drain-requeue (%s): %s\n",
                    warm ? "warm" : "fork/exec", fail ? "FAIL" : "ok");
      }
      if (!fail) continue;
      ++failures;
      std::printf("FAIL serve-chaos drain-requeue (%s) [%s]\n  %s\n",
                  warm ? "warm" : "fork/exec", fail->kind.c_str(),
                  fail->detail.c_str());
    }
    // Kill/restart chaos: SIGKILL the daemon itself at every write-ahead
    // journal transition and assert --resume always finishes the batch
    // with a manifest byte-identical to the uninterrupted run's.
    for (bool warm : {false, true}) {
      sc.warm = warm;
      sc.seed = opt.start;
      auto fail = tv::check::check_kill_restart(sc);
      if (opt.verbose) {
        std::printf("serve-chaos kill-restart (%s): %s\n",
                    warm ? "warm" : "fork/exec", fail ? "FAIL" : "ok");
      }
      if (fail) {
        ++failures;
        std::printf("FAIL serve-chaos kill-restart (%s) [%s]\n  %s\n",
                    warm ? "warm" : "fork/exec", fail->kind.c_str(),
                    fail->detail.c_str());
      }
    }
    // Overload scenarios: bounded admission (shed past --max-queue), the
    // poison-design quarantine breaker with its kill/resume sweep, and the
    // ENOSPC sweep over every durable write -- once per backend.
    for (bool warm : {false, true}) {
      sc.warm = warm;
      sc.seed = opt.start;
      const struct {
        const char* name;
        std::optional<tv::check::ServeChaosFailure> (*run)(
            const tv::check::ServeChaosOptions&);
      } overload[] = {
          {"shed", tv::check::check_shed},
          {"quarantine-resume", tv::check::check_quarantine_resume},
          {"write-fail", tv::check::check_write_fail},
      };
      for (const auto& sc_case : overload) {
        auto fail = sc_case.run(sc);
        if (opt.verbose) {
          std::printf("serve-chaos %s (%s): %s\n", sc_case.name,
                      warm ? "warm" : "fork/exec", fail ? "FAIL" : "ok");
        }
        if (fail) {
          ++failures;
          std::printf("FAIL serve-chaos %s (%s) [%s]\n  %s\n", sc_case.name,
                      warm ? "warm" : "fork/exec", fail->kind.c_str(),
                      fail->detail.c_str());
        }
      }
    }
    // Memory budgets: the RSS watchdog's resource-exhausted classification
    // and the --mem-retry policy (the scenario runs both backends
    // internally and compares their manifests byte for byte).
    {
      auto fail = tv::check::check_mem_breach(sc);
      if (opt.verbose) {
        std::printf("serve-chaos mem-breach: %s\n", fail ? "FAIL" : "ok");
      }
      if (fail) {
        ++failures;
        std::printf("FAIL serve-chaos mem-breach [%s]\n  %s\n", fail->kind.c_str(),
                    fail->detail.c_str());
      }
    }
    // Incremental-reverification chaos: faulted delta applications must
    // retry byte-identically and never corrupt a warm worker's resident
    // fixpoint (the scenario runs both backends internally).
    {
      auto fail = tv::check::check_reverify_chaos(sc);
      if (opt.verbose) {
        std::printf("serve-chaos reverify: %s\n", fail ? "FAIL" : "ok");
      }
      if (fail) {
        ++failures;
        std::printf("FAIL serve-chaos reverify [%s]\n  %s\n", fail->kind.c_str(),
                    fail->detail.c_str());
      }
    }
    // Seeded chaos batches, alternating backends so both the fork/exec and
    // the warm-pool supervisors face the same fault mix.
    for (int i = 0; i < batches; ++i) {
      sc.seed = opt.start + static_cast<std::uint64_t>(i);
      sc.warm = (i % 2) == 1;
      auto fail = tv::check::check_serve_chaos(sc);
      if (opt.verbose) {
        std::printf("serve-chaos seed %llu (%s): %s\n",
                    static_cast<unsigned long long>(sc.seed),
                    sc.warm ? "warm" : "fork/exec", fail ? "FAIL" : "ok");
      }
      if (!fail) continue;
      ++failures;
      std::printf("FAIL serve-chaos seed %llu (%s) [%s]\n  %s\n",
                  static_cast<unsigned long long>(sc.seed),
                  sc.warm ? "warm" : "fork/exec", fail->kind.c_str(),
                  fail->detail.c_str());
    }
    std::printf("tvfuzz --serve-chaos: %d batch(es) + drain/overload scenarios, "
                "%d failure%s\n",
                batches, failures, failures == 1 ? "" : "s");
    return failures ? 1 : 0;
  }

  if (opt.parser_fuzz) {
    // Input robustness mode: mutated SHDL and JSON inputs must never crash
    // their readers and every rejection must carry a diagnostic or message.
    for (int i = 0; i < opt.circuit_seeds; ++i) {
      std::uint64_t seed = opt.start + static_cast<std::uint64_t>(i);
      auto fail = tv::check::check_parser_robustness(seed);
      if (opt.verbose) {
        std::printf("parser seed %llu: %s\n", static_cast<unsigned long long>(seed),
                    fail ? "FAIL" : "ok");
      }
      if (!fail) continue;
      ++failures;
      std::printf("FAIL parser seed %llu [%s]\n  %s\ninput:\n%s\n<<<end of input>>>\n",
                  static_cast<unsigned long long>(seed), fail->kind.c_str(),
                  fail->detail.c_str(), fail->input.c_str());
    }
    std::printf("tvfuzz --parser-fuzz: %d cases, %d failure%s\n", opt.circuit_seeds,
                failures, failures == 1 ? "" : "s");
    return failures ? 1 : 0;
  }

  if (opt.snapshot_diff) {
    // Differential snapshot mode: every random circuit's baseline fixpoint
    // is serialized, restored into a fresh verifier, and edited K times on
    // both sides; the restored world must stay byte-identical -- effort
    // counters included -- once per front end.
    for (int i = 0; i < opt.circuit_seeds; ++i) {
      std::uint64_t seed = opt.start + static_cast<std::uint64_t>(i);
      tv::check::CircuitSpec spec = tv::check::random_spec(seed);
      for (bool compiled : {false, true}) {
        tv::check::SnapshotDiffOptions so;
        so.compiled = compiled;
        auto fail = tv::check::check_snapshot_equivalence(spec, so);
        if (opt.verbose) {
          std::printf("snapshot-diff seed %llu (%s): %s\n",
                      static_cast<unsigned long long>(seed),
                      compiled ? "compiled" : "source", fail ? "FAIL" : "ok");
        }
        if (!fail) continue;
        ++failures;
        std::printf("FAIL snapshot-diff seed %llu (%s) [%s]\n  %s\n",
                    static_cast<unsigned long long>(seed),
                    compiled ? "compiled" : "source", fail->kind.c_str(),
                    fail->detail.c_str());
        if (opt.shrink) {
          // Pin the edit script (a pure function of the circuit seed) so it
          // stays fixed while the circuit shrinks around it.
          tv::check::SnapshotDiffOptions pinned = so;
          pinned.edit_seed =
              spec.seed * 0x9E3779B97F4A7C15ULL + 0x6C62272E07BB0142ULL;
          std::string kind = fail->kind;
          tv::check::CircuitSpec small = tv::check::shrink_circuit(
              spec, [&](const tv::check::CircuitSpec& s) {
                auto f = tv::check::check_snapshot_equivalence(s, pinned);
                return f && f->kind == kind;
              });
          std::printf("shrunk repro (edit_seed %llu, %s front end):\n%s\n",
                      static_cast<unsigned long long>(pinned.edit_seed),
                      compiled ? "compiled" : "source",
                      tv::check::gtest_repro(small, kind).c_str());
        } else {
          std::printf("repro:\n%s\n",
                      tv::check::gtest_repro(spec, fail->kind).c_str());
        }
      }
    }
    std::printf("tvfuzz --snapshot-diff: %d circuit cases x 2 front ends, "
                "%d failure%s\n",
                opt.circuit_seeds, failures, failures == 1 ? "" : "s");
    return failures ? 1 : 0;
  }

  if (opt.incr_diff) {
    // Differential incremental mode: every random circuit is edited K times
    // and re-verified both incrementally and cold after each step, once per
    // front end (source build and compiled-artifact round trip). The
    // incremental report must be byte-identical each time, counters aside.
    for (int i = 0; i < opt.circuit_seeds; ++i) {
      std::uint64_t seed = opt.start + static_cast<std::uint64_t>(i);
      tv::check::CircuitSpec spec = tv::check::random_spec(seed);
      for (bool compiled : {false, true}) {
        tv::check::IncrDiffOptions io;
        io.steps = opt.incr_steps;
        io.compiled = compiled;
        auto fail = tv::check::check_incr_equivalence(spec, io);
        if (opt.verbose) {
          std::printf("incr-diff seed %llu (%s): %s\n",
                      static_cast<unsigned long long>(seed),
                      compiled ? "compiled" : "source", fail ? "FAIL" : "ok");
        }
        if (!fail) continue;
        ++failures;
        std::printf("FAIL incr-diff seed %llu (%s) [%s]\n  %s\n",
                    static_cast<unsigned long long>(seed),
                    compiled ? "compiled" : "source", fail->kind.c_str(),
                    fail->detail.c_str());
        if (opt.shrink) {
          // The edit script is a pure function of the circuit seed; pin it
          // so the script stays fixed while the circuit shrinks around it.
          tv::check::IncrDiffOptions pinned = io;
          pinned.edit_seed =
              spec.seed * 0x9E3779B97F4A7C15ULL + 0x6C62272E07BB0142ULL;
          std::string kind = fail->kind;
          tv::check::CircuitSpec small = tv::check::shrink_circuit(
              spec, [&](const tv::check::CircuitSpec& s) {
                auto f = tv::check::check_incr_equivalence(s, pinned);
                return f && f->kind == kind;
              });
          std::printf("shrunk repro (edit_seed %llu, %s front end):\n%s\n",
                      static_cast<unsigned long long>(pinned.edit_seed),
                      compiled ? "compiled" : "source",
                      tv::check::gtest_repro(small, kind).c_str());
        } else {
          std::printf("repro:\n%s\n",
                      tv::check::gtest_repro(spec, fail->kind).c_str());
        }
      }
    }
    std::printf("tvfuzz --incr-diff: %d circuit cases x 2 front ends x %d steps, "
                "%d failure%s\n",
                opt.circuit_seeds, opt.incr_steps, failures,
                failures == 1 ? "" : "s");
    return failures ? 1 : 0;
  }

  if (opt.compile_diff) {
    // Differential artifact mode: every random circuit is serialized to the
    // compiled-design format, reloaded, and verified; the round trip must
    // be bit-identical to the in-memory original.
    for (int i = 0; i < opt.circuit_seeds; ++i) {
      std::uint64_t seed = opt.start + static_cast<std::uint64_t>(i);
      tv::check::CircuitSpec spec = tv::check::random_spec(seed);
      auto fail = tv::check::check_compile_equivalence(spec);
      if (opt.verbose) {
        std::printf("compile-diff seed %llu: %s\n", static_cast<unsigned long long>(seed),
                    fail ? "FAIL" : "ok");
      }
      if (!fail) continue;
      ++failures;
      std::printf("FAIL compile-diff seed %llu [%s]\n  %s\n",
                  static_cast<unsigned long long>(seed), fail->kind.c_str(),
                  fail->detail.c_str());
      if (opt.shrink) {
        std::string kind = fail->kind;
        tv::check::CircuitSpec small = tv::check::shrink_circuit(
            spec, [&](const tv::check::CircuitSpec& s) {
              auto f = tv::check::check_compile_equivalence(s);
              return f && f->kind == kind;
            });
        std::printf("shrunk repro:\n%s\n", tv::check::gtest_repro(small, kind).c_str());
      } else {
        std::printf("repro:\n%s\n", tv::check::gtest_repro(spec, fail->kind).c_str());
      }
    }
    std::printf("tvfuzz --compile-diff: %d circuit cases, %d failure%s\n",
                opt.circuit_seeds, failures, failures == 1 ? "" : "s");
    return failures ? 1 : 0;
  }

  if (opt.batch_diff) {
    // Differential batch mode: every random circuit's case analysis runs on
    // the lockstep batch engine and the per-case reference path; the two
    // runs must be bit-identical.
    for (int i = 0; i < opt.circuit_seeds; ++i) {
      std::uint64_t seed = opt.start + static_cast<std::uint64_t>(i);
      tv::check::CircuitSpec spec = tv::check::random_spec(seed);
      auto fail = tv::check::check_batch_equivalence(spec);
      if (opt.verbose) {
        std::printf("batch-diff seed %llu: %s\n", static_cast<unsigned long long>(seed),
                    fail ? "FAIL" : "ok");
      }
      if (!fail) continue;
      ++failures;
      std::printf("FAIL batch-diff seed %llu [%s]\n  %s\n",
                  static_cast<unsigned long long>(seed), fail->kind.c_str(),
                  fail->detail.c_str());
      if (opt.shrink) {
        std::string kind = fail->kind;
        tv::check::CircuitSpec small = tv::check::shrink_circuit(
            spec, [&](const tv::check::CircuitSpec& s) {
              auto f = tv::check::check_batch_equivalence(s);
              return f && f->kind == kind;
            });
        std::printf("shrunk repro:\n%s\n", tv::check::gtest_repro(small, kind).c_str());
      } else {
        std::printf("repro:\n%s\n", tv::check::gtest_repro(spec, fail->kind).c_str());
      }
    }
    std::printf("tvfuzz --batch-diff: %d circuit cases, %d failure%s\n", opt.circuit_seeds,
                failures, failures == 1 ? "" : "s");
    return failures ? 1 : 0;
  }

  if (opt.memo_diff) {
    // Differential interning mode: every random circuit is verified with the
    // memo/interning layer on and off; the two runs must be bit-identical.
    for (int i = 0; i < opt.circuit_seeds; ++i) {
      std::uint64_t seed = opt.start + static_cast<std::uint64_t>(i);
      tv::check::CircuitSpec spec = tv::check::random_spec(seed);
      auto fail = tv::check::check_memo_equivalence(spec);
      if (opt.verbose) {
        std::printf("memo-diff seed %llu: %s\n", static_cast<unsigned long long>(seed),
                    fail ? "FAIL" : "ok");
      }
      if (!fail) continue;
      ++failures;
      std::printf("FAIL memo-diff seed %llu [%s]\n  %s\n",
                  static_cast<unsigned long long>(seed), fail->kind.c_str(),
                  fail->detail.c_str());
      if (opt.shrink) {
        std::string kind = fail->kind;
        tv::check::CircuitSpec small = tv::check::shrink_circuit(
            spec, [&](const tv::check::CircuitSpec& s) {
              auto f = tv::check::check_memo_equivalence(s);
              return f && f->kind == kind;
            });
        std::printf("shrunk repro:\n%s\n", tv::check::gtest_repro(small, kind).c_str());
      } else {
        std::printf("repro:\n%s\n", tv::check::gtest_repro(spec, fail->kind).c_str());
      }
    }
    std::printf("tvfuzz --memo-diff: %d circuit cases, %d failure%s\n", opt.circuit_seeds,
                failures, failures == 1 ? "" : "s");
    return failures ? 1 : 0;
  }

  for (int i = 0; i < opt.circuit_seeds; ++i) {
    std::uint64_t seed = opt.start + static_cast<std::uint64_t>(i);
    tv::check::CircuitSpec spec = tv::check::random_spec(seed);
    tv::check::ConservatismStats stats;
    auto fail = tv::check::check_conservatism(spec, &stats);
    sim_runs += stats.sim_runs;
    sim_violating += stats.sim_violating_runs;
    if (stats.tv_found) ++tv_found;
    if (opt.verbose) {
      std::printf("circuit seed %llu: %d sim runs, %d violating, tv %s\n",
                  static_cast<unsigned long long>(seed), stats.sim_runs,
                  stats.sim_violating_runs, stats.tv_found ? "flags" : "clean");
    }
    if (!fail) continue;
    ++failures;
    std::printf("FAIL circuit seed %llu [%s]\n  %s\n",
                static_cast<unsigned long long>(seed), fail->kind.c_str(),
                fail->detail.c_str());
    if (opt.shrink) {
      std::string kind = fail->kind;
      tv::check::CircuitSpec small = tv::check::shrink_circuit(
          spec, [&](const tv::check::CircuitSpec& s) {
            auto f = tv::check::check_conservatism(s);
            return f && f->kind == kind;
          });
      std::printf("shrunk repro:\n%s\n", tv::check::gtest_repro(small, kind).c_str());
    } else {
      std::printf("repro:\n%s\n", tv::check::gtest_repro(spec, fail->kind).c_str());
    }
  }

  for (int i = 0; i < opt.wave_seeds; ++i) {
    std::uint64_t seed = opt.start + static_cast<std::uint64_t>(i);
    tv::check::WaveCase wc = tv::check::random_wave_case(seed);
    auto fail = tv::check::check_wave_algebra(wc);
    if (opt.verbose) {
      std::printf("wave seed %llu: %s\n", static_cast<unsigned long long>(seed),
                  fail ? "FAIL" : "ok");
    }
    if (!fail) continue;
    ++failures;
    std::printf("FAIL wave seed %llu [%s]\n  %s\n", static_cast<unsigned long long>(seed),
                fail->kind.c_str(), fail->detail.c_str());
    if (opt.shrink) {
      std::string kind = fail->kind;
      tv::check::WaveCase small =
          tv::check::shrink_wave(wc, [&](const tv::check::WaveCase& w) {
            auto f = tv::check::check_wave_algebra(w);
            return f && f->kind == kind;
          });
      std::printf("shrunk repro:\n%s\n", tv::check::gtest_repro(small, kind).c_str());
    } else {
      std::printf("repro:\n%s\n", tv::check::gtest_repro(wc, fail->kind).c_str());
    }
  }

  std::printf(
      "tvfuzz: %d circuit cases (%lld sim runs, %lld violating, verifier flagged %d), "
      "%d wave cases, %d failure%s\n",
      opt.circuit_seeds, sim_runs, sim_violating, tv_found, opt.wave_seeds, failures,
      failures == 1 ? "" : "s");
  return failures ? 1 : 0;
}
