// tvfuzz: differential self-checking fuzzer for the Timing Verifier.
//
// Modes (one per run; the differential presets compose):
//
//   * default -- two oracles over seeded random inputs
//     (src/check/oracles.hpp):
//       - conservatism: every violation the value-level logic simulator
//         exposes under sampled realities must be covered by a symbolic
//         violation;
//       - wave-algebra: structural and refinement invariants of the
//         sec. 2.8 waveform algebra, including a concrete-replay check of
//         delayed_rise_fall.
//
//   * differential presets -- --memo-diff, --batch-diff, --compile-diff,
//     --incr-diff, --snapshot-diff: each random circuit runs through an
//     execution path built from the given presets' transforms (interning,
//     lane batching, the compiled-artifact round trip, a .tvf snapshot
//     restore, K reverify steps) and must match the plain reference verify
//     byte for byte after its baseline and every edit step
//     (src/check/equiv.hpp; docs/engine_internals.md, "Equivalence
//     harness"). Several presets given together compose into one path.
//
//   * --parser-fuzz -- mutates valid SHDL sources (byte- and token-level,
//     seeded) and feeds them to the diagnostic front end: it must never
//     crash, never let an exception escape, and always report at least one
//     error diagnostic when it rejects an input. Each seed also mutates a
//     job line, a netlist delta and a journal file through the JSON readers
//     under the same contract.
//
//   * --serve-chaos -- pushes seeded batches of generated designs with
//     random fault specs through a real scaldtvd worker pool and asserts
//     every job ends in a terminal state, retries are visible in attempt
//     counts, and the manifest is byte-stable across identical runs. The
//     mode also runs the overload scenarios (memory-budget breach, bounded
//     admission, poison-design quarantine + kill/resume, and the ENOSPC
//     sweep over every durable write) once per backend. Binaries come from
//     --scaldtvd/--scaldtv or TV_SCALDTVD/TV_SCALDTV.
//
// On an oracle failure the counterexample is shrunk and printed as a
// paste-into-gtest repro; the exit code is nonzero.
//
// Usage:
//   tvfuzz [--seeds N] [--wave N] [--start S] [--smoke] [--memo-diff]
//          [--batch-diff] [--compile-diff] [--incr-diff] [--incr-steps K]
//          [--snapshot-diff] [--parser-fuzz] [--serve-chaos]
//          [--scaldtvd PATH] [--scaldtv PATH] [--no-shrink] [-v]
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "check/equiv.hpp"
#include "check/oracles.hpp"
#include "check/parser_fuzz.hpp"
#include "check/serve_chaos.hpp"
#include "check/shrinker.hpp"

namespace {

struct Options {
  std::uint64_t start = 1;
  int circuit_seeds = 500;
  int wave_seeds = 500;
  tv::check::EquivOptions equiv;  // the differential presets
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
               "usage: %s [--seeds N] [--wave N] [--start S] [--smoke] [--memo-diff]\n"
               "       [--batch-diff] [--compile-diff] [--incr-diff] [--incr-steps K]\n"
               "       [--snapshot-diff] [--parser-fuzz] [--serve-chaos]\n"
               "       [--scaldtvd PATH] [--scaldtv PATH] [--no-shrink] [-v]\n"
               "  --seeds N     differential circuit cases to run (default 500)\n"
               "  --wave N      waveform-algebra cases to run (default 500)\n"
               "  --start S     first seed (default 1)\n"
               "  --smoke       quick CI gate: 120 circuit + 250 wave cases\n"
               "  differential presets -- each circuit's path must match the plain\n"
               "  reference verify byte for byte; several presets compose into one path:\n"
               "  --memo-diff   waveform interning + evaluation memo-cache\n"
               "  --batch-diff  lane-batched case sweep\n"
               "  --compile-diff round trip through the compiled-design artifact, whose\n"
               "                bytes must be deterministic\n"
               "  --incr-diff   K reverify steps of a random edit script, on both the\n"
               "                source and compiled front ends\n"
               "  --incr-steps K reverify steps per script (default 4; 3 with only\n"
               "                --snapshot-diff)\n"
               "  --snapshot-diff restore the baseline from a .tvf snapshot, then replay\n"
               "                the edit script beside the writer (counters included)\n"
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

/// Strict count: the whole token is decimal digits (no sign) and at most
/// `max`.
bool parse_count(const char* text, std::uint64_t max, std::uint64_t& out) {
  if (!std::isdigit(static_cast<unsigned char>(*text))) return false;
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0' || v > max) return false;
  out = v;
  return true;
}

tv::check::CircuitSpec shrink(const tv::check::CircuitSpec& s,
                              const tv::check::CircuitPred& pred) {
  return tv::check::shrink_circuit(s, pred);
}
tv::check::WaveCase shrink(const tv::check::WaveCase& w, const tv::check::WavePred& pred) {
  return tv::check::shrink_wave(w, pred);
}

/// The one shrink/repro printer: minimizes `spec` while `check` keeps
/// failing with the same kind (unless --no-shrink) and prints the repro
/// `render` makes of the result.
template <class Spec, class Check, class Render>
void print_repro(const Options& opt, const Spec& spec, const std::string& kind,
                 Check check, Render render) {
  if (!opt.shrink) {
    std::printf("repro:\n%s\n", render(spec).c_str());
    return;
  }
  Spec small = shrink(spec, [&](const Spec& s) {
    auto f = check(s);
    return f && f->kind == kind;
  });
  std::printf("shrunk repro:\n%s\n", render(small).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  tv::check::EquivOptions& eq = opt.equiv;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next_count = [&](std::uint64_t max) {
      std::uint64_t v = 0;
      if (i + 1 >= argc || !parse_count(argv[++i], max, v)) {
        usage(argv[0]);
        std::exit(2);
      }
      return v;
    };
    if (a == "--seeds") {
      opt.circuit_seeds = static_cast<int>(next_count(INT32_MAX));
      opt.seeds_set = true;
    } else if (a == "--wave") {
      opt.wave_seeds = static_cast<int>(next_count(INT32_MAX));
    } else if (a == "--start") {
      opt.start = next_count(UINT64_MAX);
    } else if (a == "--smoke") {
      opt.circuit_seeds = 120;
      opt.wave_seeds = 250;
    } else if (a == "--memo-diff") {
      eq.memo = true;
    } else if (a == "--batch-diff") {
      eq.batch = true;
    } else if (a == "--compile-diff") {
      eq.compile = true;
    } else if (a == "--incr-diff") {
      eq.incr = true;
    } else if (a == "--snapshot-diff") {
      eq.snapshot = true;
    } else if (a == "--incr-steps") {
      eq.steps = static_cast<int>(next_count(INT32_MAX));
      if (eq.steps < 1) {
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

  if (eq.memo || eq.batch || eq.compile || eq.incr || eq.snapshot) {
    // Differential mode: the presets compose into one path, run per front
    // end against the reference. A failing circuit shrinks with its edit
    // script pinned (a pure function of the circuit seed) so the script
    // stays fixed while the circuit shrinks around it.
    const std::pair<bool, const char*> presets[] = {{eq.memo, "--memo-diff"},
                                                    {eq.batch, "--batch-diff"},
                                                    {eq.compile, "--compile-diff"},
                                                    {eq.incr, "--incr-diff"},
                                                    {eq.snapshot, "--snapshot-diff"}};
    std::string modes;
    for (const auto& [on, flag] : presets) {
      if (on) modes += (modes.empty() ? "" : " ") + std::string(flag);
    }
    std::vector<bool> fronts = tv::check::front_ends(eq);
    for (int i = 0; i < opt.circuit_seeds; ++i) {
      std::uint64_t seed = opt.start + static_cast<std::uint64_t>(i);
      tv::check::CircuitSpec spec = tv::check::random_spec(seed);
      for (bool compiled : fronts) {
        tv::check::EquivOptions run = eq;
        run.compile |= compiled;
        auto fail = tv::check::check_equivalence(spec, run);
        const char* front = compiled ? "compiled" : "source";
        if (opt.verbose) {
          std::printf("%s seed %llu (%s): %s\n", modes.c_str(),
                      static_cast<unsigned long long>(seed), front, fail ? "FAIL" : "ok");
        }
        if (!fail) continue;
        ++failures;
        std::printf("FAIL %s seed %llu (%s) [%s]\n  %s\n", modes.c_str(),
                    static_cast<unsigned long long>(seed), front, fail->kind.c_str(),
                    fail->detail.c_str());
        run.edit_seed = tv::check::edit_seed_for(seed);
        print_repro(
            opt, spec, fail->kind,
            [&](const tv::check::CircuitSpec& s) {
              return tv::check::check_equivalence(s, run);
            },
            [&](const tv::check::CircuitSpec& s) {
              return tv::check::gtest_repro(
                  s, fail->kind,
                  "tv::check::check_equivalence(s, " + tv::check::to_cpp(run) + ")");
            });
      }
    }
    std::printf("tvfuzz %s: %d circuit cases x %zu front end%s, %d failure%s\n",
                modes.c_str(), opt.circuit_seeds, fronts.size(),
                fronts.size() == 1 ? "" : "s", failures, failures == 1 ? "" : "s");
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
    print_repro(
        opt, spec, fail->kind,
        [](const tv::check::CircuitSpec& s) { return tv::check::check_conservatism(s); },
        [&](const tv::check::CircuitSpec& s) { return tv::check::gtest_repro(s, fail->kind); });
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
    print_repro(
        opt, wc, fail->kind, tv::check::check_wave_algebra,
        [&](const tv::check::WaveCase& w) { return tv::check::gtest_repro(w, fail->kind); });
  }

  std::printf(
      "tvfuzz: %d circuit cases (%lld sim runs, %lld violating, verifier flagged %d), "
      "%d wave cases, %d failure%s\n",
      opt.circuit_seeds, sim_runs, sim_violating, tv_found, opt.wave_seeds, failures,
      failures == 1 ? "" : "s");
  return failures ? 1 : 0;
}
