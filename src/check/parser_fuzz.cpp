#include "check/parser_fuzz.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <span>
#include <string_view>
#include <vector>

#include "core/incremental.hpp"
#include "diag/diagnostic.hpp"
#include "gen/regfile_example.hpp"
#include "hdl/elaborate.hpp"
#include "hdl/stdlib.hpp"
#include "serve/job.hpp"
#include "serve/journal.hpp"

namespace tv::check {

namespace {

// Small valid designs exercising the grammar's surface: macros, parameters,
// vector ranges, cases, wire delays, checkers. Mutations start from these
// (or from the standard chip library) so they reach deep into the parser
// instead of dying at the first token.
constexpr std::string_view kSeedDesigns[] = {
    R"(design TINY {
  period 50.0;
  clock_unit 6.25;
  reg [delay=1.5:4.5] ("D .S0-6", "CK .P8-9") -> "Q";
  setup_hold [setup=2.5, hold=1.5] ("D .S0-6", "CK .P8-9");
}
)",
    R"(macro PIPE(SIZE) {
  param in "I<0:SIZE-1>", "CK";
  param out "Q<0:SIZE-1>";
  reg [delay=1.5:4.5, width=SIZE] ("I<0:SIZE-1>", "CK") -> "Q<0:SIZE-1>";
  setup_hold [setup=2.5, hold=1.5, width=SIZE] ("I<0:SIZE-1>", "CK");
}
design PAIR {
  period 40.0;
  clock_unit 5.0;
  default_wire 0.0:2.0;
  use PIPE [SIZE=4] ("D<0:3> .S0-5", "CK .P6-7", "M<0:3>");
  wire_delay "M<0:3>" 0.5:1.5;
  use PIPE [SIZE=4] ("M<0:3>", "CK .P6-7", "Q<0:3>");
}
)",
    R"(design CASES {
  period 60.0;
  clock_unit 7.5;
  default_wire 0.0:2.0;
  buf [delay=0.5:2.0] ("SEL") -> "SELB";
  wire_delay "SELB" 0:0;
  mux2 [delay=1.2:3.3] ("SELB", "A .S0-6", "B .S0-6") -> "OUT";
  case "sel low" { "SEL" = 0; }
  case "sel high" { "SEL" = 1; }
}
)",
};

// Tokens spliced in by the token-level mutator: keywords, punctuation and
// fragments the grammar cares about.
constexpr std::string_view kSpliceTokens[] = {
    "macro", "design", "param", "use", "case", "period", "clock_unit",
    "default_wire", "precision_skew", "synonym", "wire_delay", "setup_hold",
    "reg", "->", "{", "}", "(", ")", "[", "]", "<0:SIZE-1>", "\"", ";", ",",
    "=", ":", "0", "-1", "1e9", "delay=", "width=", "/P", "/M", "--", "\n",
    ".P0-4", ".S0-6", "&Z",
};

// The JSON inputs: a scaldtvd job line, a netlist delta against the regfile
// example (gen/regfile_example.cpp names), and a write-ahead journal (its
// header's opening, with the current version, is prepended at run time).
constexpr std::string_view kSeedJobLine =
    R"({"id": "fuzz-1", "design": "designs/regfile_example.shdl", "stdlib": true, )"
    R"("time_limit": 2.5, "jobs": 2, "reverify": "edit.json", )"
    R"("fault": "evaluator.eval@40:abort", "fault_attempts": 1})";

constexpr std::string_view kSeedDelta = R"({"prims": [
  {"prim": "WE GATE", "dmin": 1.0, "dmax": 3.5, "rise_fall": [0.3, 1.0, 0.4, 1.2]},
  {"prim": "REG SETUP", "setup": 3.5, "hold": 1.5}],
 "pins": [{"prim": "READ OR 10102", "input": 1, "signal": "READ EN .S0-8", "invert": false}],
 "wires": [{"signal": "ADR SEL", "dmin": 0.0, "dmax": 1.0}, {"signal": "ADR<0:3>", "clear": true}],
 "assertions": [{"signal": "WRITE .S0-6", "new": "WRITE .S0-5.5"}],
 "cases": [{"name": "write off", "pins": [["WRITE .S0-6", 0]], "at": 0}]}
)";

constexpr std::string_view kSeedJournalTail =
    R"(, "jobs": 1, "jobs_digest": "a8c7f832281a39c5", "seed": 1, "max_attempts": 3, )"
    R"("mem_limit_mb": 0, "mem_retry": 0, "max_queue": 0, "quarantine_after": 0}
{"job": "a", "attempt": 1, "event": "launch"}
{"job": "a", "attempt": 1, "event": "outcome", "outcome": "signal:6"}
{"job": "a", "attempt": 2, "event": "launch"}
{"job": "a", "attempt": 2, "event": "outcome", "outcome": "exit:0"}
{"job": "a", "event": "settle", "state": "done"}
{"event": "quarantine", "key": "00000000000000ff"}
)";

constexpr std::string_view kJsonSpliceTokens[] = {
    "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u00e9", "\\ud83d\\ude00", "\\ud800",
    "\\x", "true", "false", "null", "0", "-1", "0.5", "1e999", "1-2", "+1", "nan",
    "inf", "99999999999999999999", "\"id\"", "\"prim\"", "\"input\"", "\"at\"",
    "\"pins\"", "\"event\"", "\"attempt\"", "\x01", "\n", "\xc3\xa9",
};

std::string mutate(std::string src, std::mt19937_64& rng,
                   std::span<const std::string_view> splice_tokens) {
  auto rnd = [&](std::size_t n) -> std::size_t {
    return n ? static_cast<std::size_t>(rng() % n) : 0;
  };
  int rounds = 1 + static_cast<int>(rnd(8));
  for (int r = 0; r < rounds; ++r) {
    if (src.empty()) src = "x";
    switch (rnd(6)) {
      case 0: {  // flip one byte to a random printable (or newline)
        char c = "\n\t !\"#$%&'()*+,-./0123456789:;<=>?@AZaz{|}~"[rnd(43)];
        src[rnd(src.size())] = c;
        break;
      }
      case 1: {  // delete a span
        std::size_t at = rnd(src.size());
        std::size_t len = 1 + rnd(16);
        src.erase(at, len);
        break;
      }
      case 2: {  // duplicate a span
        std::size_t at = rnd(src.size());
        std::size_t len = 1 + rnd(24);
        std::string span = src.substr(at, len);
        src.insert(rnd(src.size() + 1), span);
        break;
      }
      case 3: {  // truncate
        src.resize(rnd(src.size() + 1));
        break;
      }
      case 4: {  // splice in a grammar token
        std::string_view tok = splice_tokens[rnd(splice_tokens.size())];
        src.insert(rnd(src.size() + 1), std::string(tok));
        break;
      }
      case 5: {  // swap two chunks
        if (src.size() < 4) break;
        std::size_t a = rnd(src.size() / 2);
        std::size_t b = src.size() / 2 + rnd(src.size() - src.size() / 2);
        std::size_t len = 1 + rnd(12);
        std::string sa = src.substr(a, std::min(len, b - a));
        std::string sb = src.substr(b, len);
        src.replace(b, sb.size(), sa);
        src.replace(a, sa.size(), sb);
        break;
      }
    }
  }
  return src;
}

// The JSON readers as their consumers call them; false with a message in
// *error is a rejection. An accepted delta must also apply or be refused by
// apply_delta's validation: parsed indices and times reach the netlist.
bool read_delta(const std::string& text, std::string* error) {
  Netlist nl;
  gen::build_regfile_example(nl);
  NetlistDelta delta;
  if (!parse_delta_json(text, nl, &delta, error)) return false;
  std::vector<CaseSpec> cases;
  try {
    apply_delta(nl, cases, delta);
  } catch (const std::invalid_argument& e) {
    *error = e.what();
    return false;
  }
  return true;
}

bool read_journal(const std::string& text, std::string* error) {
  const char* tmp = std::getenv("TMPDIR");
  std::string path =
      std::string(tmp ? tmp : "/tmp") + "/tvfuzz-" + std::to_string(getpid()) + ".journal";
  std::ofstream(path, std::ios::binary) << text;
  bool ok = serve::replay_journal(path, error).has_value();
  std::remove(path.c_str());
  return ok;
}

}  // namespace

std::optional<ParserFuzzFailure> check_parser_robustness(std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
  std::size_t corpus = std::size(kSeedDesigns) + 1;
  std::size_t pick = static_cast<std::size_t>(rng() % corpus);
  std::string base = pick < std::size(kSeedDesigns)
                         ? std::string(kSeedDesigns[pick])
                         : std::string(hdl::std_chip_library()) +
                               std::string(kSeedDesigns[0]);
  std::string mutated = mutate(std::move(base), rng, kSpliceTokens);

  diag::DiagnosticEngine diags;
  diags.set_current_file("<fuzz>");
  auto fail = [&](std::string kind, std::string detail) {
    return ParserFuzzFailure{seed, std::move(kind), std::move(detail), mutated};
  };
  try {
    std::optional<hdl::ElaboratedDesign> d = hdl::elaborate_source(mutated, diags);
    if (!d && !diags.has_errors()) {
      return fail("silent-rejection",
                  "front end rejected the input without reporting any error "
                  "diagnostic");
    }
    if (d && diags.has_errors()) {
      return fail("accepted-with-errors",
                  "front end produced a design despite reporting errors");
    }
  } catch (const std::exception& e) {
    return fail("uncaught-exception", e.what());
  } catch (...) {
    return fail("uncaught-exception", "non-standard exception escaped the front end");
  }
  const struct {
    const char* what;
    std::string text;
    bool (*read)(const std::string&, std::string*);
  } json_inputs[] = {
      {"job line", std::string(kSeedJobLine),
       [](const std::string& text, std::string* error) {
         return serve::parse_job_line(text, error).has_value();
       }},
      {"delta", std::string(kSeedDelta), read_delta},
      {"journal", "{\"journal\": \"scaldtvd\", \"version\": " +
                      std::to_string(serve::kJournalVersion) + std::string(kSeedJournalTail),
       read_journal},
  };
  for (const auto& input : json_inputs) {
    mutated = mutate(input.text, rng, kJsonSpliceTokens);
    std::string what = std::string(input.what) + ": ";
    try {
      std::string error;
      if (!input.read(mutated, &error) && error.empty()) {
        return fail("silent-rejection", what + "rejected the input without a message");
      }
    } catch (const std::exception& e) {
      return fail("uncaught-exception", what + e.what());
    } catch (...) {
      return fail("uncaught-exception", what + "non-standard exception escaped the reader");
    }
  }
  return std::nullopt;
}

std::size_t seed_design_count() { return std::size(kSeedDesigns); }

std::string seed_design(std::size_t index) {
  return std::string(kSeedDesigns[index % std::size(kSeedDesigns)]);
}

}  // namespace tv::check
