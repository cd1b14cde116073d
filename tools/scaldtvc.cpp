// scaldtvc -- compile a SHDL design into a binary compiled-design artifact.
//
// Runs the front end once (parse, macro expansion, elaboration, finalize)
// and writes the artifact `scaldtv --compiled` and the scaldtvd warm workers
// load without re-running it (format spec: docs/serving.md).
//
// Usage:
//   scaldtvc [options] <design.shdl>
//     -o FILE          output path (default: the design path with the
//                      extension replaced by .tvc)
//     --stdlib         prepend the standard chip-macro library
//     --max-errors N   stop after N front-end errors (0 = unlimited)
//     --werror         treat warnings as errors
//     --diag-json FILE write collected diagnostics as JSON
//
// Exit status: 0 compiled, 2 usage or input errors. Two compiles of the
// same source produce byte-identical artifacts (no timestamps; CI checks
// this).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "core/compiled.hpp"
#include "diag/render.hpp"
#include "hdl/elaborate.hpp"
#include "hdl/stdlib.hpp"
#include "util/atomic_file.hpp"
#include "util/fault.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: scaldtvc [-o FILE] [--stdlib] [--max-errors N] [--werror] "
               "[--diag-json FILE] <design.shdl>\n");
  return 2;
}

std::string default_output(const std::string& design_path) {
  std::size_t slash = design_path.find_last_of('/');
  std::size_t dot = design_path.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return design_path + ".tvc";
  }
  return design_path.substr(0, dot) + ".tvc";
}

void flush_diagnostics(const tv::diag::DiagnosticEngine& diags, const char* diag_json_path) {
  if (!diags.diagnostics().empty()) {
    std::fputs(tv::diag::render_text(diags).c_str(), stderr);
  }
  if (diag_json_path) {
    std::ofstream df(diag_json_path);
    df << tv::diag::render_json(diags);
  }
}

}  // namespace

int main(int argc, char** argv) {
  tv::fault::configure_from_env();  // TV_FAULT: io.write etc. (util/fault.hpp)
  const char* path = nullptr;
  const char* out_path = nullptr;
  const char* diag_json_path = nullptr;
  bool with_stdlib = false;
  long max_errors = 20;
  bool werror = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "-o") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--stdlib") == 0) {
      with_stdlib = true;
    } else if (std::strcmp(argv[i], "--werror") == 0) {
      werror = true;
    } else if (std::strcmp(argv[i], "--max-errors") == 0 && i + 1 < argc) {
      char* end = nullptr;
      max_errors = std::strtol(argv[++i], &end, 10);
      if (!end || *end != '\0' || max_errors < 0) return usage();
    } else if (std::strcmp(argv[i], "--diag-json") == 0 && i + 1 < argc) {
      diag_json_path = argv[++i];
    } else if (argv[i][0] == '-') {
      return usage();
    } else if (path) {
      return usage();
    } else {
      path = argv[i];
    }
  }
  if (!path) return usage();

  std::optional<std::string> source = tv::util::read_file(path);
  if (!source) {
    std::fprintf(stderr, "scaldtvc: cannot open %s\n", path);
    return 2;
  }

  tv::diag::DiagnosticEngine::Options diag_opts;
  diag_opts.max_errors = static_cast<std::size_t>(max_errors);
  diag_opts.werror = werror;
  tv::diag::DiagnosticEngine diags(diag_opts);

  try {
    const std::string& text = *source;
    std::optional<tv::hdl::ElaboratedDesign> maybe_design;
    if (with_stdlib) {
      maybe_design = tv::hdl::elaborate_sources(
          {{"<stdlib>", tv::hdl::std_chip_library()}, {path, text}}, diags);
    } else {
      diags.set_current_file(path);
      maybe_design = tv::hdl::elaborate_source(text, diags);
    }
    if (!maybe_design) {
      flush_diagnostics(diags, diag_json_path);
      return 2;
    }
    tv::hdl::ElaboratedDesign& design = *maybe_design;

    tv::CompiledSummary summary;
    summary.macro_instances = design.summary.macro_instances;
    summary.primitives = design.summary.primitives;
    summary.unique_signals = design.summary.unique_signals;
    summary.total_bits = design.summary.total_bits;
    summary.prims_by_kind = design.summary.prims_by_kind;

    tv::CompiledDesign compiled =
        tv::compile_design(design.name, design.netlist, design.options,
                           std::move(design.cases), std::move(summary));
    std::string out = out_path ? out_path : default_output(path);
    std::string error;
    if (!tv::write_compiled_file(compiled, out, &error)) {
      std::fprintf(stderr, "scaldtvc: %s\n", error.c_str());
      return 2;
    }
    std::printf("compiled %s: %zu primitives, %zu signals, %zu seed waveforms -> %s "
                "(hash %016llx)\n",
                compiled.name.c_str(), compiled.netlist.num_prims(),
                compiled.netlist.num_signals(), compiled.seed_arena.size(), out.c_str(),
                static_cast<unsigned long long>(compiled.content_hash));
    flush_diagnostics(diags, diag_json_path);
    return diags.has_errors() ? 2 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scaldtvc: %s\n", e.what());
    return 2;
  }
}
