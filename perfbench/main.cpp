// perfbench: the repository's benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--smallest] [--corrupt-reference]
//
// Runs one workload (cold_source, compiled_cases, edit_reverify,
// serve_stream) on inputs generated from the seed, measures for S seconds,
// checks every output against a reference computed in set-up on an
// independent path, and prints two JSON lines: a provenance block, then the
// result {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones, from
// spans recorded around each library call (written to DIR as
// trace-<workload>-<seed>.json). Exit status: 0 when every output matched,
// 1 when any op failed, 2 when the workload could not be set up.
//
// --smallest and --corrupt-reference serve selftest.py.
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every workload prints every metric of its mode (BENCHMARK.json lists the
// same names); a per-layer metric a workload has no layer for reads 0.
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

const MetricSpec kPerLayer[] = {
    {"hdl.parse_ms", "ms"},           {"hdl.elaborate_ms", "ms"},
    {"hdl.us_per_prim", "us"},        {"compiled.load_ms", "ms"},
    {"compiled.bytes", "bytes"},      {"compiled.serialize_ms", "ms"},
    {"eval.fixpoint_ms", "ms"},       {"eval.events", "count"},
    {"eval.evals", "count"},          {"intern.memo_hit_rate", "ratio"},
    {"intern.memo_hits", "count"},    {"intern.memo_misses", "count"},
    {"intern.unique_waveforms", "count"}, {"check.ms", "ms"},
    {"check.violations", "count"},    {"cases.ms", "ms"},
    {"cases.lanes_dirty", "count"},   {"cases.lanes_skipped", "count"},
    {"incr.parse_delta_ms", "ms"},    {"incr.reverify_ms", "ms"},
    {"incr.dirty_prims", "count"},    {"incr.touched_signals", "count"},
    {"incr.cases_reevaluated", "count"}, {"incr.cases_spliced", "count"},
    {"incr.fallback_frac", "ratio"},  {"snap.serialize_ms", "ms"},
    {"snap.load_ms", "ms"},           {"snap.restore_ms", "ms"},
    {"snap.bytes", "bytes"},          {"snap.warm_start_ms", "ms"},
    {"report.render_ms", "ms"},       {"report.bytes", "bytes"},
    {"serve.queue_wait_ms", "ms"},    {"serve.dispatch_ms", "ms"},
    {"serve.service_ms", "ms"},       {"serve.attempts_per_job", "ratio"},
    {"serve.worker_spawns", "count"}, {"serve.manifest_ms", "ms"},
    {"self.op_ms", "ms"},             {"self.hdl_ms", "ms"},
    {"self.compiled_ms", "ms"},       {"self.eval_ms", "ms"},
    {"self.check_ms", "ms"},          {"self.cases_ms", "ms"},
    {"self.incr_ms", "ms"},           {"self.snap_ms", "ms"},
    {"self.report_ms", "ms"},         {"self.serve_ms", "ms"},
    {"trace.overhead_ms", "ms"},      {"trace.overhead_frac", "ratio"},
    {"trace.spans_per_op", "count"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload cold_source|compiled_cases|edit_reverify|"
               "serve_stream --seed N --seconds S --trace 0|1 [--out-dir DIR] [--smallest] "
               "[--corrupt-reference]\n");
  return 2;
}

std::string self_dir() {
  char buf[PATH_MAX];
  ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return ".";
  std::string p(buf, static_cast<std::size_t>(n));
  return p.substr(0, p.rfind('/'));
}

bool listed(const std::string& name, bool trace) {
  if (trace) {
    for (const MetricSpec& m : kPerLayer) {
      if (name == m.name) return true;
    }
    return false;
  }
  for (const MetricSpec& m : kEndToEnd) {
    if (name == m.name) return true;
  }
  return false;
}

template <std::size_t N>
std::string metrics_json(pb::Result& r, const MetricSpec (&specs)[N], bool fill_missing) {
  std::string out;
  for (const MetricSpec& m : specs) {
    auto it = r.metrics.find(m.name);
    if (it == r.metrics.end()) {
      if (!fill_missing) throw std::logic_error(std::string("metric not measured: ") + m.name);
      it = r.metrics.emplace(m.name, pb::Metric{0, m.unit, 0}).first;
    }
    out += std::string(out.empty() ? "" : ", ") + "\"" + m.name + "\": {\"value\": " +
           pb::json_number(it->second.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  return "{" + out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  pb::RunOptions o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    auto arg = [&](const char* name) { return std::strcmp(argv[i], name) == 0 && i + 1 < argc; };
    if (arg("--workload")) {
      o.workload = argv[++i];
    } else if (arg("--seed")) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg("--seconds")) {
      o.seconds = std::atof(argv[++i]);
      have_seconds = o.seconds > 0;
    } else if (arg("--trace")) {
      o.trace = std::strcmp(argv[++i], "1") == 0;
      have_trace = true;
    } else if (arg("--out-dir")) {
      o.out_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--smallest") == 0) {
      o.smallest = true;
    } else if (std::strcmp(argv[i], "--corrupt-reference") == 0) {
      o.corrupt_reference = true;
    } else {
      return usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace) return usage();
  o.scaldtv = self_dir() + "/perfbench_scaldtv";

  pb::Result r;
  try {
    if (o.workload == "cold_source") {
      r = pb::run_cold_source(o);
    } else if (o.workload == "compiled_cases") {
      r = pb::run_compiled_cases(o);
    } else if (o.workload == "edit_reverify") {
      r = pb::run_edit_reverify(o);
    } else if (o.workload == "serve_stream") {
      r = pb::run_serve_stream(o);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: set-up failed: %s\n", o.workload.c_str(), e.what());
    return 2;
  }

  std::string metrics;
  try {
    metrics = o.trace ? metrics_json(r, kPerLayer, true) : metrics_json(r, kEndToEnd, false);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  // A metric outside the lists would never reach the result line.
  for (const auto& [name, m] : r.metrics) {
    if (!listed(name, o.trace)) {
      std::fprintf(stderr, "perfbench: unlisted metric %s\n", name.c_str());
      return 2;
    }
  }

  std::string samples, props;
  for (const auto& [name, m] : r.metrics) {
    samples += std::string(samples.empty() ? "" : ", ") + "\"" + name + "\": " +
               std::to_string(m.samples);
  }
  for (const auto& [k, v] : r.properties) {
    props += std::string(props.empty() ? "" : ", ") + "\"" + k + "\": " + v;
  }
  const double failed_frac =
      r.attempted ? static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 1.0;
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"why\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %s, \"trace\": %d, \"nproc\": %ld, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"failed_frac\": %s, \"samples\": {%s}, \"inputs\": {%s}}}\n",
      o.workload.c_str(), pb::json_escape(r.why).c_str(),
      static_cast<unsigned long long>(o.seed), pb::json_number(o.seconds).c_str(),
      o.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
      pb::json_number(failed_frac).c_str(), samples.c_str(), props.c_str());
  const bool correct = r.attempted > 0 && r.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", r.attempted, r.failed, metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
