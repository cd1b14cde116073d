// Shared pieces of the perfbench driver: run options, the seeded RNG,
// sample statistics, the span recorder used by traced runs, and the
// per-workload result every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Self-test knobs (selftest.py): the smallest input sizes, and one flipped
  // byte in the reference the outputs are checked against.
  bool smallest = false;
  bool corrupt_reference = false;
  std::string out_dir = ".";   // trace file and serve_stream's work files
  std::string scaldtv;         // worker binary for the fork/exec reference
};

/// splitmix64: small, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed * 0x9E3779B97F4A7C15ull + 0x632BE59BD9B4E019ull) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) { return n == 0 ? 0 : next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  bool chance(double p) { return unit() < p; }

 private:
  std::uint64_t s_;
};

double median(std::vector<double> xs);
double mean(const std::vector<double>& xs);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> xs, double q);

/// The tail of a latency sample: the highest of p90 (or `max_percentile`),
/// p85, ..., p50 that has at least ten samples beyond it (p50 below twenty
/// samples). Percentiles above p90 are not used: on a shared host they are
/// set by neighbours' bursts and moved by 30-90% between identical runs.
/// The 5-point steps keep runs whose sample counts differ a little on the
/// same percentile, or on a neighbouring one.
struct Tail {
  double value = 0;
  double percentile = 50;
};
Tail tail_of(const std::vector<double>& xs, int max_percentile = 90);

/// Span recorder for traced runs. Spans stay in memory and are written out
/// when the run ends. Each span carries its name, start, end, parent span
/// and the op it belongs to. When disabled every call is a no-op.
class Tracer {
 public:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    int parent;
    std::uint32_t op;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Opens a span under the innermost open span; returns its id (-1 when off).
  int open(const char* name, std::uint32_t op);
  void close(int id);
  /// Records a finished span with explicit times (used where the interval is
  /// measured anyway, e.g. a served job's dispatch and service).
  int record(const char* name, std::uint32_t op, Clock::time_point start,
             Clock::time_point end, int parent);
  int current() const { return stack_.empty() ? -1 : stack_.back(); }

  const std::vector<Span>& spans() const { return spans_; }
  /// Self time per span: duration minus the union of its children.
  std::vector<double> self_ms() const;
  bool write_json(const std::string& path) const;

 private:
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, const char* name, std::uint32_t op) : t_(t), id_(t.open(name, op)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// Per-op sums of traced span durations by name ("hdl.parse" -> ms), plus
/// the self time of each layer (the name's prefix before the first '.').
struct OpLayers {
  std::map<std::string, double> span_ms;
  std::map<std::string, double> self_ms;
};
std::vector<OpLayers> layers_by_op(const Tracer& t);

struct Metric {
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

/// What one workload run reports. `metrics` holds the end-to-end metrics
/// (untraced run) or the per-layer metrics (traced run), each with its
/// sample count; `properties` describes the generated input and how the
/// metrics were taken (e.g. the percentile behind the tail).
struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> properties;  // values are JSON
  std::string why;
};

void put(Result& r, const std::string& name, double value, const char* unit,
         std::size_t samples = 1);

/// Puts latency_p50_ms and latency_tail_ms, and records the tail's percentile.
void put_latency(Result& r, const std::vector<double>& op_ms);

/// Samples of the per-layer metrics gathered over the traced ops.
struct LayerSamples {
  std::map<std::string, std::vector<double>> values;
  void add(const std::string& name, double v) { values[name].push_back(v); }
};

/// Traced-run bookkeeping shared by the workloads. Each traced op is paired
/// with an untraced run of the same input; finish() turns the samples and
/// the per-op span sums into per-layer medians, the mean self time of each
/// layer per op, and the tracing overhead, then writes the spans out.
struct TraceReport {
  std::vector<double> traced_ms, untraced_ms;
  LayerSamples layers;

  /// `span_metrics` maps a span name to the metric its per-op sum feeds.
  void finish(Result& res, const Tracer& t, const RunOptions& o,
              const std::vector<std::pair<const char*, const char*>>& span_metrics);
};

/// Runs `make` in a forked child and returns the strings it produced. The
/// references are computed this way so that their heap never shows in this
/// process's peak RSS. Throws std::runtime_error when the child fails.
std::vector<std::string> in_child(const std::function<std::vector<std::string>()>& make);

/// Peak resident set of this process since the last reset_peak_rss(), in MiB.
double peak_rss_mb();
/// Starts a fresh peak-RSS window (Linux clear_refs "5"); returns false when
/// the kernel refuses, in which case peak_rss_mb() covers the whole process.
bool reset_peak_rss();

std::string json_escape(const std::string& s);
std::string json_number(double v);

// The four workloads (workloads.cpp, serve.cpp). Each throws
// std::runtime_error when it cannot set up.
Result run_cold_source(const RunOptions& o);
Result run_compiled_cases(const RunOptions& o);
Result run_edit_reverify(const RunOptions& o);
Result run_serve_stream(const RunOptions& o);

}  // namespace pb
