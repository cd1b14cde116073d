// serve_stream: a closed loop of served jobs. One seeded batch of jobs goes
// through serve::run_jobs on the warm-pool backend again and again, with at
// most `workers` jobs in flight; the benchmark's own WorkerBackend wraps the
// warm pool to time each job from launch() to the poll that sees its exit.
// The reference is the manifest the fork/exec backend (the scaldtv binary)
// produces for the same jobs.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <unordered_map>

#include "bench.hpp"
#include "core/compiled.hpp"
#include "gen.hpp"
#include "gen/regfile_example.hpp"
#include "hdl/elaborate.hpp"
#include "hdl/parser.hpp"
#include "serve/supervisor.hpp"
#include "serve/warm_pool.hpp"

namespace pb {

namespace {

namespace sv = tv::serve;

constexpr int kSetupReps = 5;

/// Times every job at the backend boundary and forwards to the warm pool.
class TimedBackend final : public sv::WorkerBackend {
 public:
  TimedBackend(sv::WorkerBackend& inner, Tracer& t) : inner_(inner), t_(t) {}

  void begin_batch(bool traced, int batch_span) {
    batch_start_ = Clock::now();
    traced_ = traced;
    batch_span_ = batch_span;
    launched_ids_.clear();
  }
  /// Drops the samples taken so far (after the warm-up batch).
  void reset_samples() {
    latency_ms.clear();
    latency_id.clear();
    queue_wait_ms.clear();
    launches = 0;
    spawns = 0;
    worker_peak_bytes.clear();
  }

  pid_t launch(const sv::JobSpec& job, int attempt) override {
    auto t0 = Clock::now();
    pid_t pid = inner_.launch(job, attempt);
    auto t1 = Clock::now();
    ++launches;
    if (launched_ids_.insert(job.id).second) queue_wait_ms.push_back(ms_between(batch_start_, t0));
    if (pid < 0) return pid;
    if (known_pids_.insert(pid).second) ++spawns;
    inflight_[pid] = {job.id, t0, t1};
    return pid;
  }

  sv::WorkerPoll poll(pid_t pid) override {
    sv::WorkerPoll p = inner_.poll(pid);
    if (p.kind == sv::WorkerPoll::Kind::Running) return p;
    auto t2 = Clock::now();
    auto it = inflight_.find(pid);
    if (it == inflight_.end()) return p;
    const Clock::time_point t0 = it->second.launched, t1 = it->second.dispatched;
    latency_ms.push_back(ms_between(t0, t2));
    latency_id.push_back(std::move(it->second.id));
    inflight_.erase(it);
    if (traced_) {
      const std::uint32_t op = next_op_++;
      t_.record("serve.dispatch", op, t0, t1, batch_span_);
      t_.record("serve.service", op, t1, t2, batch_span_);
    }
    // A warm worker stays resident after its job: sample its RSS now and
    // then (a /proc read per job would itself show in the latency).
    if (++exits_ % 32 == 0) {
      long rss = sv::worker_rss_bytes(pid);
      if (rss > 0) worker_peak_bytes[pid] = std::max(worker_peak_bytes[pid], rss);
    }
    return p;
  }

  void kill_worker(pid_t pid) override { inner_.kill_worker(pid); }
  std::size_t evictions() const override { return inner_.evictions(); }
  std::size_t durability_degraded() const override { return inner_.durability_degraded(); }

  std::uint32_t take_op() { return next_op_++; }

  std::vector<double> latency_ms, queue_wait_ms;
  std::vector<std::string> latency_id;  // the job behind each latency_ms
  std::size_t launches = 0, spawns = 0;
  std::map<pid_t, long> worker_peak_bytes;

 private:
  sv::WorkerBackend& inner_;
  Tracer& t_;
  Clock::time_point batch_start_{};
  bool traced_ = false;
  int batch_span_ = -1;
  std::uint32_t next_op_ = 0;
  std::size_t exits_ = 0;
  std::set<std::string> launched_ids_;
  std::set<pid_t> known_pids_;
  struct InFlight {
    std::string id;
    Clock::time_point launched, dispatched;
  };
  std::unordered_map<pid_t, InFlight> inflight_;
};

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary);
  f << bytes;
  if (!f) throw std::runtime_error("cannot write " + path);
}

std::string compile_to(const std::string& path, const std::string& name, const tv::Netlist& nl,
                       const tv::VerifierOptions& opts) {
  tv::CompiledSummary sum;
  sum.primitives = nl.num_prims();
  tv::CompiledDesign cd = tv::compile_design(name, nl, opts, {}, sum);
  std::string bytes = tv::serialize_compiled(cd);
  write_file(path, bytes);
  return bytes;
}

/// A job kind: one design, optionally reverified with one delta file.
struct Template {
  std::string design;
  std::string delta;  // empty = plain verify
  const char* kind;
};

struct ServeInputs {
  std::vector<Template> templates;
  std::vector<std::string> designs;  // one warm pool key each
  std::vector<sv::JobSpec> batch;
  std::vector<std::size_t> batch_template;
  std::size_t design_prims = 0;
};

/// Writes the artifacts and delta files into `dir` and builds the seeded
/// job list: the thesis' register-file example, a one-stage clean S-1
/// design, a one-stage S-1 design with an injected violation, and reverify
/// jobs on the clean one.
///
/// The designs are this small so that every job kind's service time (about
/// 0.15-0.5 ms, launch to answer, on a 4-core shared host) stays well under
/// the supervisor's first poll step (~1.1 ms after launch). A kind of
/// 0.5-0.9 ms (a two- or three-stage design) crosses that step whenever the
/// host slows by a third, and its latency jumps to the next step (~3.3 ms):
/// throughput and tail then move by 30-50% between runs of the same code.
/// Larger designs do not help: with two workers the steps a job is seen at
/// depend on what the other worker's job does, so a six-stage kind read
/// 2.3 ms in one run and 3.2 ms in the next.
ServeInputs make_inputs(const std::string& dir, std::uint64_t seed, std::size_t jobs) {
  ServeInputs in;
  Rng rng(seed);
  {
    tv::Netlist nl;
    tv::gen::RegfileExample ex = tv::gen::build_regfile_example(nl);
    compile_to(dir + "/regfile.tvc", "regfile", nl, ex.options);
    in.designs.push_back(dir + "/regfile.tvc");
    in.design_prims += nl.num_prims();
  }
  S1Text clean = make_s1(1, {});
  tv::hdl::ElaboratedDesign ce = tv::hdl::elaborate(tv::hdl::parse(clean.shdl));
  compile_to(dir + "/s1_clean.tvc", ce.name, ce.netlist, ce.options);
  in.designs.push_back(dir + "/s1_clean.tvc");
  in.design_prims += ce.netlist.num_prims();
  S1Text bad = make_s1(1, {0});
  tv::hdl::ElaboratedDesign be = tv::hdl::elaborate(tv::hdl::parse(bad.shdl));
  compile_to(dir + "/s1_violations.tvc", be.name, be.netlist, be.options);
  in.designs.push_back(dir + "/s1_violations.tvc");
  in.design_prims += be.netlist.num_prims();

  in.templates.push_back({in.designs[0], "", "regfile_verify"});
  in.templates.push_back({in.designs[1], "", "s1_clean_verify"});
  in.templates.push_back({in.designs[2], "", "s1_violations_verify"});
  std::vector<Edit> edits = make_edits(ce.netlist, {}, clean.stages, rng, 4);
  for (std::size_t k = 0; k < edits.size(); ++k) {
    std::string path = dir + "/s1_clean_edit" + std::to_string(k) + ".json";
    write_file(path, edits[k].json);
    in.templates.push_back({in.designs[1], path, "s1_clean_reverify"});
  }

  // Job mix: the four job kinds (regfile, clean S-1, S-1 with violations,
  // reverify on one of the delta files) in equal shares, dealt in seeded
  // order. Equal shares are an assumption: no record of real traffic exists.
  constexpr std::size_t kKinds = 4;
  std::vector<std::size_t> deal(jobs);
  for (std::size_t j = 0; j < jobs; ++j) deal[j] = j % kKinds;
  for (std::size_t i = deal.size(); i > 1; --i) std::swap(deal[i - 1], deal[rng.below(i)]);
  for (std::size_t j = 0; j < jobs; ++j) {
    const std::size_t t = deal[j] < kKinds - 1 ? deal[j] : kKinds - 1 + rng.below(edits.size());
    sv::JobSpec spec;
    char id[32];
    std::snprintf(id, sizeof id, "job-%05zu", j);
    spec.id = id;
    spec.design = in.templates[t].design;
    spec.compiled = true;
    spec.reverify = in.templates[t].delta;
    in.batch.push_back(spec);
    in.batch_template.push_back(t);
  }
  return in;
}

sv::JobSpec template_job(const Template& t, const std::string& id) {
  sv::JobSpec spec;
  spec.id = id;
  spec.design = t.design;
  spec.compiled = true;
  spec.reverify = t.delta;
  return spec;
}

}  // namespace

Result run_serve_stream(const RunOptions& o) {
  Result res;
  res.why = "little verification per job, so the serving envelope (dispatch, pipes, polling) "
            "is what is measured";
  const long nproc = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
  // Half the cores (at most four) serve jobs and the rest are left to the
  // supervisor loop and this process: an assumption, as no record of real
  // deployments exists (scaldtvd's own default is one worker).
  const unsigned workers = static_cast<unsigned>(std::clamp(nproc / 2, 1L, 4L));
  const std::size_t batch_jobs = o.smallest ? 40 : 2000;
  // A job's latency is quantised by the supervisor's poll cadence (poll at
  // once, then sleep 1, 2, 4 ms): a job seen at the first step reads ~1.15
  // ms, one that misses it ~3.3 ms. The share that misses it follows the
  // host's load, not the program: 1-13% over runs of the same code (it is
  // in the provenance). A tail percentile above 100% minus that share reads
  // the step the host put it on, so p90 moved by 30% between runs; the tail
  // is p80, which stays on the first step unless a fifth of the jobs miss it.
  constexpr int kTailPercentile = 80;

  const std::string dir = o.out_dir + "/serve-work-" + std::to_string(getpid());
  std::filesystem::create_directories(dir);
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } cleanup{dir};

  sv::SupervisorOptions opts;
  opts.workers = workers;
  opts.warm = true;
  opts.jitter_seed = o.seed;

  Tracer t(o.trace);
  ServeInputs in;
  std::unique_ptr<sv::WorkerBackend> warm;
  std::unique_ptr<TimedBackend> timed;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    timed.reset();
    warm.reset();
    auto t0 = Clock::now();
    in = make_inputs(dir, o.seed, batch_jobs);
    warm = sv::make_warm_pool_backend(opts);
    timed = std::make_unique<TimedBackend>(*warm, t);
    // Warm every design once per worker slot before timing.
    std::vector<sv::JobSpec> warmup;
    for (const Template& tp : in.templates) {
      for (unsigned w = 0; w < workers; ++w) {
        warmup.push_back(template_job(tp, "warm-" + std::to_string(warmup.size())));
      }
    }
    timed->begin_batch(false, -1);
    sv::run_jobs(warmup, opts, *timed);
    setup_s.push_back(ms_since(t0) / 1000.0);
  }
  timed->reset_samples();

  // Reference: every job kind once through the fork/exec backend.
  sv::SupervisorOptions ref_opts = opts;
  ref_opts.warm = false;
  ref_opts.scaldtv_path = o.scaldtv;
  std::vector<sv::JobSpec> ref_jobs;
  for (std::size_t k = 0; k < in.templates.size(); ++k) {
    ref_jobs.push_back(template_job(in.templates[k], "t" + std::to_string(k)));
  }
  sv::Manifest ref_manifest = sv::run_jobs(ref_jobs, ref_opts);
  std::map<std::string, sv::JobRecord> by_id;
  for (const sv::JobRecord& r : ref_manifest.jobs) by_id[r.id] = r;
  sv::Manifest expected;
  std::map<std::string, std::size_t> state_counts;
  for (std::size_t j = 0; j < in.batch.size(); ++j) {
    sv::JobRecord r = by_id.at("t" + std::to_string(in.batch_template[j]));
    r.id = in.batch[j].id;
    r.design = in.batch[j].design;
    ++state_counts[sv::job_state_name(r.state)];
    expected.jobs.push_back(std::move(r));
  }
  std::string expected_json = expected.to_json();
  std::map<std::string, const sv::JobRecord*> expected_by_id;
  for (const sv::JobRecord& r : expected.jobs) expected_by_id[r.id] = &r;
  Rng crng(o.seed + 7);
  if (o.corrupt_reference && !expected_json.empty()) {
    expected_json[crng.below(expected_json.size())] ^= 0x20;
  }

  std::map<std::string, std::size_t> kinds;
  for (std::size_t tpl : in.batch_template) ++kinds[in.templates[tpl].kind];
  std::string mix, states;
  for (const auto& [k, n] : kinds) {
    mix += (mix.empty() ? "" : ", ") + ("\"" + std::string(k) + "\": ") +
           json_number(static_cast<double>(n) / in.batch.size());
  }
  for (const auto& [k, n] : state_counts) {
    states += (states.empty() ? "" : ", ") + ("\"" + k + "\": ") +
              json_number(static_cast<double>(n) / in.batch.size());
  }
  res.properties["job_mix"] = "{" + mix + "}";
  res.properties["job_mix_basis"] = "\"equal shares, assumed: no record of real traffic\"";
  res.properties["expected_states"] = "{" + states + "}";
  res.properties["jobs_per_batch"] = std::to_string(in.batch.size());
  res.properties["workers"] = std::to_string(workers);
  res.properties["designs"] = std::to_string(in.designs.size());
  res.properties["primitives_all_designs"] = std::to_string(in.design_prims);
  res.properties["loop"] = "\"closed: one batch at a time, <= workers jobs in flight\"";

  reset_peak_rss();
  std::vector<double> batch_rate, traced_ms, untraced_ms, manifest_ms;
  std::vector<Tail> batch_tail;
  const auto start = Clock::now();
  for (std::size_t b = 0; b == 0 || ms_since(start) / 1000.0 < o.seconds; ++b) {
    const bool traced = o.trace && b % 2 == 1;
    const std::uint32_t op = timed->take_op();
    int span = traced ? t.open("serve.run_jobs", op) : -1;
    timed->begin_batch(traced, span);
    const std::size_t first_latency = timed->latency_ms.size();
    auto t0 = Clock::now();
    sv::Manifest m = sv::run_jobs(in.batch, opts, *timed);
    const double ms = ms_since(t0);
    const std::vector<double> batch_ms(
        timed->latency_ms.begin() + static_cast<std::ptrdiff_t>(first_latency),
        timed->latency_ms.end());
    batch_tail.push_back(tail_of(batch_ms, kTailPercentile));
    t.close(span);
    auto tm = Clock::now();
    int mspan = traced ? t.open("serve.manifest", op) : -1;
    std::string json = m.to_json();
    t.close(mspan);
    manifest_ms.push_back(ms_since(tm));
    res.attempted += in.batch.size();
    if (json != expected_json) {
      std::size_t bad = 0;
      for (const sv::JobRecord& a : m.jobs) {
        auto e = expected_by_id.find(a.id);
        if (e == expected_by_id.end() || a.state != e->second->state ||
            a.attempts != e->second->attempts || a.outcomes != e->second->outcomes) {
          ++bad;
        }
      }
      // A manifest whose bytes differ fails at least one job even when no
      // single record shows it.
      res.failed += std::max<std::size_t>(bad, 1);
    }
    batch_rate.push_back(static_cast<double>(in.batch.size()) / (ms / 1000.0));
    (traced ? traced_ms : untraced_ms).push_back(ms);
  }
  double worker_mb = 0;
  for (const auto& [pid, bytes] : timed->worker_peak_bytes) worker_mb += bytes / 1048576.0;
  const double jobs = static_cast<double>(res.attempted);

  if (!o.trace) {
    put(res, "setup_s", median(setup_s), "s", setup_s.size());
    put(res, "throughput_per_s", median(batch_rate), "1/s", batch_rate.size());
    // The tail is taken per batch and the median over batches reported: a
    // host hiccup then moves one batch's tail, not the run's.
    put(res, "latency_p50_ms", median(timed->latency_ms), "ms", timed->latency_ms.size());
    std::vector<double> tails;
    for (const Tail& tl : batch_tail) tails.push_back(tl.value);
    put(res, "latency_tail_ms", median(tails), "ms", tails.size());
    res.properties["latency_tail_percentile"] = json_number(batch_tail.front().percentile);
    res.properties["latency_tail_basis"] = "\"median over batches of each batch's tail\"";
    std::map<std::string, std::size_t> tpl_of;
    for (std::size_t j = 0; j < in.batch.size(); ++j) tpl_of[in.batch[j].id] = in.batch_template[j];
    std::map<std::string, std::vector<double>> by_kind;
    for (std::size_t k = 0; k < timed->latency_ms.size(); ++k) {
      auto tpl = tpl_of.find(timed->latency_id[k]);
      if (tpl != tpl_of.end()) by_kind[in.templates[tpl->second].kind].push_back(timed->latency_ms[k]);
    }
    std::string kinds_p50;
    for (const auto& [kind, xs] : by_kind) {
      kinds_p50 += (kinds_p50.empty() ? "\"" : ", \"") + kind + "\": " + json_number(median(xs));
    }
    res.properties["latency_p50_ms_by_kind"] = "{" + kinds_p50 + "}";
    const auto late = std::count_if(timed->latency_ms.begin(), timed->latency_ms.end(),
                                    [](double ms) { return ms > 2.0; });
    res.properties["share_past_first_poll_step"] =
        json_number(static_cast<double>(late) / std::max<std::size_t>(timed->latency_ms.size(), 1));
    put(res, "peak_rss_mb", peak_rss_mb() + worker_mb, "MB");
    res.properties["throughput_item"] = "\"job\"";
    res.properties["worker_rss_mb"] = json_number(worker_mb);
    return res;
  }
  TraceReport tr;
  tr.traced_ms = traced_ms;
  tr.untraced_ms = untraced_ms;
  tr.layers.values["serve.queue_wait_ms"] = timed->queue_wait_ms;
  tr.layers.add("serve.attempts_per_job", static_cast<double>(timed->launches) / jobs);
  tr.layers.add("serve.worker_spawns", static_cast<double>(timed->spawns));
  tr.finish(res, t, o,
            {{"serve.dispatch", "serve.dispatch_ms"},
             {"serve.service", "serve.service_ms"},
             {"serve.manifest", "serve.manifest_ms"}});
  return res;
}

}  // namespace pb
