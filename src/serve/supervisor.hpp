// Crash-isolated job supervisor for scaldtvd.
//
// Each verification job runs in its own worker process (fork/exec of
// scaldtv), so a crashing, hanging, or resource-exhausted design takes down
// one worker, never the daemon or the rest of the batch. The supervisor:
//
//   * keeps at most `workers` jobs in flight, launching from a FIFO queue;
//   * arms a per-job wall-clock watchdog (the job's --time-limit budget
//     plus `watchdog_slack` to let the worker degrade gracefully first;
//     jobs with no limit get `default_timeout`) and SIGKILLs overruns;
//   * classifies worker exits: 0/1/2/3 are terminal (mapped to JobStates),
//     exit 5 (transient environment failure) and any signal death are
//     retried with exponential backoff + deterministic jitter, up to
//     `max_attempts`; exhausted retries become JobState::Crashed (exit 4);
//   * on SIGTERM/SIGINT (signalled via *shutdown) stops launching, lets
//     running workers finish (watchdogs stay armed), and records pending
//     and backing-off jobs as Requeued in the manifest;
//   * enforces the overload policy (docs/serving.md): per-job RSS budgets
//     (mem_limit_mb -> ResourceExhausted), bounded admission (max_queue ->
//     Shed), and the poison-design circuit breaker (quarantine_after ->
//     Quarantined), all journaled so --resume replays them identically;
//   * winds down loudly (draining, jobs Requeued) the moment the
//     write-ahead journal latches a failed append -- a batch that cannot
//     be journaled must not pretend to be durable.
//
// Determinism: backoff jitter is a pure function of (job id, attempt,
// seed), and the manifest is sorted by id with no timestamps, so a batch
// replayed with the same seed and fault plan produces a byte-identical
// manifest regardless of worker scheduling.
#pragma once

#include <csignal>
#include <cstdint>
#include <memory>
#include <string>
#include <sys/types.h>
#include <vector>

#include "serve/job.hpp"
#include "serve/manifest.hpp"

namespace tv::serve {

class Journal;
struct JournalReplay;

struct SupervisorOptions {
  std::string scaldtv_path = "scaldtv";  // worker binary (execvp semantics)
  unsigned workers = 1;                  // max jobs in flight
  int max_attempts = 3;                  // launches per job before Crashed
  std::uint64_t backoff_base_ms = 100;   // first retry delay
  std::uint64_t backoff_max_ms = 5000;   // delay cap
  double watchdog_slack = 2.0;           // seconds past --time-limit
  double default_timeout = 0;            // watchdog for no-limit jobs (0 = none)
  std::uint64_t jitter_seed = 0;         // keys the deterministic jitter
  // TV_FAULT spec forced into every worker's environment (daemon-level
  // chaos, on top of per-job `fault` specs). Applied with the same
  // fault_attempts gating rules -- here, every attempt.
  std::string fault_spec;
  // Set to nonzero (by a signal handler) to request graceful shutdown.
  volatile std::sig_atomic_t* shutdown = nullptr;
  bool verbose = false;  // per-attempt progress lines on stderr
  // Keep one warm worker process per distinct design alive across jobs
  // (serve/warm_pool.hpp) instead of fork/exec-ing scaldtv per attempt.
  // Crash isolation is unchanged: a worker that exits with anything but a
  // verdict (0/1/3) is discarded and the next attempt gets a fresh process.
  bool warm = false;
  // Cap on idle resident workers the warm pool keeps alive between jobs
  // (0 = unlimited). When a verdict would push the idle pool past the cap
  // the least-recently-used resident is retired and counted in the
  // manifest's "evictions" field. With the cap on, workers persist each
  // design's fixpoint snapshot (<design>.tvf, core/fixpoint.hpp) after its
  // first clean baseline, so an evicted design's next worker restores the
  // warm baseline from the sidecar instead of re-verifying cold. Only
  // meaningful with warm = true.
  std::size_t max_resident = 0;
  // Write-ahead job journal (serve/journal.hpp): every launch / outcome /
  // settle transition is appended+fsync'd before the batch proceeds. After
  // each append the supervisor touches the serve.kill9 fault site, so the
  // chaos tests can SIGKILL the daemon at any seeded transition and prove
  // --resume finishes the batch with a byte-identical manifest. Null = no
  // journaling.
  Journal* journal = nullptr;
  // Replayed prior run (scaldtvd --resume): jobs whose replayed outcomes
  // already settle them are carried straight into the manifest without
  // relaunching; the rest re-enter the queue with their attempt counts and
  // outcome histories preserved. Null = fresh batch.
  const JournalReplay* resume = nullptr;
  // Per-job memory budget in MiB (0 = none). Enforced by a supervisor-side
  // /proc/<pid>/statm RSS watchdog on running workers (both backends) plus
  // a setrlimit(RLIMIT_DATA) backstop in fork/exec children (skipped under
  // ASan, whose shadow mappings would trip it at startup). A breach is the
  // deterministic outcome "mem-limit", never a raw SIGKILL mystery: the
  // job settles ResourceExhausted immediately, or -- with mem_retry -- is
  // retried like a transient and settles ResourceExhausted only once
  // attempts are exhausted with the final attempt still breaching.
  long mem_limit_mb = 0;
  bool mem_retry = false;
  // Bounded admission (0 = unbounded): only the first max_queue jobs by
  // input order are admitted; the rest settle as JobState::Shed at batch
  // start. Keyed to input order, not runtime scheduling, so a resumed
  // batch sheds exactly the same jobs.
  long max_queue = 0;
  // Poison-design circuit breaker (0 = disabled): after quarantine_after
  // consecutive Crashed/ResourceExhausted settlements of jobs sharing a
  // design key (content hash of the design artifact + front-end mode
  // flags), the breaker trips and every not-yet-attempted job with that
  // key fast-fails as JobState::Quarantined. To make "consecutive" well
  // defined under parallelism, jobs sharing a key are serialized in input
  // order while the breaker is enabled.
  int quarantine_after = 0;
};

/// Deterministic backoff delay before `attempt`+1 (attempt is the 1-based
/// number of the launch that just failed): min(base * 2^(attempt-1), max)
/// plus jitter in [0, base) derived from (job_id, attempt, seed), the total
/// clamped to max -- backoff_max_ms is a hard ceiling on the delay, jitter
/// included.
std::uint64_t backoff_delay_ms(const SupervisorOptions& opts,
                               const std::string& job_id, int attempt);

/// One poll of a running attempt.
struct WorkerPoll {
  enum class Kind {
    Running,   // still going
    Exited,    // finished with `value` as its exit code
    Signaled,  // killed by signal `value` (or lost: treated as SIGKILL)
  };
  Kind kind = Kind::Running;
  int value = 0;
};

/// How the supervisor obtains worker processes. The retry/watchdog/drain
/// state machine in run_jobs is backend-agnostic: it launches an attempt,
/// polls it, and may kill it; the backend decides whether that means a
/// fresh fork/exec of scaldtv or a command dispatched to a warm resident
/// worker. launch() returns the pid to poll/kill, or -1 for a spawn
/// failure (treated as a transient worker loss).
class WorkerBackend {
 public:
  virtual ~WorkerBackend() = default;
  virtual pid_t launch(const JobSpec& job, int attempt) = 0;
  virtual WorkerPoll poll(pid_t pid) = 0;
  virtual void kill_worker(pid_t pid) = 0;
  /// Resident workers retired by the max_resident LRU cap so far. Backends
  /// without a resident pool report 0, which keeps manifests byte-identical
  /// across backends when no cap is configured.
  virtual std::size_t evictions() const { return 0; }
  /// Durable writes the backend's workers had to skip because the
  /// filesystem refused them (warm-pool snapshot sidecars under disk
  /// pressure). Feeds the manifest's durability_degraded counter; backends
  /// without durable writes report 0.
  virtual std::size_t durability_degraded() const { return 0; }
};

/// The classic backend: one fork/exec of `opts.scaldtv_path` per attempt.
/// `opts` must outlive the backend.
std::unique_ptr<WorkerBackend> make_fork_exec_backend(const SupervisorOptions& opts);

/// The fault spec this attempt runs under: the job's own fault wins (gated
/// on fault_attempts), else the daemon-wide spec, else null. Shared by both
/// backends so fork/exec (TV_FAULT env) and warm workers (spec sent over
/// the command pipe) gate injection identically.
const std::string* effective_fault_spec(const JobSpec& job,
                                        const SupervisorOptions& opts,
                                        int attempt);

/// Resident set size of `pid` in bytes via /proc/<pid>/statm, or -1 when
/// the process is gone or /proc is unreadable. Shared by the supervisor's
/// per-job RSS watchdog and the warm pool's between-jobs soft check.
long worker_rss_bytes(pid_t pid);

/// Runs every job to a terminal state (or Requeued under shutdown) and
/// returns the manifest. Jobs are launched in input order; results are
/// keyed by id, so output order does not depend on scheduling. The
/// two-argument form picks the backend from opts.warm. Throws
/// std::invalid_argument, before any launch, when opts.fault_spec is a plan
/// util/fault refuses.
Manifest run_jobs(const std::vector<JobSpec>& jobs, const SupervisorOptions& opts);
Manifest run_jobs(const std::vector<JobSpec>& jobs, const SupervisorOptions& opts,
                  WorkerBackend& backend);

}  // namespace tv::serve
