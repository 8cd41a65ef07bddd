// Parallel experiment execution: a fixed-size std::thread pool pulls runs
// off a shared index-based work queue and writes each RunResult into its
// grid slot, so the returned Results order is the grid order no matter how
// threads interleave.  Determinism contract: run_fn(spec) must depend only
// on `spec` (all randomness seeded from spec.seed) — then --jobs N is
// bit-identical to --jobs 1.
//
// A run that throws becomes an error row (ok = false, error = what()) and
// the rest of the batch proceeds.  Progress goes to stderr as monotonic
// "exp: k/N id (t s)" completion lines (off by default so single-replicate
// bench transcripts stay byte-compatible with the pre-runner format).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "exp/results.hpp"
#include "exp/spec.hpp"

namespace rlacast::exp {

/// Scenario closure: maps a RunSpec to its metric rows. Must be callable
/// concurrently from multiple threads (capture shared state const-only).
using RunFn = std::function<Metrics(const RunSpec&)>;

struct RunnerOptions {
  int jobs = 1;           // worker threads; clamped to [1, #runs]
  bool progress = false;  // per-completion lines on stderr
  /// Soak heartbeat: while the batch runs, print "exp: heartbeat k/N done
  /// (t s elapsed)" to stderr every this many wall-clock seconds; 0 (the
  /// default) disables.  Long chaos soaks otherwise look hung between
  /// per-run completion lines.
  double heartbeat_seconds = 0.0;
  /// Per-run wall-clock limit in seconds; 0 disables.  A positive limit
  /// runs every spec in the fork sandbox (exp/sandbox.hpp), which SIGKILLs
  /// an overdue child; the run is recorded as failed ("timeout after N s",
  /// timed_out = true) and the rest of the batch proceeds.  run_fn's side
  /// effects then happen in the child, so only its returned Metrics (and any
  /// files it writes) reach the parent.
  double timeout_seconds = 0.0;

  // --- crash isolation (see exp/sandbox.hpp) ------------------------------
  /// Run every spec in a forked child process, even without a timeout.  A
  /// child killed by SIGSEGV/SIGABRT/OOM (or dying any other abnormal way)
  /// becomes a crashed=true row — with a crash report when crash_dir is
  /// set — and the sweep continues.
  bool isolate = false;
  /// Directory for crash report files ("" = don't write reports).
  std::string crash_dir;
  /// RLIMIT_CPU per forked run (isolate or timeout), seconds; 0 = unlimited.
  double isolate_cpu_seconds = 0.0;
  /// RLIMIT_AS per forked run (isolate or timeout), MiB; 0 = unlimited.
  std::size_t isolate_mem_mb = 0;
  /// Extra lines for a crash report (journal path, last checkpoint id, the
  /// exact `bench_X --replay <journal>` repro command).  Called in the
  /// parent after the crash, so it may inspect files the dead child left.
  std::function<std::string(const RunSpec&)> crash_context;
};

class Runner {
 public:
  explicit Runner(RunnerOptions opts = {}) : opts_(opts) {}

  /// Executes every spec through `fn`. Blocks until the batch finishes.
  Results run(const std::vector<RunSpec>& specs, const RunFn& fn) const;

  /// Convenience: expand + run.
  Results run(const Grid& grid, const RunFn& fn) const {
    return run(grid.expand(), fn);
  }

  /// Batch wall-clock seconds of the most recent run() call.
  double last_wall_seconds() const { return last_wall_seconds_; }

 private:
  RunnerOptions opts_;
  mutable double last_wall_seconds_ = 0.0;
};

}  // namespace rlacast::exp
