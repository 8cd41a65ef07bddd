// Fork-based crash isolation for experiment runs (POSIX only). It is also
// exp::Runner's only hard timeout: any run with timeout_seconds > 0 goes
// through run_isolated(), because a forked child can be killed and a
// thread cannot.
//
// run_isolated() executes one run in a forked child under rlimit caps and
// reads the outcome back over a pipe. The contract is that NOTHING the run
// does — SIGSEGV, SIGABRT, an OOM kill, an rlimit CPU overrun, a silent
// _exit — can take the sweep down: the parent classifies whatever the child
// did and returns a structured IsolateOutcome.
//
// Crash detection is deliberately payload-based: a child that died without
// delivering a *complete* result payload crashed, whether it was killed by
// a signal (plain build) or converted the fault into exit(1) (sanitizer
// builds intercept SIGSEGV). Timeouts are the parent's doing — past the
// deadline the child is SIGKILLed and the outcome says timed_out, not
// crashed. Concurrent calls (one per Runner worker) are safe: the forks
// are serialized from pipe() to the parent's close of the write end, so
// no child ever holds another run's result pipe open.
//
// Caveats, recorded here because they are caveats of fork(), not of this
// wrapper: the child of a multi-threaded parent must not depend on other
// threads' locks (run_fn must be self-contained, which the Runner's
// determinism contract already demands), and RLIMIT_AS caps are unreliable
// under AddressSanitizer's shadow-memory reservations (tests gate on it).
#pragma once

#include <cstddef>
#include <functional>
#include <string>

#include "exp/results.hpp"
#include "exp/spec.hpp"

namespace rlacast::exp {

// Runner's RunFn type, re-declared so this header does not need
// runner.hpp.
using IsolatedRunFn = std::function<Metrics(const RunSpec&)>;

struct IsolateLimits {
  /// RLIMIT_CPU for the child, seconds (rounded up); 0 = unlimited.
  double cpu_seconds = 0.0;
  /// RLIMIT_AS for the child, MiB; 0 = unlimited.
  std::size_t memory_mb = 0;
};

struct IsolateOutcome {
  bool completed = false;  // child delivered a full result payload
  bool crashed = false;    // died without one (signal, abort, OOM, rlimit)
  bool timed_out = false;  // parent deadline hit; child was SIGKILLed
  int term_signal = 0;     // terminating signal when the child was signaled
  int exit_code = -1;      // exit status when the child exited
  // Result payload, valid when completed:
  bool ok = false;
  Metrics metrics;
  std::string error;

  /// One-line human description of a non-completed outcome
  /// ("killed by signal 11 (SIGSEGV)", "exited 1 without a result").
  std::string describe() const;
};

/// Runs `fn(spec)` in a forked child under `limits`, waiting at most
/// `timeout_seconds` (0 = forever). Exceptions inside the child are caught
/// there and travel back as ok=false payloads, exactly like the in-process
/// path; only abnormal death reports crashed=true.
IsolateOutcome run_isolated(const IsolatedRunFn& fn, const RunSpec& spec,
                            const IsolateLimits& limits,
                            double timeout_seconds);

}  // namespace rlacast::exp
