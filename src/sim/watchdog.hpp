// Watchdog: periodic invariant checker riding inside a simulation run.
//
// A Watchdog ticks at a fixed simulated period and evaluates registered
// checks — each a named predicate returning an empty string when healthy or
// a human-readable description of the violation.  Violations are recorded
// (with the simulated time they were observed) rather than thrown, so a run
// completes and the caller can report every invariant that broke.
//
// Two built-in facilities guard against the failure mode invariant checks
// cannot express from inside a wedged simulation:
//  * event-horizon progress — if the engine dispatches (almost) nothing
//    across several consecutive ticks while events are still pending, the
//    simulation is livelocked and a violation is recorded;
//  * wall-clock limit — set_wall_limit() arms a real-time budget checked at
//    every tick; exceeding it throws WatchdogTimeout out of the event loop,
//    giving the experiment runner a cooperative in-process timeout for runs
//    that are slow but still dispatching (the runner's timeout_seconds,
//    which SIGKILLs the run's forked child, is the backstop for truly
//    wedged runs).
#pragma once

#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace rlacast::sim {

/// Thrown from a watchdog tick when the wall-clock budget is exhausted.
class WatchdogTimeout : public std::runtime_error {
 public:
  explicit WatchdogTimeout(const std::string& what)
      : std::runtime_error(what) {}
};

class Watchdog {
 public:
  struct Violation {
    std::string check;    // name of the check that fired
    std::string detail;   // what the check reported
    SimTime at = 0.0;     // simulated time of observation
  };

  /// `period` is the simulated interval between ticks.
  Watchdog(Simulator& sim, SimTime period);

  /// Registers a named invariant.  `check` returns "" when healthy, else a
  /// description of the violation.  Checks run at every tick, in
  /// registration order.  A check that keeps failing is recorded once per
  /// distinct detail string (no flooding).
  void add_check(std::string name, std::function<std::string()> check);

  /// Arms a real-time budget for the run; exceeding it makes the next tick
  /// throw WatchdogTimeout.  0 disables (default).
  void set_wall_limit(double seconds);

  /// Number of consecutive no-progress ticks (engine dispatching <= 1 event
  /// per tick while events remain pending) tolerated before the built-in
  /// progress check records a livelock violation.  0 disables the check.
  void set_progress_grace(int ticks) { progress_grace_ = ticks; }

  /// Starts ticking.  Call once, after the scenario is wired and before the
  /// event loop runs; the watchdog re-arms itself while events remain.
  void start();

  const std::vector<Violation>& violations() const { return violations_; }
  bool ok() const { return violations_.empty(); }
  std::uint64_t ticks() const { return ticks_; }

  /// One-line rendering of all violations ("" when ok) for error reporting.
  std::string report() const;

 private:
  void tick();
  void record(const std::string& check, const std::string& detail);

  Simulator& sim_;
  SimTime period_;
  std::vector<std::pair<std::string, std::function<std::string()>>> checks_;
  std::vector<Violation> violations_;
  double wall_limit_ = 0.0;
  std::chrono::steady_clock::time_point wall_start_{};
  int progress_grace_ = 5;
  int stalled_ticks_ = 0;
  std::uint64_t last_dispatched_ = 0;
  std::uint64_t ticks_ = 0;
  bool started_ = false;
};

}  // namespace rlacast::sim
