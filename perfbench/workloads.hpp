// The benchmark's workloads and the outside-in instrumentation of one run.
//
// A run is one call of a public topology runner (topo::run_tertiary_tree or
// topo::run_big_tree). Through the runner's `instrument` hook the benchmark
// installs a passive replay::RunObserver and schedules marker events:
// t = 0 (set-up finished: the first event the engine dispatches), the
// warm-up instant, the end of the run, and ten sender-state samples in the
// measured phase. The three phase markers read the steady
// clock, the scheduler's EngineCounters, the process allocation counter and
// the RLA sender / link counters the observer collected as they attached.
// No library source is involved; the markers only read.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "stats/engine_counters.hpp"
#include "topo/flow_rows.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  bool big_tree = false;  // topo::run_big_tree, else run_tertiary_tree
  bool web = false;       // workload::TrafficKind::kWeb background traffic
  int receivers = 27;     // RLA session size n
  int group_size = 1;     // big tree only: members per collapsed leaf
  double duration = 0.0;  // simulated seconds
  double warmup = 0.0;    // measured phase is [warmup, duration]
};

const std::vector<Workload>& workloads();
const Workload* find_workload(std::string_view name);

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Host-time histogram of dispatch spans at 1 ns resolution (spans at or
/// above the top bucket are clamped into it).
class SpanHistogram {
 public:
  void add(std::uint64_t ns);
  /// Smallest span s with at least q of all spans <= s.
  double quantile(double q) const;

 private:
  static constexpr std::size_t kBuckets = 1 << 17;  // 131 us
  std::vector<std::uint32_t> buckets_;  // sized on first add
  std::uint64_t count_ = 0;
};

/// What a marker event reads.
struct Mark {
  bool taken = false;
  double wall = 0.0;  // steady clock, seconds
  AllocCount alloc;
  rlacast::stats::EngineCounters ec;
  std::uint64_t acks = 0;              // RLA sender ACKs processed
  std::uint64_t draws = 0;             // RNG draws seen by the observer
  std::uint64_t link_hops = 0;         // packets delivered over all links
  std::uint64_t droptail_arrivals = 0; // packets offered to drop-tail queues
  std::uint64_t red_arrivals = 0;      // packets offered to RED queues
};

struct RunOptions {
  bool markers = true;  // false only in the marker-safety test
  bool traced = false;  // observe every dispatch (span histogram)
  /// Build the network and stop at t = 0 (only the set-up marker fires):
  /// extra set-up samples for the setup_s median.
  bool setup_only = false;
};

/// Everything one runner call produced, simulated and measured.
struct RunOutcome {
  bool completed = false;
  std::string error;
  double t_call = 0.0;    // steady clock before the runner call
  double t_return = 0.0;  // steady clock after it returned
  AllocCount alloc_call;
  Mark t0, warm, end;

  // Simulated outputs (deterministic for a fixed seed).
  std::vector<rlacast::topo::FlowRow> rla;
  std::vector<rlacast::topo::FlowRow> tcps;
  std::uint64_t dispatched = 0;  // whole run, marker events excluded
  std::uint64_t acks = 0;        // whole run
  double worst_pps = 0.0;        // worst background flow throughput
  double ratio = 0.0;            // RLA / worst background flow throughput
  double band_lo = 0.0, band_hi = 0.0;
  double bottleneck_drop_rate = 0.0;
  std::uint64_t offpath_drops = 0;
  int fetches_started = 0, fetches_completed = 0;
  double sender_bytes_per_rcvr = 0.0;     // mean over the state samples
  std::size_t materialized_hiwater = 0;  // max over the state samples
  std::uint64_t rla_signals = 0, rla_window_cuts = 0, rla_rexmits = 0;

  SpanHistogram spans;  // traced runs: measured-phase dispatch spans

  double setup_s() const { return t0.wall - t_call; }
  double wall_s() const { return t_return - t_call; }
  double measured_wall_s() const { return end.wall - warm.wall; }
  std::uint64_t measured(std::uint64_t rlacast::stats::EngineCounters::*field) const {
    return end.ec.*field - warm.ec.*field;
  }
};

RunOutcome run_once(const Workload& w, std::uint64_t seed, RunOptions opt);

/// The run's simulated outputs as named values: two runs of one seed did
/// the same simulated work iff these compare equal.
std::vector<std::pair<std::string, double>> fingerprint(const RunOutcome& r);

/// Name of the first differing entry ("" when equal).
std::string first_difference(
    const std::vector<std::pair<std::string, double>>& a,
    const std::vector<std::pair<std::string, double>>& b);

}  // namespace perfbench
