// The restricted topology of Figure 1 and the two-receiver special cases of
// Figure 2, as runnable scenarios.
//
// One sender S with N receivers R_1..R_N.  Virtual link L_i runs S -> G ->
// B_i -> R_i with a per-branch bottleneck of mu_i packets/second, plus m_i
// competing TCP connections from S to R_i along the same path.  All branches
// share the same propagation delay, giving the equal-RTT restricted topology
// the fairness definitions require.  Alternatively a *shared* bottleneck can
// be placed on the common S -> G hop (Figure 2(b): fully correlated losses).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/red.hpp"
#include "rla/rla_params.hpp"
#include "sim/time.hpp"
#include "stats/fairness_monitor.hpp"
#include "tcp/tcp_sender.hpp"
#include "topo/flow_rows.hpp"
#include "topo/gateway.hpp"
#include "workload/workload.hpp"

namespace rlacast::sim {
class Simulator;
}

namespace rlacast::topo {

struct FlatBranch {
  double mu_pps = 200.0;  // bottleneck capacity of this branch, packets/s
  int n_tcp = 1;          // m_i: competing TCP connections on this branch
  /// Additional one-way propagation delay on this branch's last hop.
  /// 0 keeps the equal-RTT restricted topology; nonzero values build
  /// heterogeneous-RTT scenarios (pair with RlaParams::rtt_exponent = 2).
  sim::SimTime extra_delay = 0.0;
};

struct FlatTreeConfig {
  std::vector<FlatBranch> branches;
  /// 0 = per-branch bottlenecks only (fig. 2(a) style); > 0 places the
  /// bottleneck on the shared first hop with this capacity (fig. 2(b));
  /// branch links are then fast.
  double shared_bottleneck_pps = 0.0;
  GatewayType gateway = GatewayType::kDropTail;
  std::size_t buffer_pkts = 20;
  net::RedParams red{};  // min_th 5 / max_th 15 defaults
  double fast_link_bps = 100e6;
  sim::SimTime hop_delay = sim::milliseconds(5);  // per hop, 3 hops per branch
  bool phase_randomization = true;  // random sender overhead for drop-tail
  sim::SimTime duration = 200.0;
  sim::SimTime warmup = 50.0;
  std::uint64_t seed = 1;
  rla::RlaParams rla{};
  tcp::TcpParams tcp{};
  bool with_multicast = true;  // false = TCP-only runs (calibration tests)
  /// Called on the freshly constructed Simulator before any component is
  /// built; the replay subsystem installs its RunObserver here. Empty =
  /// unobserved (default).
  std::function<void(sim::Simulator&)> instrument;
  /// Start-time layout for all senders (kJitter default = the historical
  /// uniform(0,1) draws, byte-identical).
  workload::StartScheduleConfig schedule{};
  /// Sliding-window Jain telemetry over {RLA + TCPs}; window 0 = off.
  stats::FairnessMonitorConfig fairness{};
};

struct FlatTreeResult {
  FlowRow rla;
  std::vector<FlowRow> tcps;              // one per TCP connection
  std::vector<int> tcp_branch;            // branch index of each TCP row
  std::vector<std::uint64_t> rla_signals_per_receiver;
  std::vector<double> bottleneck_drop_rate;  // per branch (or [0] if shared)
  double rla_mcast_rexmits = 0.0;
  double rla_ucast_rexmits = 0.0;
  int num_troubled_final = 0;
  /// Jain-index telemetry (empty / -1 unless fairness.window > 0).
  std::vector<stats::FairnessSample> fairness_samples;
  double min_jain = -1.0;
  double mean_jain = -1.0;

  const FlowRow& worst_tcp() const { return tcps[worst_index(tcps)]; }
  const FlowRow& best_tcp() const { return tcps[best_index(tcps)]; }
};

/// Builds, runs and measures the scenario.
FlatTreeResult run_flat_tree(const FlatTreeConfig& cfg);

}  // namespace rlacast::topo
