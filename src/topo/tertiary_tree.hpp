// The four-level tertiary tree of Figure 6 — the paper's evaluation
// topology — with the five bottleneck placements of Figures 7/8/9, the
// two-session variant of §5.2, and the heterogeneous-RTT variant of §5.3
// (gateway receivers G31..G39, Figure 10).
//
// Geometry: S --L1--> G1 --L2i--> G2i (3) --L3i--> G3i (9) --L4i--> Ri (27).
// Levels 1-3 have 5 ms one-way propagation delay, level 4 has 100 ms.
// Every node buffers 20 packets; RED gateways use min_th 5 / max_th 15.
// One background TCP connection runs from S to every receiver leaf.
// Congested links get capacity 100 pkt/s * (TCP flows through the link + 1),
// making the soft-bottleneck share min mu_i/(m_i+1) = 100 pkt/s; all other
// links run at 100 Mbit/s.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fault/adversary.hpp"
#include "fault/fault.hpp"
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

/// The five "most congested links" rows of Figures 7 and 9.
enum class TreeCase {
  kL1,      // case 1: the root link
  kL3All,   // case 2: all nine level-3 links
  kL4All,   // case 3: all 27 leaf links
  kL4Some,  // case 4: leaf links L41..L45 only
  kL21,     // case 5: one level-2 link
  // Figure 10 (heterogeneous RTTs; requires gateway_receivers = true):
  kL2AllHetero,  // case 1 of fig. 10: all three level-2 links
  kL3AllHetero,  // case 2 of fig. 10: all nine level-3 links
};

std::string tree_case_name(TreeCase c);

/// One structural failure window on the tree, named by subtree rather than
/// by raw link: level 2 selects G2<index> (index 1..3, nine leaves below),
/// level 3 selects G3<index> (index 1..9, three leaves below).  With
/// router_crash false the subtree's primary UPLINK is partitioned (both
/// directions) for [start, end); with it true the subtree's root router
/// crashes — fault::NodeFailure downs every interface it owns, including
/// any backup uplink, so failover cannot route around it.
struct SubtreeOutage {
  int level = 3;   // 2 or 3
  int index = 1;   // 1-based within the level
  sim::SimTime start = 0.0;
  sim::SimTime end = 0.0;
  bool router_crash = false;
};

struct TreeConfig {
  TreeCase bottleneck = TreeCase::kL4All;
  GatewayType gateway = GatewayType::kDropTail;
  double share_pps = 100.0;  // target soft-bottleneck per-flow share
  double fast_link_bps = 100e6;
  std::size_t buffer_pkts = 20;
  net::RedParams red{};
  sim::SimTime upper_delay = sim::milliseconds(5);   // levels 1-3
  sim::SimTime leaf_delay = sim::milliseconds(100);  // level 4
  /// Per-leaf RTT heterogeneity: leaf i's 100 ms hop is scaled by
  /// 1 + spread * (i-1)/26, so spread = 1 spans 100..200 ms across the 27
  /// leaves. 0 (default) keeps the paper's homogeneous tree. Pair with
  /// rla.rtt_exponent > 0 to exercise the generalized pthresh, which is a
  /// no-op when every srtt_i equals srtt_max.
  double leaf_delay_spread = 0.0;
  int multicast_sessions = 1;   // 2 reproduces §5.2
  bool gateway_receivers = false;  // adds G31..G39 as receivers (fig. 10)
  bool phase_randomization = true;
  sim::SimTime duration = 400.0;
  sim::SimTime warmup = 100.0;
  std::uint64_t seed = 1;
  /// When > 0, the runner samples every RLA session's cwnd at this period
  /// (after warm-up) into TreeResult::window_samples — the raw material of
  /// Figure 5's joint density plot.
  sim::SimTime window_sample_period = 0.0;
  rla::RlaParams rla{};
  tcp::TcpParams tcp{};

  // --- robustness scenario controls (src/fault/) ---------------------------
  /// Wire impairment applied to every level-4 forward (downstream) link —
  /// the access hops, where non-congestion loss lives in the wireless
  /// multicast setting. Empty (default) arms nothing and the run is
  /// byte-identical to an unfaulted one.
  fault::LinkImpairment leaf_fault{};
  /// Reverse-path (control-plane) impairment: applied to every level-4
  /// UPSTREAM link (leaf -> G3), the hops every leaf ACK and census signal
  /// crosses first. Loss here starves the sender of feedback without
  /// touching the data path. Empty (default) arms nothing.
  fault::LinkImpairment ack_fault{};
  /// Misbehaving receivers in session 0: (receiver index, model) pairs,
  /// armed as rla::AckTaps on the matching receivers. Empty (default) arms
  /// nothing and the run is byte-identical to an honest one.
  std::vector<std::pair<int, fault::AdversaryModel>> adversaries{};
  /// Receiver churn for session 0's leaf members: mean interval between
  /// leave events (exponential, dedicated "churn" stream); 0 disables. The
  /// departed leaf rejoins as a fresh late-join receiver after
  /// churn_rejoin_after seconds.
  double churn_mean_interval = 0.0;
  sim::SimTime churn_rejoin_after = 5.0;
  /// Crash fault: silence session 0's receiver at this index (it keeps
  /// receiving but never ACKs again) at time silent_at. -1 disables.
  /// Pair with rla.silent_drop_after so the sender sheds it.
  int silent_receiver = -1;
  sim::SimTime silent_at = 0.0;
  /// Structural failure windows (partitions / router crashes), resolved
  /// onto concrete links/routers and merged ADDITIVELY into the fault plan
  /// beside leaf_fault / ack_fault. Empty (default) arms nothing.
  std::vector<SubtreeOutage> partitions{};
  /// Provision backup-parent duplexes (drop-tail, fast-link speed; G2
  /// siblings back each other, and each G3 is backed by the next G2 over)
  /// and run a topo::FailoverManager that re-grafts partitioned subtrees
  /// onto them after failover_detect_delay. Off (default) creates no
  /// links, no timer — byte-identical to the historical tree.
  bool backup_paths = false;
  sim::SimTime failover_detect_delay = 0.5;
  sim::SimTime failover_poll = 0.05;
  /// Arm a sim::Watchdog (1 s period) with RLA invariant checks: window
  /// bounds, frontier ordering, census sanity, event-horizon progress.
  bool watchdog = false;
  /// Called on the freshly constructed Simulator before any component is
  /// built — the hook point where replay::Recorder/Verifier observers are
  /// installed (sim.set_observer) so every stream, draw and dispatch of the
  /// run is journaled or checked. Empty = run unobserved (the default; the
  /// run is byte-identical either way).
  std::function<void(sim::Simulator&)> instrument;

  // --- workload layer (src/workload/, ISSUE 6) -----------------------------
  /// Background-traffic mix. kFtp (the default) builds the paper's 27
  /// infinite FTP senders exactly as before — no new streams, timers or
  /// draws, byte-identical to the seed. kWeb replaces them with one
  /// WebFlowSource per leaf (think / heavy-tailed fetch / think); kOnOff
  /// keeps the FTPs and adds one OnOffSource of datagram cross-traffic per
  /// leaf. The schedule sub-config also selects the start-time layout for
  /// whatever senders run.
  workload::TrafficSpec traffic{};
  /// Sliding-window Jain-index telemetry over {RLA session 0 + background
  /// flows}. window == 0 (default) keeps the monitor inert.
  stats::FairnessMonitorConfig fairness{};
};

struct TreeResult {
  std::vector<FlowRow> rla;  // one per multicast session
  std::vector<FlowRow> tcps;  // one per background TCP (per receiver)
  /// Session 0's congestion-signal count per receiver (Figure 8).
  std::vector<std::uint64_t> rla_signals_per_receiver;
  /// Per-TCP congestion-signal counts (window cuts; Figure 8's TCP side).
  std::vector<std::uint64_t> tcp_signals;
  /// Whether each receiver sits behind a congested (soft-bottleneck) link.
  std::vector<bool> receiver_congested;
  std::vector<double> bottleneck_drop_rate;
  int num_troubled_final = 0;
  std::uint64_t rla_mcast_rexmits = 0;
  std::uint64_t rla_ucast_rexmits = 0;
  /// window_samples[k][s] = session s's cwnd at the k-th sample instant
  /// (only filled when TreeConfig::window_sample_period > 0).
  std::vector<std::vector<double>> window_samples;

  // --- robustness outcomes -------------------------------------------------
  std::uint64_t fault_wire_losses = 0;   // injected wire losses (all links)
  std::uint64_t fault_outage_drops = 0;  // discarded at a down interface
  std::uint64_t fault_duplicates = 0;    // extra copies injected
  std::uint64_t churn_leaves = 0;        // leave events executed
  std::uint64_t churn_joins = 0;         // rejoin events executed
  std::uint64_t rla_silent_drops = 0;    // receivers shed as silent/crashed
  int active_receivers_final = 0;        // session 0 members still active
  bool watchdog_ok = true;               // no invariant violations recorded
  std::string watchdog_report;           // "" when ok

  // --- structural failure & self-healing outcomes --------------------------
  std::uint64_t failover_events = 0;     // primary -> backup route flips
  std::uint64_t failover_reverts = 0;    // backup -> primary (primary healed)
  std::uint64_t packets_rerouted = 0;    // packets carried by backup uplinks
  std::uint64_t subtree_excisions = 0;   // sender whole-subtree excisions
  std::uint64_t subtree_readmissions = 0;
  std::uint64_t ramp_rexmits = 0;        // re-admission catch-up resends
  /// Session 0's excision -> heal -> re-admission episodes, verbatim.
  std::vector<rla::SubtreeEvent> subtree_events;
  /// First episode's headline numbers (-1 when no episode happened).
  double time_to_excise = -1.0;
  double time_to_readmit = -1.0;
  double survivor_goodput_pps = -1.0;

  // --- feedback-plane outcomes ---------------------------------------------
  std::uint64_t adv_acks_tampered = 0;   // ACKs rewritten by adversaries
  std::uint64_t adv_acks_withheld = 0;   // ACKs suppressed (mute phases)
  std::uint64_t adv_extra_acks = 0;      // storm copies injected
  std::uint64_t adv_fake_holes = 0;      // fabricated loss episodes
  std::uint64_t census_quarantines = 0;  // defense quarantine transitions
  std::uint64_t census_strikeouts = 0;   // members excluded by max_strikes
  /// Frontier-watchdog force-quarantines (session 0) — the liveness
  /// defense against ACK-pinning coalitions (FrontierWatchdogParams).
  std::uint64_t rla_watchdog_quarantines = 0;

  // --- workload + fairness telemetry ---------------------------------------
  /// One sample per fairness window (empty unless fairness.window > 0).
  std::vector<stats::FairnessSample> fairness_samples;
  double min_jain = -1.0;   // worst window with evidence; -1 = none
  double mean_jain = -1.0;
  /// kWeb: totals across all 27 WebFlowSources, plus the XOR of their
  /// schedule fingerprints (two runs drew the same flows iff equal).
  int web_flows_started = 0;
  int web_flows_completed = 0;
  std::uint64_t workload_fingerprint = 0;
  /// kOnOff: cross-traffic packet totals (sent vs delivered at the sinks).
  std::int64_t onoff_packets_sent = 0;
  std::int64_t onoff_packets_received = 0;

  const FlowRow& worst_tcp() const { return tcps[worst_index(tcps)]; }
  const FlowRow& best_tcp() const { return tcps[best_index(tcps)]; }
};

TreeResult run_tertiary_tree(const TreeConfig& cfg);

}  // namespace rlacast::topo
