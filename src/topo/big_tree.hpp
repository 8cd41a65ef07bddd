// Large-topology builder: the scale companion to run_tertiary_tree.
//
// The paper validates Theorems I/II on 27 receivers; the ROADMAP's north
// star is 10^4..10^6.  Simulating a million individual leaves would spend
// all memory on the NETWORK model and mask the quantity the scale bench
// measures — sender bytes per receiver — so this builder collapses each
// group of `group_size` co-located receivers into one leaf node carrying a
// single rla::GroupReceiver (one reassembly buffer, one downstream loss
// pattern) while the sender still runs a full census entry and one ACK
// stream per MEMBER.  Geometry:
//
//     S --- G1 --- branch_j --- group leaf (g members each)
//
// with ~sqrt(#groups) branches.  The first `congested_groups` group links
// are the paper's soft bottlenecks: capacity share_pps * (1 TCP + 1)
// packets/s, RED or drop-tail per `gateway`, one competing background TCP
// each; every other hop is fast.  A group link's REVERSE direction stands
// in for g independent per-leaf ACK paths, so it is provisioned at
// fast_link_bps (see net::LinkConfig::reverse_bandwidth_bps) — collapsing
// the subtree must not invent an ACK bottleneck that the uncollapsed tree
// does not have.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/red.hpp"
#include "rla/rla_params.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_sender.hpp"
#include "topo/flow_rows.hpp"
#include "topo/gateway.hpp"

namespace rlacast::topo {

struct BigTreeConfig {
  /// Total session membership n (the `n` of the Theorem I/II bounds).
  int receivers = 1000;
  /// Members collapsed per group leaf; the last group takes the remainder.
  int group_size = 25;
  /// Leading group links that carry the soft bottleneck + background TCP.
  int congested_groups = 4;

  GatewayType gateway = GatewayType::kRed;
  double share_pps = 100.0;       // paper capacity rule: mu / (m + 1)
  double fast_link_bps = 10e9;    // uncongested hops and collapsed ACK paths
  /// Buffer of the congested bottleneck hops (paper-scale, small).
  std::size_t buffer_pkts = 20;
  /// Buffer of the fast interior hops and the collapsed ACK reverse paths;
  /// 0 = auto-size to the ACK fan-in (receivers + slack).  Leaving these at
  /// the bottleneck's 20 packets silently drops most of the synchronized
  /// n-receiver ACK answer once n reaches ~10^4 (feedback implosion), and
  /// the bench then measures interior queue sizing instead of the gateway
  /// discipline under test.
  std::size_t ack_buffer_pkts = 0;
  net::RedParams red{};
  sim::SimTime upper_delay = sim::milliseconds(5);
  sim::SimTime leaf_delay = sim::milliseconds(100);

  /// Per-ACK processing jitter at the group receivers, Uniform(0, max).
  /// Replaces the per-host jitter the collapse removed: without it every
  /// member of every group answers one multicast delivery at the same
  /// instant and the shared reverse queues see a synchronized burst.
  sim::SimTime ack_spread = 0.02;

  double duration = 20.0;
  double warmup = 5.0;
  /// RLA session start (plus jitter). Defaults alongside the background
  /// TCPs (which start inside the first second) so every session
  /// slow-starts into the same empty queues — the paper's setups start
  /// flows together.  Starting the RLA session AFTER the TCPs entrench is
  /// a known trap at scale: on a RED queue held at a persistent drop
  /// probability by full-window TCPs, every small restart burst tail-loses
  /// (no packets after the hole -> no dupacks -> full RTO), and the
  /// session never escapes the timeout/collapse cycle.
  sim::SimTime rla_start = 0.0;
  std::uint64_t seed = 1;
  /// Sampling period of the materialized-scoreboard / state-bytes
  /// high-water probes; 0 disables sampling (final values only).
  sim::SimTime sample_period = 0.5;

  rla::RlaParams rla{};
  tcp::TcpParams tcp{};

  /// Replay hook (bench/replay_support.hpp), applied right after the
  /// simulator is constructed.
  std::function<void(sim::Simulator&)> instrument;
};

struct BigTreeResult {
  FlowRow rla;
  std::vector<FlowRow> tcps;  // one per congested group
  const FlowRow& worst_tcp() const { return tcps[worst_index(tcps)]; }
  const FlowRow& best_tcp() const { return tcps[best_index(tcps)]; }

  int nodes = 0;
  int groups = 0;
  double bottleneck_drop_rate = 0.0;  // mean over the congested forward hops
  /// Packets dropped anywhere EXCEPT the congested forward hops — feedback
  /// implosion shows up here (ACK fan-in overflowing interior buffers), and
  /// a large value means the bench is measuring queue sizing, not fairness.
  std::uint64_t offpath_drops = 0;

  std::uint64_t acks = 0;             // ACKs processed by the sender
  std::uint64_t events = 0;           // scheduler events dispatched
  std::uint64_t mcast_rexmits = 0;
  std::uint64_t ucast_rexmits = 0;
  int troubled_final = 0;
  int active_final = 0;
  std::uint64_t watchdog_quarantines = 0;

  /// Sender memory for the per-receiver machinery (rla::ReceiverTable +
  /// census + send info), sampled at end of run and at its high water.
  std::size_t sender_state_bytes = 0;
  std::size_t sender_state_bytes_hiwater = 0;
  /// The historical one-scoreboard-per-receiver cost of the same state —
  /// the denominator of the scale bench's memory-ratio headline.
  std::size_t baseline_state_bytes = 0;
  std::size_t materialized_final = 0;
  std::size_t materialized_hiwater = 0;
};

BigTreeResult run_big_tree(const BigTreeConfig& cfg);

}  // namespace rlacast::topo
