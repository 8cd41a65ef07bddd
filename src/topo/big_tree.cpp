#include "topo/big_tree.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <span>
#include <vector>

#include "rla/group_receiver.hpp"
#include "topo/scenario.hpp"

namespace rlacast::topo {

BigTreeResult run_big_tree(const BigTreeConfig& cfg) {
  assert(cfg.receivers > 0 && cfg.group_size > 0);
  Scenario sc(cfg.seed, cfg.instrument);
  sim::Simulator& sim = sc.sim;
  net::Network& net = sc.net;

  const int groups =
      (cfg.receivers + cfg.group_size - 1) / cfg.group_size;
  const int congested = std::min(cfg.congested_groups, groups);
  const int branches = std::max(
      1, static_cast<int>(std::lround(std::ceil(std::sqrt(groups)))));

  // --- nodes -----------------------------------------------------------------
  const net::NodeId s = net.add_node();
  const net::NodeId g1 = net.add_node();
  std::vector<net::NodeId> branch(static_cast<std::size_t>(branches));
  for (auto& n : branch) n = net.add_node();
  std::vector<net::NodeId> leaf(static_cast<std::size_t>(groups));
  for (auto& n : leaf) n = net.add_node();

  // --- links -----------------------------------------------------------------
  const std::int32_t pkt_bytes = cfg.rla.packet_bytes;
  const std::size_t ack_buf =
      cfg.ack_buffer_pkts > 0
          ? cfg.ack_buffer_pkts
          : static_cast<std::size_t>(cfg.receivers) + 64;
  net::LinkConfig fast;
  fast.bandwidth_bps = cfg.fast_link_bps;
  fast.buffer_pkts = ack_buf;
  fast.delay = cfg.upper_delay;

  net.connect(s, g1, fast);
  for (int b = 0; b < branches; ++b)
    net.connect(g1, branch[static_cast<std::size_t>(b)], fast);

  // Group g hangs off branch g % branches, which spreads the congested
  // prefix over distinct branches.  The congested forward direction gets
  // the paper's soft-bottleneck capacity mu = share_pps * (m + 1) with one
  // background TCP (m = 1); its reverse stands in for group_size collapsed
  // per-leaf ACK paths and stays fast.
  const double cap_bps = pps_to_bps(cfg.share_pps * 2.0, pkt_bytes);
  net::LinkConfig soft = gateway_link(cfg.gateway, cfg.buffer_pkts, cfg.red);
  soft.bandwidth_bps = cap_bps;
  soft.delay = cfg.leaf_delay;
  soft.reverse_bandwidth_bps = cfg.fast_link_bps;
  soft.reverse_buffer_pkts = ack_buf;  // the group's collapsed ACK paths
  for (int g = 0; g < groups; ++g) {
    const net::NodeId up = branch[static_cast<std::size_t>(g % branches)];
    const auto duplex =
        net.connect(up, leaf[static_cast<std::size_t>(g)],
                    g < congested ? soft : fast.with_delay(cfg.leaf_delay));
    if (g < congested) sc.bottlenecks.push_back(duplex.forward);
  }
  net.build_routes();
  const sim::SimTime overhead = sc.randomize_phase(
      cfg.gateway, /*enabled=*/true, cfg.rla, cfg.tcp, cap_bps);

  // --- the RLA session (session 0: group 1, sender port 1000) --------------
  const net::GroupId group_id = 1;
  const net::PortId sender_port = 1000;
  const net::PortId rcvr_port = 10;
  rla::RlaSender& sender = sc.add_session(s, {}, rcvr_port, cfg.rla);
  sender.reserve_receivers(static_cast<std::size_t>(cfg.receivers));
  std::vector<std::unique_ptr<rla::GroupReceiver>> group_receivers;
  group_receivers.reserve(static_cast<std::size_t>(groups));
  int remaining = cfg.receivers;
  for (int g = 0; g < groups; ++g) {
    const net::NodeId node = leaf[static_cast<std::size_t>(g)];
    net.join_group(group_id, s, node);
    const int members = std::min(cfg.group_size, remaining);
    remaining -= members;
    std::vector<int> ids;
    ids.reserve(static_cast<std::size_t>(members));
    for (int m = 0; m < members; ++m)
      ids.push_back(sender.add_receiver(node, rcvr_port));
    rla::GroupReceiverOptions gopts;
    gopts.max_ack_overhead = std::max(cfg.ack_spread, overhead);
    group_receivers.push_back(std::make_unique<rla::GroupReceiver>(
        net, node, rcvr_port, group_id, s, sender_port, std::move(ids),
        gopts));
  }
  assert(remaining == 0);

  // --- background TCP on every congested group link, ports from 100 ----------
  sc.add_tcps(s, std::span(leaf).first(static_cast<std::size_t>(congested)),
              /*first_port=*/100, cfg.tcp);
  // The historical uniform(0, 1) TCP starts, then the session's own draw.
  sim::Rng starts = sc.start(workload::StartScheduleConfig{});
  sender.start_at(cfg.rla_start + starts.uniform(0.0, 0.5));

  BigTreeResult res;
  res.nodes = static_cast<int>(net.node_count());
  res.groups = groups;
  sc.run(cfg.warmup, cfg.duration, [] {}, cfg.sample_period,
         cfg.sample_period, [&] {
           res.materialized_hiwater = std::max(
               res.materialized_hiwater, sender.materialized_scoreboards());
           res.sender_state_bytes_hiwater =
               std::max(res.sender_state_bytes_hiwater, sender.state_bytes());
         });

  // --- results ---------------------------------------------------------------
  Rows rows = sc.rows(cfg.duration);
  res.rla = rows.rla.front();
  res.tcps = std::move(rows.tcps);
  double drops = 0.0;
  for (const double d : rows.drop_rate) drops += d;
  res.bottleneck_drop_rate =
      rows.drop_rate.empty()
          ? 0.0
          : drops / static_cast<double>(rows.drop_rate.size());
  std::uint64_t all_drops = 0;
  for (const auto& l : net.links()) all_drops += l->queue().stats().dropped;
  for (net::Link* l : sc.bottlenecks) all_drops -= l->queue().stats().dropped;
  res.offpath_drops = all_drops;
  res.acks = sender.acks_received();
  res.events = sim.scheduler().dispatched();
  res.mcast_rexmits = sender.multicast_rexmits();
  res.ucast_rexmits = sender.unicast_rexmits();
  res.troubled_final = sender.num_trouble_rcvr();
  res.active_final = sender.active_receivers();
  res.watchdog_quarantines = sender.watchdog_quarantines();
  res.sender_state_bytes = sender.state_bytes();
  res.baseline_state_bytes = sender.baseline_state_bytes();
  res.materialized_final = sender.materialized_scoreboards();
  res.materialized_hiwater =
      std::max(res.materialized_hiwater, res.materialized_final);
  res.sender_state_bytes_hiwater =
      std::max(res.sender_state_bytes_hiwater, res.sender_state_bytes);
  return res;
}

}  // namespace rlacast::topo
