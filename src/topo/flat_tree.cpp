#include "topo/flat_tree.hpp"

#include <algorithm>
#include <memory>

#include "topo/scenario.hpp"

namespace rlacast::topo {

FlatTreeResult run_flat_tree(const FlatTreeConfig& cfg) {
  const std::size_t n_branches = cfg.branches.size();
  Scenario sc(cfg.seed, cfg.instrument);
  net::Network& net = sc.net;
  const net::LinkConfig base =
      gateway_link(cfg.gateway, cfg.buffer_pkts, cfg.red)
          .with_delay(cfg.hop_delay);

  // --- nodes -----------------------------------------------------------------
  const net::NodeId s = net.add_node();
  const net::NodeId g = net.add_node();
  std::vector<net::NodeId> b(n_branches), r(n_branches);
  for (std::size_t i = 0; i < n_branches; ++i) {
    b[i] = net.add_node();
    r[i] = net.add_node();
  }

  // --- links -----------------------------------------------------------------
  const std::int32_t pkt_bytes = cfg.rla.packet_bytes;
  const bool shared = cfg.shared_bottleneck_pps > 0.0;
  const double shared_bps = pps_to_bps(cfg.shared_bottleneck_pps, pkt_bytes);

  net.connect(s, g,
              base.with_bandwidth(shared ? shared_bps : cfg.fast_link_bps));
  double slowest_bps = shared ? shared_bps : cfg.fast_link_bps;
  if (shared) sc.bottlenecks.push_back(net.link_between(s, g));
  for (std::size_t i = 0; i < n_branches; ++i) {
    const double mu_bps =
        shared ? cfg.fast_link_bps : pps_to_bps(cfg.branches[i].mu_pps, pkt_bytes);
    net.connect(g, b[i], base.with_bandwidth(mu_bps));
    net.connect(b[i], r[i],
                base.with_bandwidth(cfg.fast_link_bps)
                    .with_delay(cfg.hop_delay + cfg.branches[i].extra_delay));
    if (!shared) {
      sc.bottlenecks.push_back(net.link_between(g, b[i]));
      slowest_bps = std::min(slowest_bps, mu_bps);
    }
  }
  net.build_routes();
  sc.randomize_phase(
      cfg.gateway, cfg.phase_randomization, cfg.rla, cfg.tcp, slowest_bps);

  if (cfg.with_multicast) sc.add_session(s, r, /*rcvr_port=*/2, cfg.rla);

  // --- competing TCP connections: m_i per branch, ports from 101 -----------
  std::vector<net::NodeId> tcp_dsts;
  std::vector<int> tcp_branch;
  for (std::size_t i = 0; i < n_branches; ++i)
    for (int k = 0; k < cfg.branches[i].n_tcp; ++k) {
      tcp_dsts.push_back(r[i]);
      tcp_branch.push_back(static_cast<int>(i));
    }
  sc.add_tcps(s, tcp_dsts, /*first_port=*/101, cfg.tcp);

  stats::FairnessMonitor fmon(sc.sim, cfg.fairness);
  sc.add_fairness_probes(fmon, "rla");
  sc.start(cfg.schedule, sc.rla);
  sc.run(cfg.warmup, cfg.duration, [] {}, 0.0, 0.0, [] {});

  // --- results ---------------------------------------------------------------
  FlatTreeResult res;
  Rows rows = sc.rows(cfg.duration);
  if (!sc.rla.empty()) {
    const rla::RlaSender& sender = *sc.rla.front();
    res.rla = rows.rla.front();
    for (std::size_t i = 0; i < n_branches; ++i)
      res.rla_signals_per_receiver.push_back(
          sender.signals_from(static_cast<int>(i)));
    res.rla_mcast_rexmits = static_cast<double>(sender.multicast_rexmits());
    res.rla_ucast_rexmits = static_cast<double>(sender.unicast_rexmits());
    res.num_troubled_final = sender.num_trouble_rcvr();
  }
  res.tcps = std::move(rows.tcps);
  res.tcp_branch = std::move(tcp_branch);
  res.fairness_samples = fmon.samples();
  res.min_jain = fmon.min_jain();
  res.mean_jain = fmon.mean_jain();
  res.bottleneck_drop_rate = std::move(rows.drop_rate);
  return res;
}

}  // namespace rlacast::topo
