#include "topo/tertiary_tree.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

#include "fault/fault.hpp"
#include "rla/rla_receiver.hpp"
#include "sim/watchdog.hpp"
#include "topo/failover.hpp"
#include "topo/scenario.hpp"

namespace rlacast::topo {
namespace {

struct LinkRef {
  net::NodeId from;
  net::NodeId to;
  int level;   // 1..4
  int index;   // 1-based within its level (L21 = level 2, index 1)
};

/// Receiver-churn driver for session 0's leaf members. One object on the
/// runner's stack; its timer callbacks capture only `this` (plus a leaf
/// index for rejoins), so churn events stay on the scheduler's inline
/// callback path.
struct ChurnDriver {
  Scenario& sc;
  std::vector<rla::RlaReceiver*>& by_idx;  // census idx -> receiver
  const std::array<net::NodeId, 27>& leaf;
  net::NodeId src;
  double mean_interval;
  sim::SimTime rejoin_after;
  sim::Rng rng;
  std::array<int, 27> member{};  // current census idx per leaf, -1 if away
  net::PortId next_port = 20000;
  std::uint64_t leaves = 0;
  std::uint64_t joins = 0;
  sim::Timer timer;

  ChurnDriver(Scenario& sc_, std::vector<rla::RlaReceiver*>& idx,
              const std::array<net::NodeId, 27>& lf, net::NodeId src_,
              double mean, sim::SimTime rejoin)
      : sc(sc_),
        by_idx(idx),
        leaf(lf),
        src(src_),
        mean_interval(mean),
        rejoin_after(rejoin),
        rng(sc_.sim.rng_stream("churn")),
        timer(sc_.sim, [this] { on_fire(); }) {
    for (int i = 0; i < 27; ++i) member[static_cast<std::size_t>(i)] = i;
    timer.schedule(rng.exponential(mean_interval));
  }

  void on_fire() {
    const int li = static_cast<int>(rng.uniform_int(0, 26));
    const int idx = member[static_cast<std::size_t>(li)];
    if (idx >= 0) {
      // Leave: the sender stops waiting for this member; the old receiver
      // object is silenced so in-flight data stops generating stale ACKs.
      sc.rla.front()->remove_receiver(idx);
      by_idx[static_cast<std::size_t>(idx)]->set_silenced(true);
      member[static_cast<std::size_t>(li)] = -1;
      ++leaves;
      sc.sim.after(rejoin_after, [this, li] { rejoin(li); });
    }
    timer.schedule(rng.exponential(mean_interval));
  }

  void rejoin(int li) {
    // Fresh late joiner on a fresh port (the departed incarnation keeps its
    // old port attached; reusing it would alias two agents).
    rla::RlaReceiver& r = sc.add_member(
        0, src, leaf[static_cast<std::size_t>(li)], next_port++, /*late=*/true);
    by_idx.push_back(&r);
    member[static_cast<std::size_t>(li)] = r.id();
    ++joins;
  }
};

}  // namespace

std::string tree_case_name(TreeCase c) {
  switch (c) {
    case TreeCase::kL1:
      return "L1";
    case TreeCase::kL3All:
      return "L3i, i=1..9";
    case TreeCase::kL4All:
      return "L4i, i=1..27";
    case TreeCase::kL4Some:
      return "L4i, i=1..5";
    case TreeCase::kL21:
      return "L21";
    case TreeCase::kL2AllHetero:
      return "L2i, i=1..3 (hetero)";
    case TreeCase::kL3AllHetero:
      return "L3i, i=1..9 (hetero)";
  }
  return "?";
}

TreeResult run_tertiary_tree(const TreeConfig& cfg) {
  Scenario sc(cfg.seed, cfg.instrument);
  sim::Simulator& sim = sc.sim;
  net::Network& net = sc.net;

  // --- nodes -----------------------------------------------------------------
  const net::NodeId s = net.add_node();
  const net::NodeId g1 = net.add_node();
  std::array<net::NodeId, 3> g2{};
  std::array<net::NodeId, 9> g3{};
  std::array<net::NodeId, 27> leaf{};
  for (auto& n : g2) n = net.add_node();
  for (auto& n : g3) n = net.add_node();
  for (auto& n : leaf) n = net.add_node();

  // --- receiver set ----------------------------------------------------------
  // Leaves R1..R27 always; gateway receivers G31..G39 in the heterogeneous
  // variant (their RTT excludes the 100 ms leaf hop).
  std::vector<net::NodeId> receivers(leaf.begin(), leaf.end());
  if (cfg.gateway_receivers)
    receivers.insert(receivers.end(), g3.begin(), g3.end());
  const std::size_t n_rcvrs = receivers.size();

  // --- link table with congestion marking -------------------------------------
  std::vector<LinkRef> link_refs;
  link_refs.push_back({s, g1, 1, 1});
  for (int i = 0; i < 3; ++i) link_refs.push_back({g1, g2[size_t(i)], 2, i + 1});
  for (int i = 0; i < 9; ++i)
    link_refs.push_back({g2[size_t(i / 3)], g3[size_t(i)], 3, i + 1});
  for (int i = 0; i < 27; ++i)
    link_refs.push_back({g3[size_t(i / 3)], leaf[size_t(i)], 4, i + 1});

  auto is_congested = [&](const LinkRef& l) {
    switch (cfg.bottleneck) {
      case TreeCase::kL1:
        return l.level == 1;
      case TreeCase::kL3All:
      case TreeCase::kL3AllHetero:
        return l.level == 3;
      case TreeCase::kL4All:
        return l.level == 4;
      case TreeCase::kL4Some:
        return l.level == 4 && l.index <= 5;
      case TreeCase::kL21:
        return l.level == 2 && l.index == 1;
      case TreeCase::kL2AllHetero:
        return l.level == 2;
    }
    return false;
  };

  // Number of background TCP connections traversing a link: one per LEAF
  // downstream. Gateway receivers (§5.3) join the multicast session only —
  // Figure 10's small worst/best TCP spread shows the background TCPs all
  // share the leaf RTT, so no TCP terminates at G31..G39.
  auto tcp_flows_through = [&](const LinkRef& l) -> int {
    return l.level == 1 ? 27 : l.level == 2 ? 9 : l.level == 3 ? 3 : 1;
  };

  const net::LinkConfig base =
      gateway_link(cfg.gateway, cfg.buffer_pkts, cfg.red);
  double slowest_bps = cfg.fast_link_bps;
  for (const auto& lr : link_refs) {
    sim::SimTime hop_delay =
        lr.level == 4 ? cfg.leaf_delay : cfg.upper_delay;
    if (lr.level == 4 && cfg.leaf_delay_spread > 0.0)
      hop_delay *= 1.0 + cfg.leaf_delay_spread *
                             static_cast<double>(lr.index - 1) / 26.0;
    net::LinkConfig c = base.with_delay(hop_delay);
    if (is_congested(lr)) {
      // The paper's capacity rule: soft-bottleneck share = mu / (m + 1).
      // §5.2 adds its second multicast session WITHOUT re-scaling links
      // ("simulated the above scenarios with two overlapping sessions"),
      // so the +1 stays +1 regardless of session count.
      const double cap_pps =
          cfg.share_pps * static_cast<double>(tcp_flows_through(lr) + 1);
      c.bandwidth_bps = pps_to_bps(cap_pps, cfg.rla.packet_bytes);
      slowest_bps = std::min(slowest_bps, c.bandwidth_bps);
    } else {
      c.bandwidth_bps = cfg.fast_link_bps;
    }
    net.connect(lr.from, lr.to, c);
    if (is_congested(lr))
      sc.bottlenecks.push_back(net.link_between(lr.from, lr.to));
  }

  // Backup-parent provisioning (cfg.backup_paths): fast drop-tail duplexes
  // created AFTER every primary link (stream numbering of the primaries is
  // unchanged; drop-tail queues allocate no "red-queue-N" streams) and
  // routing-disabled, so the initial BFS below ignores them entirely.  G2
  // siblings back each other; each G3 is backed by the next G2 over — its
  // uplink survives a partition of either the G3 uplink or the parent G2's
  // own uplink/router.
  std::vector<BackupRoute> backup_routes;
  if (cfg.backup_paths) {
    net::LinkConfig bc = base.with_delay(cfg.upper_delay);
    bc.queue = net::QueueKind::kDropTail;
    bc.bandwidth_bps = cfg.fast_link_bps;
    auto add_backup = [&](net::NodeId child, net::NodeId parent,
                          net::NodeId backup) {
      const auto d = net.connect(backup, child, bc);
      d.forward->set_routing_enabled(false);
      d.reverse->set_routing_enabled(false);
      backup_routes.push_back({child, parent, backup});
    };
    for (std::size_t j = 0; j < 3; ++j) add_backup(g2[j], g1, g2[(j + 1) % 3]);
    for (std::size_t i = 0; i < 9; ++i)
      add_backup(g3[i], g2[i / 3], g2[(i / 3 + 1) % 3]);
  }
  net.build_routes();
  const sim::SimTime overhead = sc.randomize_phase(
      cfg.gateway, cfg.phase_randomization, cfg.rla, cfg.tcp, slowest_bps);

  // --- multicast sessions ------------------------------------------------------
  for (int sess = 0; sess < cfg.multicast_sessions; ++sess) {
    rla::RlaSender& sender =
        sc.add_session(s, receivers, /*rcvr_port=*/10 + sess, cfg.rla);
    // Structural-degradation grouping: leaf i hangs off G3 gateway i/3,
    // gateway receiver i (>= 27) IS G3 gateway i-27.  No-op (and no
    // state) unless cfg.rla.degrade.enabled.
    for (int i = 0; i < static_cast<int>(n_rcvrs); ++i)
      sender.set_subtree(i, i < 27 ? i / 3 : i - 27);
  }

  // --- robustness layer: faults, churn, crash, watchdog -----------------------
  // Session 0's census-index -> receiver map (positions track add_receiver
  // order, which churn rejoins preserve).
  std::vector<rla::RlaReceiver*> sess0_rcvr_by_idx;
  for (std::size_t i = 0; i < n_rcvrs; ++i)
    sess0_rcvr_by_idx.push_back(sc.rla_receivers[i].get());

  fault::FaultPlan fault_plan;
  // Forward entries first, reverse entries after: a leaf_fault-only config
  // builds the exact stream set (and creation order) it always did.
  if (cfg.leaf_fault.any())
    for (const auto& lr : link_refs)
      if (lr.level == 4) fault_plan.impair(lr.from, lr.to, cfg.leaf_fault);
  if (cfg.ack_fault.any())
    for (const auto& lr : link_refs)
      if (lr.level == 4) fault_plan.impair(lr.to, lr.from, cfg.ack_fault);
  // Structural windows resolve level+index onto the subtree's root router
  // (crash) or primary uplink (partition); merged additively at arm().
  for (const auto& so : cfg.partitions) {
    assert((so.level == 2 || so.level == 3) && "SubtreeOutage.level is 2 or 3");
    assert(so.index >= 1 && so.index <= (so.level == 3 ? 9 : 3));
    const auto i = static_cast<std::size_t>(so.index - 1);
    const net::NodeId root = so.level == 3 ? g3[i] : g2[i];
    if (so.router_crash)
      fault_plan.fail_node(root, so.start, so.end);
    else
      fault_plan.partition(so.level == 3 ? g2[i / 3] : g1, root, so.start,
                           so.end);
  }
  if (!fault_plan.empty()) fault_plan.arm(net);

  std::unique_ptr<FailoverManager> failover;
  if (cfg.backup_paths) {
    failover = std::make_unique<FailoverManager>(
        net, FailoverConfig{cfg.failover_detect_delay, cfg.failover_poll});
    for (const auto& br : backup_routes) failover->add_route(br);
    // Re-grafting must cover every group: a flip rewrites routes globally.
    for (int sess = 0; sess < cfg.multicast_sessions; ++sess)
      failover->watch_group(static_cast<net::GroupId>(1 + sess), s, receivers);
    failover->start();
  }

  fault::AdversaryPlan adversary_plan;
  if (!cfg.adversaries.empty()) {
    for (const auto& [idx, model] : cfg.adversaries)
      adversary_plan.corrupt(idx, model);
    adversary_plan.arm(sess0_rcvr_by_idx);
  }

  std::unique_ptr<ChurnDriver> churn;
  if (cfg.churn_mean_interval > 0.0)
    churn = std::make_unique<ChurnDriver>(sc, sess0_rcvr_by_idx, leaf, s,
                                          cfg.churn_mean_interval,
                                          cfg.churn_rejoin_after);

  if (cfg.silent_receiver >= 0 &&
      static_cast<std::size_t>(cfg.silent_receiver) < n_rcvrs) {
    sim.at(cfg.silent_at, [&sess0_rcvr_by_idx, &cfg] {
      sess0_rcvr_by_idx[static_cast<std::size_t>(cfg.silent_receiver)]
          ->set_silenced(true);
    });
  }

  std::unique_ptr<sim::Watchdog> watchdog;
  if (cfg.watchdog) {
    watchdog = std::make_unique<sim::Watchdog>(sim, 1.0);
    watchdog->add_check("rla-invariants", [&rla = sc.rla]() -> std::string {
      for (const auto& m : rla) {
        if (!(m->cwnd() >= 1.0) || m->cwnd() > m->params().max_cwnd)
          return "cwnd out of bounds: " + std::to_string(m->cwnd());
        if (m->max_reach_all() > m->next_seq())
          return "reach-all frontier beyond send frontier";
        if (m->num_trouble_rcvr() < 0 ||
            m->num_trouble_rcvr() > m->active_receivers())
          return "troubled census exceeds active membership";
      }
      return "";
    });
    watchdog->start();
  }

  // --- background traffic: one source from S to every LEAF --------------------
  // kFtp (default) and kOnOff build the paper's infinite FTP connections
  // (ports from 100); kWeb replaces them with WebFlowSources; kOnOff
  // additionally lays one OnOffSource of datagram cross-traffic over every
  // leaf.
  std::vector<std::unique_ptr<workload::WebFlowSource>> web_sources;
  std::vector<std::unique_ptr<workload::OnOffSource>> onoff_sources;
  std::vector<std::unique_ptr<workload::PacketSink>> onoff_sinks;
  if (cfg.traffic.kind == workload::TrafficKind::kWeb) {
    for (std::size_t i = 0; i < leaf.size(); ++i) {
      workload::WebConfig wc = cfg.traffic.web;
      wc.tcp = cfg.tcp;  // one source of TCP truth per run: TreeConfig::tcp
      wc.tcp.max_send_overhead = overhead;
      const auto block = static_cast<net::PortId>(30000 + 1000 * i);
      web_sources.push_back(std::make_unique<workload::WebFlowSource>(
          net, s, leaf[i], block, block,
          static_cast<net::FlowId>(2000 + 1000 * i),
          "workload-web-" + std::to_string(i), wc));
    }
  } else {
    sc.add_tcps(s, leaf, /*first_port=*/100, cfg.tcp);
  }
  if (cfg.traffic.kind == workload::TrafficKind::kOnOff) {
    for (std::size_t i = 0; i < leaf.size(); ++i) {
      const auto port = static_cast<net::PortId>(40000 + i);
      onoff_sinks.push_back(
          std::make_unique<workload::PacketSink>(net, leaf[i], port));
      onoff_sources.push_back(std::make_unique<workload::OnOffSource>(
          net, s, port, leaf[i], port, static_cast<net::FlowId>(5000 + i),
          "workload-onoff-" + std::to_string(i), cfg.traffic.onoff));
    }
  }

  // --- fairness telemetry (inert unless cfg.fairness.window > 0) --------------
  stats::FairnessMonitor fmon(sim, cfg.fairness);
  sc.add_fairness_probes(fmon, "rla0");
  if (fmon.enabled()) {
    for (std::size_t i = 0; i < web_sources.size(); ++i) {
      workload::WebFlowSource* w = web_sources[i].get();
      fmon.add_probe({"web-" + std::to_string(i),
                      [w] { return static_cast<double>(w->delivered_total()); },
                      [w] { return w->poll_app_limited(); }});
    }
  }

  sc.start(cfg.traffic.schedule, web_sources, onoff_sources, sc.rla);

  TreeResult res;
  std::vector<std::int64_t> web_delivered_at_warmup(web_sources.size(), 0);
  sc.run(
      cfg.warmup, cfg.duration,
      [&] {
        for (std::size_t i = 0; i < web_sources.size(); ++i)
          web_delivered_at_warmup[i] = web_sources[i]->delivered_total();
      },
      cfg.warmup, cfg.window_sample_period,
      [&] {
        std::vector<double> row;
        row.reserve(sc.rla.size());
        for (auto& m : sc.rla) row.push_back(m->cwnd());
        res.window_samples.push_back(std::move(row));
      });

  // --- results -------------------------------------------------------------
  Rows rows = sc.rows(cfg.duration);
  res.rla = std::move(rows.rla);
  res.tcps = std::move(rows.tcps);
  for (const FlowRow& row : res.tcps)
    res.tcp_signals.push_back(row.cong_signals);
  // kWeb: synthesize one aggregate row per leaf "user" so worst_tcp()/
  // best_tcp() and the figure plumbing keep working. Throughput is the
  // post-warmup delivered rate; the counters sum over every fetch.
  const double measured_span = cfg.duration - cfg.warmup;
  for (std::size_t i = 0; i < web_sources.size(); ++i) {
    const workload::WebFlowSource& w = *web_sources[i];
    FlowRow row;
    row.throughput_pps =
        measured_span > 0.0
            ? static_cast<double>(w.delivered_total() -
                                  web_delivered_at_warmup[i]) /
                  measured_span
            : 0.0;
    double rtt_sum = 0.0;
    int rtt_n = 0;
    for (const auto& snd : w.senders()) {
      const stats::FlowMeasurement& m = snd->measurement();
      row.cong_signals += m.congestion_signals();
      row.window_cuts += m.window_cuts();
      row.forced_cuts += m.forced_cuts();
      row.timeouts += m.timeouts();
      if (m.avg_rtt() > 0.0) {
        rtt_sum += m.avg_rtt();
        ++rtt_n;
      }
    }
    row.avg_rtt = rtt_n > 0 ? rtt_sum / rtt_n : 0.0;
    res.tcps.push_back(row);
    res.tcp_signals.push_back(row.cong_signals);
    res.web_flows_started += w.flows_started();
    res.web_flows_completed += w.flows_completed();
    res.workload_fingerprint ^= w.schedule_fingerprint();
  }
  for (const auto& o : onoff_sources) res.onoff_packets_sent += o->packets_sent();
  for (const auto& sk : onoff_sinks)
    res.onoff_packets_received += sk->packets_received();
  res.fairness_samples = fmon.samples();
  res.min_jain = fmon.min_jain();
  res.mean_jain = fmon.mean_jain();
  auto& first = *sc.rla.front();
  for (std::size_t i = 0; i < n_rcvrs; ++i)
    res.rla_signals_per_receiver.push_back(
        first.signals_from(static_cast<int>(i)));
  res.num_troubled_final = first.num_trouble_rcvr();
  res.rla_mcast_rexmits = first.multicast_rexmits();
  res.rla_ucast_rexmits = first.unicast_rexmits();

  const fault::FaultTotals ftot = fault_plan.totals();
  res.fault_wire_losses = ftot.wire_losses;
  res.fault_outage_drops = ftot.outage_drops;
  res.fault_duplicates = ftot.duplicates;
  if (churn) {
    res.churn_leaves = churn->leaves;
    res.churn_joins = churn->joins;
  }
  res.rla_silent_drops = first.silent_drops();
  res.active_receivers_final = first.active_receivers();
  res.subtree_excisions = first.subtree_excisions();
  res.subtree_readmissions = first.subtree_readmissions();
  res.ramp_rexmits = first.ramp_rexmits();
  res.subtree_events = first.subtree_events();
  if (!res.subtree_events.empty()) {
    const rla::SubtreeEvent& ev = res.subtree_events.front();
    res.time_to_excise = ev.time_to_excise;
    res.time_to_readmit = ev.time_to_readmit;
    res.survivor_goodput_pps = ev.survivor_goodput_pps;
  }
  if (failover) {
    res.failover_events = failover->failover_events();
    res.failover_reverts = failover->failover_reverts();
    res.packets_rerouted = failover->packets_rerouted();
  }
  const fault::AdversaryTotals atot = adversary_plan.totals();
  res.adv_acks_tampered = atot.acks_tampered;
  res.adv_acks_withheld = atot.acks_withheld;
  res.adv_extra_acks = atot.extra_acks;
  res.adv_fake_holes = atot.fake_holes;
  res.census_quarantines = first.census().quarantines();
  res.census_strikeouts = first.census().strikeouts();
  res.rla_watchdog_quarantines = first.watchdog_quarantines();
  if (watchdog) {
    res.watchdog_ok = watchdog->ok();
    res.watchdog_report = watchdog->report();
  }

  // Mark which receivers sit behind a congested hop (Figure 8 grouping).
  res.receiver_congested.assign(n_rcvrs, false);
  for (std::size_t i = 0; i < n_rcvrs; ++i) {
    // Walk the route from S to the receiver and check each hop.
    net::NodeId at = s;
    while (at != receivers[i]) {
      net::Link* hop = net.node(at).route(receivers[i]);
      assert(hop != nullptr);
      if (std::ranges::find(sc.bottlenecks, hop) != sc.bottlenecks.end())
        res.receiver_congested[i] = true;
      at = hop->to();
    }
  }
  res.bottleneck_drop_rate = std::move(rows.drop_rate);
  return res;
}

}  // namespace rlacast::topo
