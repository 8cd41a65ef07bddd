// The run-and-measure core under the three topology runners.
//
// Every scenario of §5 (Figures 6-10) is RLA session(s) and competing TCPs
// on a tree of drop-tail or RED gateways, measured after a warm-up. Each
// runner builds its geometry (nodes, links, bottleneck hops) on a Scenario,
// which owns the rest: the §3.1 phase-jitter rule, the sessions, the TCP
// pairs, fairness probes, start draws, warm-up, run and per-flow rows.
//
// Replay contract: the instrument hook sees the Simulator before the Network
// exists; construction order, ports, flow ids and stream labels below are
// part of every golden hash and journal.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "rla/rla_receiver.hpp"
#include "rla/rla_sender.hpp"
#include "sim/simulator.hpp"
#include "stats/fairness_monitor.hpp"
#include "tcp/tcp_receiver.hpp"
#include "tcp/tcp_sender.hpp"
#include "topo/flow_rows.hpp"
#include "topo/gateway.hpp"
#include "workload/workload.hpp"

namespace rlacast::topo {

/// Link bandwidth (bit/s) that serves `pps` packets of `pkt_bytes` bytes.
double pps_to_bps(double pps, std::int32_t pkt_bytes);

/// A gateway hop's queue: drop-tail or RED, `buffer_pkts` deep; bandwidth
/// and delay keep LinkConfig's defaults.
net::LinkConfig gateway_link(GatewayType gateway, std::size_t buffer_pkts,
                             const net::RedParams& red);

/// make_row of every RLA session and TCP sender, and each bottleneck's drop
/// rate, in construction order (Scenario::rows).
struct Rows {
  std::vector<FlowRow> rla;
  std::vector<FlowRow> tcps;
  std::vector<double> drop_rate;
};

class Scenario {
 public:
  Scenario(std::uint64_t seed,
           const std::function<void(sim::Simulator&)>& instrument);

  /// §3.1 phase-effect elimination: on drop-tail gateways (if `enabled`)
  /// every flow adds Uniform(0, overhead) per-packet processing time,
  /// overhead = one packet's serialization at `slowest_bps`. Competing flows
  /// must share one bound, so RLA and TCP params may not pre-set theirs
  /// unequally. Sets and returns `overhead`.
  sim::SimTime randomize_phase(GatewayType gateway, bool enabled,
                               const rla::RlaParams& rla,
                               const tcp::TcpParams& tcp, double slowest_bps);

  /// RLA session k = rla.size(): a sender at `src` on port 1000 + k, flow
  /// id 1000 + k, group 1 + k; each of `members` joins and gets a receiver
  /// on `rcvr_port`. Call after randomize_phase.
  rla::RlaSender& add_session(net::NodeId src,
                              std::span<const net::NodeId> members,
                              net::PortId rcvr_port,
                              const rla::RlaParams& params);

  /// A receiver of session k at `node` (already in the group) on `port`,
  /// appended to rla_receivers; `late` resumes at the first packet seen.
  rla::RlaReceiver& add_member(std::size_t k, net::NodeId src,
                               net::NodeId node, net::PortId port,
                               bool late = false);

  /// One background TCP from `src` to each of `dsts`: pair k (receiver,
  /// then sender) uses port first_port + k and flow id k + 1.
  void add_tcps(net::NodeId src, std::span<const net::NodeId> dsts,
                net::PortId first_port, const tcp::TcpParams& params);

  /// Probes session 0 as `rla_name` (never application-limited), then TCP k
  /// as "tcp-<k>", if `monitor` is enabled.
  void add_fairness_probes(stats::FairnessMonitor& monitor,
                           const std::string& rla_name);

  /// Starts every TCP sender, then each agent of `more` in turn, at the
  /// next `schedule` draw from the "start-jitter" stream, which it returns.
  template <typename... Agents>
  sim::Rng start(const workload::StartScheduleConfig& schedule,
                 Agents&... more) {
    sim::Rng rng = sim.rng_stream("start-jitter");
    int index = 0;
    auto start_all = [&](auto& agents) {
      for (auto& a : agents)
        a->start_at(workload::start_time(schedule, index++, rng));
    };
    start_all(tcps);
    (start_all(more), ...);
    return rng;
  }

  /// At `warmup` opens every session's and TCP's measurement, then calls
  /// on_warmup(). With period > 0, calls on_sample() at `first` and every
  /// `period` after while that stays within `duration`. Runs to `duration`.
  template <typename OnWarmup, typename OnSample>
  void run(sim::SimTime warmup, sim::SimTime duration, OnWarmup&& on_warmup,
           sim::SimTime first, sim::SimTime period, OnSample&& on_sample) {
    sim.at(warmup, [this, &on_warmup] {
      for (auto& m : rla) m->measurement().begin_measurement(sim.now());
      for (auto& t : tcps) t->measurement().begin_measurement(sim.now());
      on_warmup();
    });
    std::optional<sim::Timer> sampler;
    if (period > 0.0) {
      sampler.emplace(sim, [&] {
        on_sample();
        if (sim.now() + period <= duration) sampler->schedule(period);
      });
      sampler->schedule_at(first);
    }
    sim.run_until(duration);
  }

  /// The rows at the end of a run of length `t_end`.
  Rows rows(sim::SimTime t_end) const;

  sim::Simulator sim;
  net::Network net;
  sim::SimTime overhead = 0.0;  // set by randomize_phase
  std::vector<std::unique_ptr<rla::RlaSender>> rla;
  std::vector<std::unique_ptr<rla::RlaReceiver>> rla_receivers;
  std::vector<std::unique_ptr<tcp::TcpSender>> tcps;
  std::vector<std::unique_ptr<tcp::TcpReceiver>> tcp_receivers;
  std::vector<net::Link*> bottlenecks;  // forward soft-bottleneck hops
};

}  // namespace rlacast::topo
