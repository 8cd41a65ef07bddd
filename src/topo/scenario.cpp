#include "topo/scenario.hpp"

#include <cassert>

namespace rlacast::topo {
namespace {

/// Runs the replay hook on `sim` while the Network member that is built from
/// it does not exist yet, so observers see every stream the network makes.
sim::Simulator& instrumented(
    sim::Simulator& sim,
    const std::function<void(sim::Simulator&)>& instrument) {
  if (instrument) instrument(sim);
  return sim;
}

}  // namespace

double pps_to_bps(double pps, std::int32_t pkt_bytes) {
  return pps * static_cast<double>(pkt_bytes) * 8.0;
}

net::LinkConfig gateway_link(GatewayType gateway, std::size_t buffer_pkts,
                             const net::RedParams& red) {
  net::LinkConfig c;
  c.queue = gateway == GatewayType::kRed ? net::QueueKind::kRed
                                         : net::QueueKind::kDropTail;
  c.buffer_pkts = buffer_pkts;
  c.red = red;
  return c;
}

Scenario::Scenario(std::uint64_t seed,
                   const std::function<void(sim::Simulator&)>& instrument)
    : sim(seed), net(instrumented(sim, instrument)) {}

sim::SimTime Scenario::randomize_phase(
    GatewayType gateway, bool enabled, const rla::RlaParams& rla,
    [[maybe_unused]] const tcp::TcpParams& tcp, double slowest_bps) {
  assert(rla.max_send_overhead == tcp.max_send_overhead &&
         "RLA and TCP flows must share the same send-jitter bound");
  overhead = (gateway == GatewayType::kDropTail && enabled)
                 ? static_cast<double>(rla.packet_bytes) * 8.0 / slowest_bps
                 : 0.0;
  return overhead;
}

rla::RlaSender& Scenario::add_session(net::NodeId src,
                                     std::span<const net::NodeId> members,
                                     net::PortId rcvr_port,
                                     const rla::RlaParams& params) {
  const auto k = static_cast<int>(rla.size());
  rla::RlaParams rp = params;
  rp.max_send_overhead = overhead;
  rla::RlaSender& sender = *rla.emplace_back(std::make_unique<rla::RlaSender>(
      net, src, /*port=*/1000 + k, /*group=*/1 + k, /*flow=*/1000 + k, rp));
  for (const net::NodeId node : members) {
    net.join_group(1 + k, src, node);
    add_member(static_cast<std::size_t>(k), src, node, rcvr_port);
  }
  return sender;
}

rla::RlaReceiver& Scenario::add_member(std::size_t k, net::NodeId src,
                                       net::NodeId node, net::PortId port,
                                       bool late) {
  const int idx = rla[k]->add_receiver(node, port);
  rla::RlaReceiverOptions opts;
  opts.max_ack_overhead = overhead;
  opts.resume_at_first_packet = late;
  const auto ki = static_cast<int>(k);
  return *rla_receivers.emplace_back(std::make_unique<rla::RlaReceiver>(
      net, node, port, /*group=*/1 + ki, src, /*sender_port=*/1000 + ki, idx,
      opts));
}

void Scenario::add_tcps(net::NodeId src, std::span<const net::NodeId> dsts,
                        net::PortId first_port, const tcp::TcpParams& params) {
  tcp::TcpParams tp = params;
  tp.max_send_overhead = overhead;
  for (std::size_t k = 0; k < dsts.size(); ++k) {
    const auto port = static_cast<net::PortId>(first_port + k);
    tcp_receivers.push_back(std::make_unique<tcp::TcpReceiver>(
        net, dsts[k], port, net::kAckPacketBytes, overhead));
    tcps.push_back(std::make_unique<tcp::TcpSender>(
        net, src, port, dsts[k], port, static_cast<net::FlowId>(k + 1), tp));
  }
}

void Scenario::add_fairness_probes(stats::FairnessMonitor& monitor,
                                   const std::string& rla_name) {
  if (!monitor.enabled()) return;
  if (!rla.empty()) {
    rla::RlaSender* m = rla.front().get();
    monitor.add_probe(
        {rla_name,
         [m] { return static_cast<double>(m->measurement().total_acked()); },
         [] { return false; }});
  }
  for (std::size_t i = 0; i < tcps.size(); ++i) {
    tcp::TcpSender* t = tcps[i].get();
    monitor.add_probe(
        {"tcp-" + std::to_string(i),
         [t] { return static_cast<double>(t->measurement().total_acked()); },
         [t] { return t->app_limited(); }});
  }
}

Rows Scenario::rows(sim::SimTime t_end) const {
  Rows r;
  for (const auto& m : rla)
    r.rla.push_back(make_row(m->measurement(), t_end));
  for (const auto& t : tcps)
    r.tcps.push_back(make_row(t->measurement(), t_end));
  for (const net::Link* l : bottlenecks)
    r.drop_rate.push_back(l->queue().stats().drop_rate());
  return r;
}

}  // namespace rlacast::topo
