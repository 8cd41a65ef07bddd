#include "probes.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "alloc_counter.hpp"
#include "cc/scoreboard.hpp"
#include "cc/troubled_census.hpp"
#include "net/drop_tail.hpp"
#include "net/network.hpp"
#include "net/red.hpp"
#include "rla/rla_sender.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "tcp/reassembly.hpp"
#include "tcp/tcp_receiver.hpp"
#include "tcp/tcp_sender.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace rlacast;

/// Deterministic 64-bit LCG; uniform01() in [0, 1).
struct Lcg {
  std::uint64_t x = 0x2545F4914F6CDD1DULL;
  std::uint64_t next() {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x >> 11;
  }
  double uniform01() { return static_cast<double>(next()) * 0x1.0p-53; }
};

/// Cost of one probe loop: host ns and allocations per operation.
struct Cost {
  double ns = 0.0;
  double allocs = 0.0;
  double dispatches = 0.0;  // scheduler events per operation
};

/// Runs `body` (which returns its operation count) three times and keeps
/// the run with the median time.
template <class Body>
Cost median_of_3(Body body) {
  std::vector<Cost> runs;
  for (int i = 0; i < 3; ++i) {
    Cost c;
    const AllocCount a0 = alloc_now();
    const double t0 = now_s();
    const std::pair<double, double> ops_disp = body();
    const double t1 = now_s();
    const AllocCount a1 = alloc_now();
    c.ns = (t1 - t0) * 1e9 / ops_disp.first;
    c.allocs = static_cast<double>(a1.count - a0.count) / ops_disp.first;
    c.dispatches = ops_disp.second / ops_disp.first;
    runs.push_back(c);
  }
  std::sort(runs.begin(), runs.end(),
            [](const Cost& a, const Cost& b) { return a.ns < b.ns; });
  return runs[1];
}

/// Hold model at a fixed heap depth: one schedule_at + one dispatch per op.
double push_pop_ns(std::size_t depth) {
  sim::Scheduler s;
  std::uint64_t sink = 0;
  Lcg lcg;
  for (std::size_t i = 0; i < depth; ++i)
    s.schedule_at(lcg.uniform01(), [&sink] { ++sink; });
  return median_of_3([&] {
           constexpr int kOps = 200000;
           for (int i = 0; i < kOps; ++i) {
             s.schedule_at(s.now() + lcg.uniform01(), [&sink] { ++sink; });
             s.run_one();
           }
           return std::pair<double, double>(kOps, kOps);
         })
      .ns;
}

/// Engine cost per event in the probe networks' pattern: bursts of 32
/// events at increasing times on an otherwise empty heap, then drained.
/// Subtracted from network and sender probes to leave their own work.
double burst_event_ns() {
  sim::Scheduler s;
  std::uint64_t sink = 0;
  return median_of_3([&] {
           constexpr int kBursts = 10000;
           for (int b = 0; b < kBursts; ++b) {
             for (int k = 0; k < 32; ++k)
               s.schedule_at(s.now() + 1e-6 * (k + 1), [&sink] { ++sink; });
             s.run_all();
           }
           return std::pair<double, double>(32.0 * kBursts, 32.0 * kBursts);
         })
      .ns;
}

class CountingSink final : public net::Agent {
 public:
  void on_receive(const net::Packet&) override { ++received; }
  std::uint64_t received = 0;
};

net::LinkConfig probe_link() {
  net::LinkConfig cfg;
  cfg.bandwidth_bps = 1e9;
  cfg.delay = sim::microseconds(50);
  cfg.buffer_pkts = 64;
  return cfg;
}

/// Packets over one drop-tail hop in bursts of 32 (never overflowing).
Cost link_hop() {
  sim::Simulator sim;
  net::Network net{sim};
  const net::NodeId a = net.add_node();
  const net::NodeId b = net.add_node();
  net.connect(a, b, probe_link());
  net.build_routes();
  CountingSink sink;
  net.attach(b, 1, &sink);
  net::Packet p;
  p.src = a;
  p.dst = b;
  p.dst_port = 1;
  p.size_bytes = net::kDataPacketBytes;
  return median_of_3([&] {
    const std::uint64_t recv0 = sink.received;
    const std::uint64_t disp0 = sim.scheduler().dispatched();
    for (int i = 0; i < 100000 / 32; ++i) {
      for (int k = 0; k < 32; ++k) net.inject(p);
      sim.run_all();
    }
    return std::pair<double, double>(
        static_cast<double>(sink.received - recv0),
        static_cast<double>(sim.scheduler().dispatched() - disp0));
  });
}

/// 27-way multicast fan-out below one hub: per delivered copy.
double mcast_fanout_ns() {
  constexpr int kLeaves = 27;
  sim::Simulator sim;
  net::Network net{sim};
  const net::NodeId s = net.add_node();
  const net::NodeId hub = net.add_node();
  net.connect(s, hub, probe_link());
  std::vector<net::NodeId> leaves;
  for (int i = 0; i < kLeaves; ++i) {
    leaves.push_back(net.add_node());
    net.connect(hub, leaves.back(), probe_link());
  }
  net.build_routes();
  const net::GroupId group = 1;
  CountingSink sink;
  for (net::NodeId l : leaves) {
    net.join_group(group, s, l);
    net.subscribe(group, l, &sink);
  }
  net::Packet p;
  p.src = s;
  p.group = group;
  p.size_bytes = net::kDataPacketBytes;
  return median_of_3([&] {
           const std::uint64_t recv0 = sink.received;
           for (int i = 0; i < 4000 / 16; ++i) {
             for (int k = 0; k < 16; ++k) net.inject(p);
             sim.run_all();
           }
           return std::pair<double, double>(
               static_cast<double>(sink.received - recv0), 0.0);
         })
      .ns;
}

net::Packet data_packet() {
  net::Packet p;
  p.size_bytes = net::kDataPacketBytes;
  return p;
}

double droptail_op_ns() {
  net::DropTailQueue q(64);
  const net::Packet p = data_packet();
  for (int i = 0; i < 10; ++i) q.enqueue(p, 0.0);
  return median_of_3([&] {
           constexpr int kOps = 1000000;
           for (int i = 0; i < kOps; ++i) {
             q.enqueue(p, 1.0);
             (void)q.dequeue(1.0);
           }
           return std::pair<double, double>(kOps, 0.0);
         })
      .ns;
}

/// RED held between its thresholds, where early drops draw randomness.
double red_op_ns() {
  net::RedParams params;
  params.w_q = 0.02;  // reach the operating point quickly
  net::RedQueue q(params, sim::Rng(7));
  const net::Packet p = data_packet();
  double t = 0.0;
  for (int i = 0; i < 2000; ++i) {
    q.enqueue(p, t += 1e-4);
    if (q.length() > 10) (void)q.dequeue(t);
  }
  return median_of_3([&] {
           constexpr int kOps = 1000000;
           for (int i = 0; i < kOps; ++i) {
             q.enqueue(p, t += 1e-4);
             if (q.length() > 10) (void)q.dequeue(t);
           }
           return std::pair<double, double>(kOps, 0.0);
         })
      .ns;
}

/// ReassemblyBuffer::add over an arrival order where each packet is lost
/// with probability `loss` and its retransmission arrives 8 packets later.
Cost reassembly(double loss) {
  constexpr int kPackets = 400000;
  std::vector<net::SeqNum> order;
  order.reserve(kPackets);
  std::vector<std::pair<int, net::SeqNum>> late;  // (arrival slot, seq)
  Lcg lcg;
  for (net::SeqNum s = 0; static_cast<int>(order.size()) < kPackets; ++s) {
    if (lcg.uniform01() < loss)
      late.emplace_back(static_cast<int>(order.size()) + 8, s);
    else
      order.push_back(s);
    while (!late.empty() && late.front().first <= static_cast<int>(order.size())) {
      order.push_back(late.front().second);
      late.erase(late.begin());
    }
  }
  order.resize(kPackets);
  return median_of_3([&] {
    tcp::ReassemblyBuffer buf;
    for (net::SeqNum s : order) buf.add(s);
    return std::pair<double, double>(kPackets, 0.0);
  });
}

/// One finite-flow connection: a TcpReceiver + TcpSender pair on fresh
/// ports, kept alive like workload::WebFlowSource keeps its pairs.
Cost conn_setup() {
  sim::Simulator sim;
  net::Network net{sim};
  const net::NodeId a = net.add_node();
  const net::NodeId b = net.add_node();
  net.connect(a, b, probe_link());
  net.build_routes();
  std::vector<std::unique_ptr<tcp::TcpReceiver>> receivers;
  std::vector<std::unique_ptr<tcp::TcpSender>> senders;
  int next = 0;
  return median_of_3([&] {
    constexpr int kPairs = 2000;
    for (int i = 0; i < kPairs; ++i, ++next) {
      const auto port = static_cast<net::PortId>(1000 + next);
      receivers.push_back(std::make_unique<tcp::TcpReceiver>(net, b, port));
      senders.push_back(std::make_unique<tcp::TcpSender>(
          net, a, port, b, port, static_cast<net::FlowId>(1000 + next)));
    }
    return std::pair<double, double>(kPairs, 0.0);
  });
}

/// One congestion signal's census work, as RlaSender does it: on_signal +
/// recompute + srtt_max (exact census, the workloads' default).
double census_ns(int n) {
  cc::TroubledCensus census(20.0, 0.25);
  census.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    census.add_receiver();
    census.note_srtt(i, 0.1 + 0.0001 * (i % 512));
  }
  Lcg lcg;
  double t = 1.0;
  const int iters = std::max(200, 4000000 / n);
  return median_of_3([&] {
           for (int it = 0; it < iters; ++it) {
             const int member = static_cast<int>(lcg.next() % static_cast<std::uint64_t>(n));
             t += 0.001;
             census.on_signal(member, t);
             census.recompute(t);
             (void)census.srtt_max();
           }
           return std::pair<double, double>(iters, 0.0);
         })
      .ns;
}

/// A SACK sender's scoreboard over a 20-packet window: per ACK, one send
/// and one advance; a loss (probability `loss`) brings three duplicate ACKs
/// carrying SACK blocks and loss detection, then the retransmission's ACK
/// advances past the SACKed packets. The window stays at 20.
double scoreboard_ns(double loss) {
  cc::Scoreboard sb;
  Lcg lcg;
  net::SeqNum next = 0;
  for (; next < 20; ++next) sb.on_send(next);
  return median_of_3([&] {
           constexpr int kAcks = 300000;
           int ops = 0;
           while (ops < kAcks) {
             const net::SeqNum una = sb.una();
             if (lcg.uniform01() < loss) {
               for (int d = 1; d <= 3; ++d, ++ops) {
                 sb.on_send(next++);
                 const net::SackBlock blk{una + 1, una + 1 + d};
                 sb.apply_sack(&blk, 1);
                 sb.detect_losses(3);
               }
               sb.on_retransmit(una);
               sb.on_send(next++);
               sb.advance(una + 4);
             } else {
               sb.on_send(next++);
               sb.advance(una + 1);
             }
             ++ops;
           }
           return std::pair<double, double>(ops, 0.0);
         })
      .ns;
}

/// Synthetic in-order ACKs into RlaSender::on_receive: every member
/// acknowledges each packet. The sender multicasts into a group with no
/// members, so the cost is the sender's ACK path plus the sends it clocks
/// out through its pacer.
Cost rla_ack(int n) {
  sim::Simulator sim;
  net::Network net{sim};
  const net::NodeId s = net.add_node();
  rla::RlaParams params;
  params.max_cwnd = 32.0;
  rla::RlaSender sender(net, s, 1, /*group=*/1, /*flow=*/1, params);
  sender.reserve_receivers(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    sender.add_receiver(s, static_cast<net::PortId>(1000 + i));
  sender.start_at(0.0);
  sim.run_until(0.001);
  net::Packet ack;
  ack.type = net::PacketType::kAck;
  ack.src = s;
  ack.dst = s;
  ack.dst_port = 1;
  ack.size_bytes = net::kAckPacketBytes;
  net::SeqNum seq = 0;
  const int acks_per_run = std::max(n, 60000 / n * n);
  return median_of_3([&] {
    const std::uint64_t disp0 = sim.scheduler().dispatched();
    int acks = 0;
    while (acks < acks_per_run) {
      while (seq >= sender.next_seq()) sim.run_until(sim.now() + 0.001);
      ack.seq = seq;
      ack.ack = seq + 1;
      ack.ts_echo = std::max(0.0, sim.now() - 0.1);
      for (int i = 0; i < n; ++i, ++acks) {
        ack.receiver_id = i;
        ack.src_port = static_cast<net::PortId>(1000 + i);
        sender.on_receive(ack);
      }
      ++seq;
      sim.run_until(sim.now() + 0.0005);
    }
    return std::pair<double, double>(
        acks, static_cast<double>(sim.scheduler().dispatched() - disp0));
  });
}

}  // namespace

ProbeResults run_probes(const ProbeInputs& in) {
  ProbeResults r;
  r.push_pop_ns = push_pop_ns(std::max<std::size_t>(in.heap_depth, 1));
  r.burst_event_ns = burst_event_ns();

  const Cost hop = link_hop();
  r.link_hop_ns = hop.ns;
  r.link_hop_self_ns = hop.ns - hop.dispatches * r.burst_event_ns;
  r.droptail_op_ns = droptail_op_ns();
  r.red_op_ns = red_op_ns();
  r.mcast_fanout_ns = mcast_fanout_ns();

  // The loss rate is floored so the lossy probe exercises out-of-order
  // arrivals even when the run dropped next to nothing.
  const double loss = std::clamp(in.loss_rate, 0.005, 0.5);
  const Cost ro = reassembly(0.0);
  r.reassembly_ns_inorder = ro.ns;
  r.reassembly_allocs_inorder = ro.allocs;
  const Cost rl = reassembly(loss);
  r.reassembly_ns_lossy = rl.ns;
  r.reassembly_allocs_lossy = rl.allocs;
  const Cost cs = conn_setup();
  r.conn_setup_ns = cs.ns;
  r.conn_setup_allocs = cs.allocs;

  r.census_ns_n27 = census_ns(27);
  r.census_ns_n1000 = census_ns(1000);
  r.census_ns_n10000 = census_ns(10000);
  r.census_ns_at_n = in.receivers == 27     ? r.census_ns_n27
                     : in.receivers == 1000 ? r.census_ns_n1000
                                            : census_ns(in.receivers);
  r.scoreboard_ns = scoreboard_ns(loss);

  const Cost a27 = rla_ack(27);
  const Cost a1k = rla_ack(1000);
  r.rla_ack_ns_n27 = a27.ns;
  r.rla_ack_ns_n1000 = a1k.ns;
  r.rla_ack_ns_n10000 = rla_ack(10000).ns;
  const Cost at_n = in.receivers == 27     ? a27
                    : in.receivers == 1000 ? a1k
                                           : rla_ack(in.receivers);
  r.rla_ack_self_ns_at_n = at_n.ns - at_n.dispatches * r.burst_event_ns;
  return r;
}

}  // namespace perfbench
