// Agent: an endpoint protocol entity attached to a node.
//
// Agents receive packets addressed to (their node, their port) or multicast
// to a group they subscribed to.  They send by handing packets to the
// Network, optionally through a SendPacer that models per-packet sender
// processing overhead — the mechanism §3.1 of the paper uses to break
// drop-tail phase effects ("a uniformly distributed random processing time
// up to the bottleneck server service time").
#pragma once

#include "net/packet.hpp"
#include "net/packet_ring.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace rlacast::net {

class Network;

class Agent {
 public:
  virtual ~Agent() = default;

  /// Called by the node when a packet is delivered to this agent.
  virtual void on_receive(const Packet& p) = 0;
};

/// Serializing send path with optional uniform random per-packet overhead.
/// With max_overhead == 0 packets are injected immediately (in order).
/// With max_overhead > 0 each packet waits Uniform(0, max_overhead) of
/// "processing time"; departures remain in FIFO order.
///
/// Pending packets wait in a net::PacketPipe owned by the pacer: departure
/// times are monotone by construction, so the pipe keeps one armed event —
/// for the next departure — however deep the burst (no Packet captured in
/// a closure, no allocation on the send path).
class SendPacer {
 public:
  SendPacer(sim::Simulator& sim, Network& network, sim::Rng rng,
            sim::SimTime max_overhead = 0.0)
      : sim_(sim),
        network_(network),
        rng_(std::move(rng)),
        max_overhead_(max_overhead),
        pending_(sim.scheduler()) {}

  void set_max_overhead(sim::SimTime v) { max_overhead_ = v; }
  sim::SimTime max_overhead() const { return max_overhead_; }

  /// Sends (or schedules the send of) a packet.
  void send(const Packet& p);

 private:
  sim::Simulator& sim_;
  Network& network_;
  sim::Rng rng_;
  sim::SimTime max_overhead_;
  sim::SimTime last_departure_ = 0.0;
  PacketPipe pending_;
};

}  // namespace rlacast::net
