#include "net/agent.hpp"

#include <algorithm>

#include "net/network.hpp"

namespace rlacast::net {

void SendPacer::send(const Packet& p) {
  if (max_overhead_ <= 0.0) {
    network_.inject(p);
    return;
  }
  // Uniform random processing time, serialized so packets of one sender
  // never reorder (the overhead models CPU time, not an independent path).
  const sim::SimTime depart_at = std::max(
      sim_.now() + rng_.uniform(0.0, max_overhead_), last_departure_);
  last_departure_ = depart_at;
  pending_.push(p, depart_at,
                [this](const Packet& q) { network_.inject(q); });
}

}  // namespace rlacast::net
