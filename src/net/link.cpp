#include "net/link.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "net/network.hpp"

namespace rlacast::net {

Link::Link(sim::Simulator& sim, Network& network, NodeId from, NodeId to,
           double bandwidth_bps, sim::SimTime delay,
           std::unique_ptr<Queue> queue)
    : sim_(sim),
      network_(network),
      from_(from),
      to_(to),
      bandwidth_bps_(bandwidth_bps),
      delay_(delay),
      queue_(std::move(queue)),
      pipe_(sim.scheduler()) {
  if (replay::RunObserver* obs = sim_.observer()) {
    const std::string id =
        "link-" + std::to_string(from_) + "-" + std::to_string(to_);
    obs->attach(id, this);
    obs->attach(id + "/queue", queue_.get());
  }
}

Link::~Link() {
  if (replay::RunObserver* obs = sim_.observer()) {
    obs->detach(this);
    obs->detach(queue_.get());
  }
}

replay::Snapshot Link::snapshot_state() const {
  replay::Snapshot s;
  s.put("busy", busy_);
  s.put("pipe", pipe_.size());
  s.put("inflight_hiwater", inflight_hiwater_);
  s.put("delivered", delivered_);
  s.put("bytes_delivered", bytes_delivered_);
  s.put("drops", drops_);
  s.put("fault_drops", fault_drops_);
  s.put("fault_duplicates", fault_duplicates_);
  s.put("last_arrival", last_arrival_);
  return s;
}

void Link::transmit(const Packet& p) {
  if (fault_ != nullptr && fault_->down(sim_.now())) {
    // Interface outage: the packet is discarded at the link entrance, never
    // entering the queue (distinct from a congestion drop).
    ++fault_drops_;
    ++sim_.scheduler().counters_mut().fault_drops;
    return;
  }
  if (!queue_->enqueue(p, sim_.now())) {
    ++drops_;  // queue overflow: the hop discards the packet
    return;
  }
  pump();
}

void Link::pump() {
  if (busy_) return;
  auto next = queue_->dequeue(sim_.now());
  if (!next) return;
  busy_ = true;
  tx_pkt_ = std::move(*next);
  inflight_hiwater_ = std::max(inflight_hiwater_, in_flight());
  auto done = [this] { on_serialized(); };
  static_assert(sim::SmallCallback::fits_inline<decltype(done)>(),
                "link pipeline events must use the inline callback path");
  sim_.after(tx_time(tx_pkt_.size_bytes), std::move(done));
}

void Link::on_serialized() {
  // Serialization end: free the transmitter, launch the propagation leg,
  // and serve the next queued packet.  A fault hook may corrupt (lose),
  // duplicate, or jitter the serialized packet on the wire; queue dynamics
  // are untouched.
  busy_ = false;
  LinkFaultHook::WireVerdict v;
  if (fault_ != nullptr) v = fault_->wire(tx_pkt_, sim_.now());
  if (v.lost) {
    ++fault_drops_;
    ++sim_.scheduler().counters_mut().fault_drops;
    pump();
    return;
  }
  ++delivered_;
  bytes_delivered_ += static_cast<std::uint64_t>(tx_pkt_.size_bytes);
  // The pipe pops FIFO, so an arrival must never overtake an earlier one —
  // a jittered one, possibly from a hook since removed: clamp every arrival
  // to be monotone in scheduling order.
  const sim::SimTime jitter = v.extra_delay > 0.0 ? v.extra_delay : 0.0;
  const sim::SimTime arrive_at =
      std::max(sim_.now() + delay_ + jitter, last_arrival_);
  last_arrival_ = arrive_at;
  const auto deliver = [this](const Packet& p) { network_.deliver(to_, p); };
  if (v.duplicated) {
    ++fault_duplicates_;
    ++sim_.scheduler().counters_mut().fault_duplicates;
    pipe_.push(tx_pkt_, arrive_at, deliver);  // the extra copy goes first
  }
  pipe_.push(tx_pkt_, arrive_at, deliver);
  inflight_hiwater_ = std::max(inflight_hiwater_, in_flight());
  pump();
}

}  // namespace rlacast::net
