#include "net/drop_tail.hpp"

namespace rlacast::net {

bool DropTailQueue::enqueue(const Packet& p, sim::SimTime now) {
  const bool full =
      byte_mode()
          ? bytes_ + p.size_bytes >
                static_cast<std::int64_t>(capacity_) * slot_bytes_
          : q_.size() >= capacity_;
  if (full) {
    note_drop(p, now);
    return false;
  }
  q_.push_back(p);
  bytes_ += p.size_bytes;
  note_enqueue();
  return true;
}

std::optional<Packet> DropTailQueue::dequeue(sim::SimTime /*now*/) {
  if (q_.empty()) return std::nullopt;
  Packet p = q_.front();
  q_.pop_front();
  bytes_ -= p.size_bytes;
  note_dequeue();
  return p;
}

}  // namespace rlacast::net
