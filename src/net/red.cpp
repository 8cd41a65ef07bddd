#include "net/red.hpp"

#include <cmath>

namespace rlacast::net {

void RedQueue::age_idle(sim::SimTime now) {
  if (!idle_ || params_.mean_pkt_time <= 0.0) return;
  const double m = (now - idle_since_) / params_.mean_pkt_time;
  if (m > 0.0) avg_ *= std::pow(1.0 - params_.w_q, m);
  idle_ = false;
}

bool RedQueue::enqueue(const Packet& p, sim::SimTime now) {
  age_idle(now);
  idle_ = false;

  avg_ = (1.0 - params_.w_q) * avg_ + params_.w_q * measured_length();

  const bool physically_full =
      params_.slot_bytes > 0
          ? bytes_ + p.size_bytes > static_cast<std::int64_t>(
                                        params_.capacity) * params_.slot_bytes
          : q_.size() >= params_.capacity;
  bool drop = false;
  bool mark = false;
  if (physically_full) {
    drop = true;
    ++overflow_drops_;
  } else if (avg_ >= params_.max_th) {
    drop = true;
    ++forced_drops_;
    count_ = 0;
  } else if (avg_ >= params_.min_th) {
    if (count_ < 0) count_ = 0;
    ++count_;
    const double pb = params_.max_p * (avg_ - params_.min_th) /
                      (params_.max_th - params_.min_th);
    double pa;
    if (params_.wait) {
      const double cpb = static_cast<double>(count_) * pb;
      if (cpb < 1.0)
        pa = 0.0;
      else if (cpb < 2.0)
        pa = pb / (2.0 - cpb);
      else
        pa = 1.0;
    } else {
      const double cpb = static_cast<double>(count_) * pb;
      pa = cpb < 1.0 ? pb / (1.0 - cpb) : 1.0;
    }
    if (rng_.chance(pa)) {
      // An early decision notifies the flow; with ECN and an ECN-capable
      // packet the notification is a CE mark, not a loss.
      if (params_.ecn && p.ect) {
        mark = true;
        ++ecn_marks_;
      } else {
        drop = true;
        ++early_drops_;
      }
      count_ = 0;
    }
  } else {
    count_ = -1;
  }

  if (drop) {
    note_drop(p, now);
    return false;
  }
  Packet stored = p;
  if (mark) stored.ce = true;
  q_.push_back(stored);
  bytes_ += stored.size_bytes;
  note_enqueue();
  return true;
}

std::optional<Packet> RedQueue::dequeue(sim::SimTime now) {
  if (q_.empty()) return std::nullopt;
  Packet p = q_.front();
  q_.pop_front();
  bytes_ -= p.size_bytes;
  note_dequeue();
  if (q_.empty()) {
    idle_ = true;
    idle_since_ = now;
  }
  return p;
}

}  // namespace rlacast::net
