// PacketRing and PacketPipe: the packet pipelines of the network substrate.
//
// PacketRing is a growable FIFO ring of packets owned by the component whose
// pipeline they are traversing (a queue's backlog; through PacketPipe, a
// Link's propagation pipe and a SendPacer's pending queue).  The point is
// allocation behaviour: the ring grows geometrically to the pipeline's
// natural depth (bandwidth-delay product of the hop, burst depth of the
// pacer) and then recycles storage forever — steady-state traffic performs
// zero heap allocations and copies no Packet into closures.
//
// PacketPipe adds timing: every packet leaves at its own due time, and the
// pipe is FIFO (due times are monotone), so only its head can fire next.
// The pipe therefore keeps exactly one armed scheduler event — for its head
// — however many packets it holds.  Each packet reserves its (time,
// sequence) dispatch key when it enters (Scheduler::reserve_seq), and the
// head is armed under that reserved key, so global dispatch order is the
// one a per-packet event would give, while the scheduler heap holds one key
// per pipe instead of one per packet in flight.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "sim/scheduler.hpp"

namespace rlacast::net {

template <typename T>
class FifoRing {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  std::size_t capacity() const { return buf_.size(); }

  T& front() {
    assert(count_ > 0);
    return buf_[head_];
  }

  const T& back() const {
    assert(count_ > 0);
    return buf_[(head_ + count_ - 1) & (buf_.size() - 1)];
  }

  void push_back(T v) {
    if (count_ == buf_.size()) grow();
    buf_[(head_ + count_) & (buf_.size() - 1)] = std::move(v);
    ++count_;
  }

  /// Removes the oldest element (read it through front() first).
  void pop_front() {
    assert(count_ > 0);
    head_ = (head_ + 1) & (buf_.size() - 1);
    --count_;
  }

 private:
  void grow() {
    const std::size_t cap = buf_.empty() ? 4 : buf_.size() * 2;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < count_; ++i)
      next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    buf_ = std::move(next);
    head_ = 0;
  }

  // Power-of-two capacity so the index wrap is a mask.
  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

using PacketRing = FifoRing<Packet>;

class PacketPipe {
 public:
  explicit PacketPipe(sim::Scheduler& sched) : sched_(sched) {}

  // The armed event points at the pipe.
  PacketPipe(const PacketPipe&) = delete;
  PacketPipe& operator=(const PacketPipe&) = delete;

  std::size_t size() const { return ring_.size(); }

  /// Appends `p`, due to leave at `at`, and reserves its dispatch key now —
  /// the moment a per-packet event would have been scheduled.  Due times
  /// must be monotone: `at` may not precede the current tail's.  On leaving,
  /// the packet is handed to `exit(const Packet&)`.  The exit rides in the
  /// armed event (one pointer-sized capture, no storage in the pipe), so
  /// every push into one pipe must pass an equivalent exit.
  template <typename Exit>
  void push(const Packet& p, sim::SimTime at, Exit exit) {
    assert((ring_.empty() || at >= ring_.back().at) &&
           "pipe due times must be monotone");
    ring_.push_back(Entry{p, at, sched_.reserve_seq()});
    if (ring_.size() == 1) arm(exit);
  }

 private:
  struct Entry {
    Packet pkt;
    sim::SimTime at = 0.0;
    std::uint64_t seq = 0;
  };

  template <typename Exit>
  void arm(Exit exit) {
    const Entry& head = ring_.front();
    auto fire = [this, exit] {
      // Pop and re-arm before handing the packet on: the exit may push into
      // this pipe again (and then finds it empty or already armed).
      const Packet p = ring_.front().pkt;
      ring_.pop_front();
      if (!ring_.empty()) arm(exit);
      exit(p);
    };
    static_assert(sim::SmallCallback::fits_inline<decltype(fire)>(),
                  "pipe events must use the inline callback path");
    sched_.schedule_keyed(head.at, head.seq, std::move(fire));
  }

  sim::Scheduler& sched_;
  FifoRing<Entry> ring_;
};

}  // namespace rlacast::net
