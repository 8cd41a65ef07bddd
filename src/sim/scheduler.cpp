#include "sim/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace rlacast::sim {

bool Scheduler::decode_live(EventId id, std::uint32_t& slot) const {
  if (id == kInvalidEventId) return false;
  const auto raw = static_cast<std::uint32_t>(id & 0xffffffffu);
  if (raw == 0 || raw > slots_.size()) return false;
  slot = raw - 1;
  const Slot& s = slots_[slot];
  return s.gen == static_cast<std::uint32_t>(id >> 32) &&
         static_cast<bool>(s.cb);
}

void Scheduler::heap_push(SimTime at, std::uint64_t seq, std::uint32_t slot,
                          std::uint32_t gen) {
  // Manual sift-up on the trivially-copyable key; cheaper than
  // std::push_heap's iterator machinery and allocation-free once the vector
  // has warmed up.
  heap_.push_back(HeapEntry{at, seq, slot, gen});
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    const HeapEntry& p = heap_[parent];
    const HeapEntry& c = heap_[i];
    if (p.at < c.at || (p.at == c.at && p.seq < c.seq)) break;
    std::swap(heap_[parent], heap_[i]);
    i = parent;
  }
  counters_.heap_hiwater = std::max(counters_.heap_hiwater, heap_.size());
}

void Scheduler::heap_pop() {
  assert(!heap_.empty());
  heap_[0] = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  while (true) {
    const std::size_t l = 2 * i + 1;
    if (l >= n) break;
    const std::size_t r = l + 1;
    std::size_t first = l;
    if (r < n && (heap_[r].at < heap_[l].at ||
                  (heap_[r].at == heap_[l].at && heap_[r].seq < heap_[l].seq)))
      first = r;
    if (heap_[i].at < heap_[first].at ||
        (heap_[i].at == heap_[first].at && heap_[i].seq < heap_[first].seq))
      break;
    std::swap(heap_[i], heap_[first]);
    i = first;
  }
}

void Scheduler::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  ++s.gen;  // kills outstanding ids and stale heap entries for this slot
  s.next_free = free_head_;
  free_head_ = slot;
}

EventId Scheduler::schedule_keyed(SimTime at, std::uint64_t seq,
                                  Callback&& cb) {
  assert(at >= now_ && "cannot schedule into the past");
  assert((at > now_ || seq > now_seq_) &&
         "keyed arm behind the event being dispatched");
  assert(seq < next_seq_ && "sequence number was never reserved");
  assert(cb && "scheduling an empty callback");
  std::uint32_t slot;
  if (free_head_ != kNoFree) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    counters_.slab_capacity = slots_.size();
  }
  Slot& s = slots_[slot];
  if (cb.on_heap()) ++counters_.callback_heap_fallbacks;
  s.cb = std::move(cb);
  heap_push(at, seq, slot, s.gen);
  ++live_events_;
  ++counters_.scheduled;
  counters_.slab_live_hiwater =
      std::max(counters_.slab_live_hiwater, live_events_);
  return pack(slot, s.gen);
}

EventId Scheduler::reschedule_at(EventId id, SimTime at) {
  assert(at >= now_ && "cannot schedule into the past");
  std::uint32_t slot;
  if (!decode_live(id, slot)) return kInvalidEventId;
  // Retarget in place: the callback stays put; the generation bump orphans
  // the old heap entry (skimmed lazily) and a fresh key carries the new
  // (time, sequence) — so a rescheduled event orders exactly as if it had
  // been cancelled and rescheduled, without touching the callback or slab.
  Slot& s = slots_[slot];
  ++s.gen;
  heap_push(at, next_seq_++, slot, s.gen);
  ++counters_.rescheduled;
  return pack(slot, s.gen);
}

void Scheduler::cancel(EventId id) {
  // Only a live event may be cancelled; anything else must be a no-op or
  // the live-event accounting would drift. The generation check makes that
  // exact: an id is live only while its slot still carries its generation.
  std::uint32_t slot;
  if (!decode_live(id, slot)) return;
  slots_[slot].cb.reset();
  release_slot(slot);
  --live_events_;
  ++counters_.cancelled;
  // Tidy: drop stale keys that already surfaced, and empty the heap outright
  // when nothing live remains — a fully-cancelled scheduler reports
  // empty()/next_time() == kNever without a dispatch attempt.
  if (live_events_ == 0)
    heap_.clear();
  else
    skim();
}

void Scheduler::skim() const {
  while (!heap_.empty()) {
    const HeapEntry& top = heap_[0];
    if (slots_[top.slot].gen == top.gen) return;
    const_cast<Scheduler*>(this)->heap_pop();
  }
}

SimTime Scheduler::next_time() const {
  skim();
  return heap_.empty() ? kNever : heap_[0].at;
}

bool Scheduler::run_one() {
  skim();
  if (heap_.empty()) return false;
  const HeapEntry top = heap_[0];
  heap_pop();
  // Move the callback out and free the slot before invoking, so re-entrant
  // scheduling from the callback (which may reuse this very slot) is safe.
  Callback cb = std::move(slots_[top.slot].cb);  // leaves the slot empty
  release_slot(top.slot);
  --live_events_;
  now_ = top.at;
  now_seq_ = top.seq;
  ++counters_.dispatched;
  if (observer_ != nullptr) observer_->on_dispatch(counters_.dispatched, now_);
  cb();
  return true;
}

replay::Snapshot Scheduler::snapshot_state() const {
  replay::Snapshot s;
  s.put("now", now_);
  s.put("next_seq", next_seq_);
  s.put("live_events", live_events_);
  s.put("heap_size", heap_.size());
  s.put("scheduled", counters_.scheduled);
  s.put("cancelled", counters_.cancelled);
  s.put("rescheduled", counters_.rescheduled);
  s.put("dispatched", counters_.dispatched);
  s.put("callback_heap_fallbacks", counters_.callback_heap_fallbacks);
  s.put("heap_hiwater", counters_.heap_hiwater);
  s.put("slab_capacity", counters_.slab_capacity);
  s.put("slab_live_hiwater", counters_.slab_live_hiwater);
  s.put("fault_drops", counters_.fault_drops);
  s.put("fault_duplicates", counters_.fault_duplicates);
  return s;
}

void Scheduler::run_until(SimTime until) {
  while (true) {
    const SimTime t = next_time();
    if (t == kNever) return;
    if (t > until) {
      now_ = until;
      return;
    }
    run_one();
  }
}

void Scheduler::run_all() {
  while (run_one()) {
  }
}

}  // namespace rlacast::sim
