// Event scheduler: the heart of the discrete-event engine.
//
// Storage is a generation-tagged slab: every scheduled event occupies a slot
// holding its callback in-line (see SmallCallback), and the EventId handed
// back at scheduling time packs (slot index, generation).  Cancellation is
// O(1) — bump the slot's generation, free the slot — with no hashing and no
// per-event container churn; the stale heap entry is skimmed lazily when it
// surfaces.  Scheduling a typical event (timer re-arm, link pipeline leg)
// performs zero heap allocations.
//
// Dispatch order is a binary min-heap of (time, sequence) keys.  The
// sequence number makes ordering of simultaneous events deterministic (FIFO
// within a timestamp), which in turn makes every simulation in this
// repository exactly reproducible for a given seed.  reschedule_at()
// retargets a pending event in place — the callback stays in its slot; only
// a fresh (time, sequence) key is pushed — which is what makes TCP-style
// "restart the rexmit timer on every ACK" churn cheap.
//
// FIFO pipelines (a link's propagation pipe, a send pacer's pending queue)
// keep only their head on the heap: each entry reserves its sequence number
// with reserve_seq() when it joins the pipeline, and the pipeline arms its
// head with schedule_keyed() under that reserved key (net::PacketPipe).  The
// dispatch order is therefore exactly the one eager arming would give, while
// the heap holds O(pipelines + timers) keys instead of one per packet.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "replay/snapshot.hpp"
#include "sim/callback.hpp"
#include "sim/time.hpp"
#include "stats/engine_counters.hpp"

namespace rlacast::sim {

/// Identifier of a scheduled event; usable to cancel it before it fires.
/// Packs (generation << 32) | (slot + 1): the +1 keeps 0 free as the
/// invalid id, and the generation makes ids single-use — a slot reused by a
/// later event yields a different id, so cancelling a stale handle is a
/// guaranteed no-op.
using EventId = std::uint64_t;

/// Invalid/none event id. Scheduler never returns this value.
inline constexpr EventId kInvalidEventId = 0;

class Scheduler : public replay::Snapshotable {
 public:
  using Callback = SmallCallback;

  /// Schedules `cb` to run at absolute time `at`. `at` must be >= now().
  /// Same as schedule_keyed(at, reserve_seq(), cb).
  EventId schedule_at(SimTime at, Callback cb) {
    return schedule_keyed(at, next_seq_++, std::move(cb));
  }

  /// Takes the next FIFO sequence number without arming anything: the
  /// caller arms it later with schedule_keyed(), and the event then orders
  /// as if it had been scheduled now.
  std::uint64_t reserve_seq() { return next_seq_++; }

  /// Arms `cb` under a key taken earlier from reserve_seq().  The key
  /// (at, seq) must not be behind the event being dispatched (asserted):
  /// a deferred arm may not reorder what has already run.  Each reserved
  /// sequence number is armed at most once.
  EventId schedule_keyed(SimTime at, std::uint64_t seq, Callback&& cb);

  /// Retargets a pending event to fire at `at` instead, keeping its stored
  /// callback (no destroy/reconstruct, no slot churn).  Returns the event's
  /// new id; returns kInvalidEventId — scheduling nothing — when `id` is no
  /// longer live (already fired or cancelled), in which case the caller
  /// schedules afresh.
  EventId reschedule_at(EventId id, SimTime at);

  /// Cancels a pending event. Cancelling an already-fired or already-
  /// cancelled event is a harmless no-op.
  void cancel(EventId id);

  /// True if no runnable (non-cancelled) events remain.
  bool empty() const { return live_events_ == 0; }

  /// Number of armed events still pending.  Packets queued behind the head
  /// of a FIFO pipeline (net::PacketPipe) hold a reserved key but no armed
  /// event, so they are not counted here.
  std::size_t pending() const { return live_events_; }

  /// Current simulation time: the timestamp of the last dispatched event.
  SimTime now() const { return now_; }

  /// Timestamp of the next runnable event; kNever if none.  Logically const:
  /// may lazily discard cancelled entries from the internal heap.
  SimTime next_time() const;

  /// Dispatches the next event. Returns false if none remain.
  bool run_one();

  /// Dispatches events until the clock passes `until` or no events remain.
  /// Events at exactly `until` are dispatched. Leaves now() == until if the
  /// horizon was reached with events still pending beyond it.
  void run_until(SimTime until);

  /// Dispatches everything. Intended for tests with finite event chains.
  void run_all();

  /// Total number of events dispatched so far (for micro-benchmarks).
  std::uint64_t dispatched() const { return counters_.dispatched; }

  /// Cumulative engine counters (schedule/cancel/dispatch volume, heap and
  /// slab high-water marks, callback heap fallbacks).
  const stats::EngineCounters& counters() const { return counters_; }

  /// Mutable counter access for engine-adjacent components that account
  /// through the scheduler's counter block (the links' fault-injection
  /// drop/duplicate totals live here, beside the queue-drop statistics
  /// they must stay distinguishable from).
  stats::EngineCounters& counters_mut() { return counters_; }

  /// Installs (or clears, with nullptr) the determinism observer: every
  /// dispatch is reported as (sequence number, event time) immediately
  /// before the callback runs, so draws made inside the callback follow
  /// their dispatch record in the journal.
  void set_observer(replay::RunObserver* observer) { observer_ = observer; }
  replay::RunObserver* observer() const { return observer_; }

  /// Full engine-state checkpoint: clock, live-event census, sequence
  /// cursor, and every EngineCounters field. Two runs agree here iff the
  /// scheduler went through bit-identical histories.  `live_events` and
  /// `heap_size` count armed events and heap keys only: packets waiting
  /// behind a pipeline head are not in either.
  replay::Snapshot snapshot_state() const override;

 private:
  /// Heap key + slab reference. 24 bytes, trivially copyable: sift-up and
  /// sift-down move no callbacks.
  struct HeapEntry {
    SimTime at;
    std::uint64_t seq;   // FIFO tie-break among equal timestamps
    std::uint32_t slot;
    std::uint32_t gen;   // stale when != slots_[slot].gen
  };

  /// One slab slot: the callback lives here; `gen` advances on every disarm
  /// (fire, cancel, or in-place retarget) so outstanding ids and heap
  /// entries referring to the old incarnation die.
  struct Slot {
    Callback cb;
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNoFree;  // free-list link while unarmed
  };

  static constexpr std::uint32_t kNoFree = 0xffffffffu;

  static EventId pack(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) |
           (static_cast<EventId>(slot) + 1);
  }

  /// True and decoded when `id` refers to a currently-armed event.
  bool decode_live(EventId id, std::uint32_t& slot) const;

  void heap_push(SimTime at, std::uint64_t seq, std::uint32_t slot,
                 std::uint32_t gen);
  void heap_pop();

  /// Discards cancelled entries off the heap top. Mutates only caches
  /// (the heap), hence callable from const queries.
  void skim() const;

  /// Returns `slot` to the free list after bumping its generation.
  void release_slot(std::uint32_t slot);

  // The heap is storage for *keys*; stale entries are cache garbage skimmed
  // lazily, so const queries may shrink it.
  mutable std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoFree;
  SimTime now_ = 0.0;
  std::uint64_t now_seq_ = 0;  // sequence of the event being dispatched
  std::uint64_t next_seq_ = 1;
  std::size_t live_events_ = 0;
  stats::EngineCounters counters_;
  replay::RunObserver* observer_ = nullptr;
};

}  // namespace rlacast::sim
