// Engine observability: cumulative counters the event engine maintains about
// itself.  Read through Scheduler::counters() by benches (bench_engine prints
// them) and by tests asserting the zero-allocation contract; cheap enough to
// update unconditionally on the hot path (plain increments and max()s).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

namespace rlacast::stats {

struct EngineCounters {
  std::uint64_t scheduled = 0;    // events armed (schedule_at/_keyed)
  std::uint64_t cancelled = 0;    // cancel() calls that hit a live event
  std::uint64_t rescheduled = 0;  // in-place reschedule_at() retargets
  std::uint64_t dispatched = 0;   // callbacks actually run
  /// Scheduled callables too large for the inline buffer (heap fallback).
  /// Zero in every engine-owned path; nonzero means a fat capture crept in.
  std::uint64_t callback_heap_fallbacks = 0;
  std::size_t heap_hiwater = 0;       // max heap entries (incl. stale)
  std::size_t slab_capacity = 0;      // slots ever allocated
  std::size_t slab_live_hiwater = 0;  // max simultaneously armed events
  /// Fault-injection totals (src/fault/): packets a Link discarded because
  /// of an injected impairment — interface outage at transmit() or wire
  /// loss at serialization end — and extra copies created by duplication.
  /// Counted separately from queue drops (Link::drops() / Queue stats).
  std::uint64_t fault_drops = 0;
  std::uint64_t fault_duplicates = 0;

  /// Compact one-line rendering for bench transcripts.
  std::string render() const {
    char buf[320];
    int n = std::snprintf(buf, sizeof(buf),
                          "scheduled=%llu cancelled=%llu rescheduled=%llu "
                          "dispatched=%llu heap_fallbacks=%llu heap_hiwater=%zu "
                          "slab_capacity=%zu slab_live_hiwater=%zu",
                          static_cast<unsigned long long>(scheduled),
                          static_cast<unsigned long long>(cancelled),
                          static_cast<unsigned long long>(rescheduled),
                          static_cast<unsigned long long>(dispatched),
                          static_cast<unsigned long long>(callback_heap_fallbacks),
                          heap_hiwater, slab_capacity, slab_live_hiwater);
    // Fault counters appear only when faults were injected, so pristine
    // bench transcripts are unchanged.
    if ((fault_drops || fault_duplicates) && n > 0 &&
        static_cast<std::size_t>(n) < sizeof(buf)) {
      std::snprintf(buf + n, sizeof(buf) - static_cast<std::size_t>(n),
                    " fault_drops=%llu fault_duplicates=%llu",
                    static_cast<unsigned long long>(fault_drops),
                    static_cast<unsigned long long>(fault_duplicates));
    }
    return buf;
  }
};

}  // namespace rlacast::stats
