// Troubled-receiver census (§3.3 rule 6).
//
// num_trouble_rcvr is the dynamic count of receivers whose congestion-signal
// rate is within a factor η of the most congested receiver's.  Concretely,
// each receiver carries an EWMA of the intervals between its congestion
// signals; with min_congestion_interval the smallest such average over all
// receivers, receiver i is *troubled* iff
//
//     effective_interval_i < eta * min_congestion_interval .
//
// Two practical refinements over the paper's one-line description (both
// documented in DESIGN.md):
//  * a receiver whose EWMA has no sample yet (fewer than two signals) uses
//    the elapsed time since its single signal, so the very first loss of a
//    session still counts (num_trouble >= 1 whenever anyone signals);
//  * the effective interval is max(EWMA, time since last signal), so a
//    receiver whose congestion ended ages out of the census instead of
//    staying troubled on stale history.
//
// Storage is the flat SoA member table of cc::CensusCore (parallel arrays
// indexed by the dense receiver id); this class layers the troubled rule,
// the sampled mode, and the defense state machine on top of it.
//
// Census modes (CensusSampleParams; see DESIGN.md "Memory model"):
//  * kExact (default): every recompute rescans all members — O(N) per
//    signal, byte-identical to the historical census.
//  * kSampled: recompute scans only a deterministic bottom-k hash sample of
//    the active membership (plus the most recent signaller, whose troubled
//    flag the listening policy consults directly).  num_trouble_rcvr is the
//    sample count scaled by active/sample and srtt_max is taken over the
//    sample, so per-signal work is O(k).  With reservoir >= N the sample is
//    the whole membership and every decision matches kExact bit-for-bit.
//
// The sender's srtt aggregate also lives here: note_srtt(i, srtt) mirrors
// each receiver's estimate into the SoA and srtt_max() serves the cached
// maximum (amortized O(1): the cache only invalidates when the holder's own
// estimate shrinks or the membership changes) — with the defense's
// median/MAD clamp applied on top when enabled.
//
// Feedback-plane hardening (CensusDefenseParams): the paper assumes every
// receiver reports honestly.  A signal-storm receiver can fabricate holes
// fast enough to become the census minimum, shrink everyone's pthresh
// denominator to itself, and halve the window on every fabricated signal.
// With the defense enabled the census rate-limits each member against the
// MEDIAN peer rate (a storm cannot drag the median the way it drags the
// minimum) and moves violators through a quarantine → probation → rejoin
// state machine instead of the old binary excluded() bit:
//
//   kActive --rate violation--> kQuarantined --timer--> kProbation
//     ^                                                    |
//     +------------- clean probation window ---------------+
//
// While quarantined a member counts as excluded() for every sender
// mechanism (frozen scoreboard, skipped frontier, dropped ACKs).  Each
// violation is a strike; strikes escalate the quarantine dwell and
// max_strikes converts the member to kExcluded permanently.  Probation uses
// a stricter rate factor (hysteresis), so a flip-flopping attacker is
// re-caught faster each time it resumes.  Everything defaults to disabled:
// defense off is byte-identical to the historical census.
// force_quarantine() exposes the same strike machinery to the sender's
// frontier-progress watchdog, which works with the rate defense off.
#pragma once

#include <cstdint>
#include <vector>

#include "cc/census_core.hpp"
#include "replay/snapshot.hpp"
#include "sim/time.hpp"

namespace rlacast::cc {

/// Robust-aggregation and rate-limiter knobs. enabled == false (default)
/// keeps the census byte-identical to the pre-defense implementation.
struct CensusDefenseParams {
  bool enabled = false;
  /// Median/MAD clamp applied by the sender to reported srtts before
  /// srtt_max is taken (see robust_clamped_max); <= 0 disables the clamp
  /// even when the rest of the defense is on.
  double srtt_clamp_mads = 4.0;
  /// A member is quarantined when its effective signal interval is more
  /// than rate_factor times SMALLER than the median peer interval.
  double rate_factor = 8.0;
  /// Stricter factor while on probation (hysteresis: a re-offender is
  /// easier to catch than a first offender).
  double probation_rate_factor = 4.0;
  /// Rate checks only start once the member has this many signals in the
  /// current epoch (since join or last rejoin).
  std::uint64_t min_signals = 8;
  /// Base quarantine dwell; strike k serves quarantine_seconds * 2^(k-1).
  sim::SimTime quarantine_seconds = 20.0;
  /// Probation window after quarantine; clean conduct restores kActive.
  sim::SimTime probation_seconds = 30.0;
  /// Strikes before the member is excluded permanently; 0 = never.
  int max_strikes = 3;
};

/// Median/MAD outlier clamp: every value is clamped from above to
/// median + k_mads * 1.4826 * MAD (1.4826 makes the MAD sigma-consistent)
/// and the max of the clamped values is returned.  A single liar reporting
/// a wild srtt is pulled back to the honest cohort's spread; with fewer
/// than 3 values or k_mads <= 0 the plain max is returned (no robust
/// baseline exists).  `values` is scratch: reordered in place.
double robust_clamped_max(std::vector<double>& values, double k_mads);

class TroubledCensus : public replay::Snapshotable {
 public:
  TroubledCensus(double eta, double interval_gain)
      : eta_(eta), core_(interval_gain) {}

  /// Installs the defense knobs (call before signals flow; with
  /// defense.enabled == false this is a no-op configuration).
  void set_defense(const CensusDefenseParams& defense) { defense_ = defense; }
  const CensusDefenseParams& defense() const { return defense_; }

  /// Selects the census mode (call before receivers join; the default
  /// kExact configuration is byte-identical to the historical census).
  void configure_sampling(const CensusSampleParams& sampling);
  CensusMode mode() const { return sampling_.mode; }

  /// Capacity hint: the expected membership (topology builders know it up
  /// front; the dense arrays would otherwise pay push_back overshoot).
  void reserve(std::size_t n) {
    core_.reserve(n);
    reservoir_.reserve(n);
  }

  /// Registers one more receiver; returns its index.
  int add_receiver();

  std::size_t receiver_count() const { return core_.size(); }

  /// Receivers not excluded (active or on probation). O(1).
  int active_count() const { return active_count_; }

  /// Bumped on every change to the excluded()-membership (join, leave,
  /// quarantine, rejoin).  Aggregate caches — here and in the sender's
  /// receiver table — key their validity on it.
  std::uint64_t membership_version() const { return membership_version_; }

  /// Records a congestion signal from receiver `i` at time `now`.  With the
  /// defense enabled this also runs the median rate check and may move `i`
  /// to kQuarantined (or kExcluded on the final strike).
  void on_signal(int i, sim::SimTime now);

  /// Permanently removes receiver `i` from the census (§4.3 slow-drop,
  /// leaves, silent-receiver drops, subtree excision).
  void exclude(int i);

  /// Reverses exclude(): re-admits a kExcluded member as kActive with a
  /// fresh census epoch (stale signal history from before the exclusion
  /// must not poison its interval estimate).  The structural-heal path —
  /// the sender's subtree re-admission ramp — graduates members back
  /// through this.  No-op unless `i` is currently kExcluded.
  void readmit(int i);

  /// True while `i` must not influence the sender: permanently excluded OR
  /// serving a quarantine.  Every sender-side guard (frontier, scoreboards,
  /// ACK intake, retransmit scans) keys off this, so quarantine reuses the
  /// exact mechanics that already handled departed receivers.
  bool excluded(int i) const { return core_.excluded(i); }

  /// Time-driven state transitions as of `now`: quarantines that have been
  /// served become probation (their indices are returned so the sender can
  /// thaw them like late joiners), clean probation windows become active.
  /// No-op while the defense is disabled and nothing was ever quarantined
  /// (force_quarantine also arms it); amortized O(1) between transition
  /// deadlines.
  std::vector<int> advance_states(sim::SimTime now);

  /// Recomputes the troubled flags as of `now`; returns num_trouble_rcvr.
  /// kExact scans all members; kSampled scans the reservoir plus the most
  /// recent signaller and scales the count to the active membership.
  int recompute(sim::SimTime now);

  bool troubled(int i) const {
    return core_.troubled[static_cast<std::size_t>(i)] != 0;
  }
  int num_troubled() const { return num_troubled_; }

  /// Smallest effective interval across receivers (kSampled: across the
  /// reservoir plus the most recent signaller); <0 when nobody has
  /// signalled yet.
  double min_interval(sim::SimTime now) const;

  /// The per-receiver effective congestion-signal interval (see above);
  /// returns a negative value when the receiver has never signalled (in
  /// its current epoch — a rejoin starts a fresh epoch).
  double effective_interval(int i, sim::SimTime now) const {
    return core_.effective_interval(i, now);
  }

  std::uint64_t signals(int i) const { return core_.signal_count(i); }
  std::uint64_t total_signals() const { return total_signals_; }
  sim::SimTime last_signal_time(int i) const {
    return core_.last_signal_at(i);
  }

  /// kSampled only: true when `i` is one of the reservoir-tracked members
  /// (always false in kExact, where every member is tracked implicitly).
  /// The sender keys its own slim per-receiver state on this.
  bool sampled_tracked(int i) const {
    return sampling_.mode == CensusMode::kSampled && reservoir_.tracked(i);
  }

  // --- srtt aggregate -------------------------------------------------------
  /// Mirrors receiver `i`'s srtt estimate into the census (the sender calls
  /// this after every RTT sample). Keeps the srtt_max cache hot: O(1)
  /// unless the cached holder's own estimate shrank.
  void note_srtt(int i, double srtt);

  /// Largest mirrored srtt over the non-excluded members (kSampled: over
  /// the reservoir).  With the defense's srtt clamp enabled the median/MAD
  /// clamp of robust_clamped_max is applied first; that variant is cached
  /// per (srtt, membership) version, so repeated pthresh evaluations of the
  /// same census state cost O(1).
  double srtt_max() const;

  // --- defense observability ----------------------------------------------
  MemberState state(int i) const {
    return core_.state[static_cast<std::size_t>(i)];
  }
  int strikes(int i) const { return core_.strike_count(i); }
  /// Total quarantine transitions (strike-outs included).
  std::uint64_t quarantines() const { return quarantines_; }
  /// Members converted to kExcluded by reaching max_strikes.
  std::uint64_t strikeouts() const { return strikeouts_; }
  int currently_quarantined() const {
    int n = 0;
    for (std::size_t i = 0; i < core_.size(); ++i)
      if (core_.state[i] == MemberState::kQuarantined) ++n;
    return n;
  }

  /// Strikes `i` through the quarantine machinery regardless of the rate
  /// defense — the sender's frontier-progress watchdog uses this to evict
  /// receivers that pin the reach-all frontier while everyone else keeps
  /// acknowledging.  No-op when `i` is already excluded.
  void force_quarantine(int i, sim::SimTime now);

  /// Resident bytes of the census (SoA arrays + reservoir + scratch).
  std::size_t state_bytes() const;

  /// Checkpoint state: census totals plus the troubled flag of every
  /// member (the inputs to every pthresh decision), the latter as an
  /// FNV-1a hash of the whole troubled column.
  replay::Snapshot snapshot_state() const override {
    replay::Snapshot s;
    s.put("receivers", core_.size());
    s.put("active", active_count_);
    s.put("num_troubled", num_troubled_);
    s.put("total_signals", total_signals_);
    std::uint64_t excluded_n = 0;
    std::uint64_t troubled_hash = 14695981039346656037ULL;
    for (std::size_t i = 0; i < core_.size(); ++i) {
      if (core_.excluded(static_cast<int>(i))) ++excluded_n;
      troubled_hash = (troubled_hash ^ core_.troubled[i]) * 1099511628211ULL;
    }
    s.put("excluded", excluded_n);
    s.put("troubled_hash", troubled_hash);
    s.put("quarantines", quarantines_);
    return s;
  }

 private:
  /// Median rate check for `i` after a fresh signal; quarantines on
  /// violation.  Defense-enabled path only.
  void rate_check(int i, sim::SimTime now);
  void quarantine(int i, sim::SimTime now);
  void clear_troubled(int i);
  void set_troubled(int i);
  /// Member left the excluded() set (join/rejoin) or entered it.
  void membership_changed(int i, bool now_active);
  double plain_srtt_max() const;
  double robust_srtt_max() const;

  double eta_;
  CensusDefenseParams defense_{};
  CensusSampleParams sampling_{};
  CensusCore core_;
  SampleReservoir reservoir_;   // kSampled only
  int last_signaller_ = -1;     // kSampled: always evaluated exactly
  std::vector<int> flagged_;    // members whose troubled flag is set
  std::vector<double> interval_scratch_;  // rate_check median workspace
  int num_troubled_ = 0;
  int active_count_ = 0;
  std::uint64_t total_signals_ = 0;
  std::uint64_t quarantines_ = 0;
  std::uint64_t strikeouts_ = 0;
  std::uint64_t membership_version_ = 0;
  sim::SimTime next_state_check_ = 1e18;  // earliest pending state expiry

  // srtt_max caches (logically const accessors).
  std::uint64_t srtt_version_ = 0;
  mutable bool srtt_max_valid_ = false;
  mutable double srtt_max_cache_ = 0.0;
  mutable int srtt_holder_ = -1;
  mutable std::uint64_t srtt_max_membership_ = ~0ULL;
  mutable bool robust_valid_ = false;
  mutable double robust_cache_ = 0.0;
  mutable std::uint64_t robust_srtt_version_ = ~0ULL;
  mutable std::uint64_t robust_membership_ = ~0ULL;
  mutable std::vector<double> srtt_scratch_;
};

}  // namespace rlacast::cc
