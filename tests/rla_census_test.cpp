// TroubledCensus unit tests: the §3.3 rule-6 dynamics that determine
// num_trouble_rcvr and hence pthresh.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "cc/troubled_census.hpp"
#include "sim/random.hpp"

namespace rlacast::cc {
namespace {

TEST(Census, EmptyHasNoTroubled) {
  TroubledCensus c(20.0, 0.25);
  c.add_receiver();
  c.add_receiver();
  EXPECT_EQ(c.recompute(10.0), 0);
  EXPECT_LT(c.min_interval(10.0), 0.0);
}

TEST(Census, FirstSignalMakesReceiverTroubled) {
  TroubledCensus c(20.0, 0.25);
  const int i = c.add_receiver();
  c.add_receiver();
  c.on_signal(i, 5.0);
  EXPECT_EQ(c.recompute(5.0), 1);
  EXPECT_TRUE(c.troubled(i));
}

TEST(Census, SimilarRatesAllTroubled) {
  TroubledCensus c(20.0, 0.25);
  const int a = c.add_receiver();
  const int b = c.add_receiver();
  // Both signal every ~2 s.
  for (int k = 1; k <= 10; ++k) {
    c.on_signal(a, 2.0 * k);
    c.on_signal(b, 2.0 * k + 0.5);
  }
  EXPECT_EQ(c.recompute(21.0), 2);
}

TEST(Census, RareSignalerIsNotTroubled) {
  TroubledCensus c(20.0, 0.25);
  const int busy = c.add_receiver();
  const int quiet = c.add_receiver();
  // busy: every 1 s; quiet: every 100 s (ratio 100 > eta = 20).
  for (int k = 1; k <= 200; ++k) c.on_signal(busy, 1.0 * k);
  c.on_signal(quiet, 50.0);
  c.on_signal(quiet, 150.0);
  c.recompute(200.0);
  EXPECT_TRUE(c.troubled(busy));
  EXPECT_FALSE(c.troubled(quiet));
  EXPECT_EQ(c.num_troubled(), 1);
}

TEST(Census, BorderlineRatioUsesEta) {
  // Interval ratio 10 < eta=20  -> troubled; with eta=5 it would not be.
  TroubledCensus loose(20.0, 0.25);
  TroubledCensus strict(5.0, 0.25);
  for (auto* c : {&loose, &strict}) {
    const int fast = c->add_receiver();
    const int slow = c->add_receiver();
    for (int k = 1; k <= 100; ++k) c->on_signal(fast, 1.0 * k);
    for (int k = 1; k <= 10; ++k) c->on_signal(slow, 10.0 * k);
    c->recompute(100.0);
    EXPECT_TRUE(c->troubled(fast));
  }
  EXPECT_TRUE(loose.troubled(1));
  EXPECT_FALSE(strict.troubled(1));
}

TEST(Census, QuietReceiverAgesOut) {
  TroubledCensus c(20.0, 0.25);
  const int a = c.add_receiver();
  const int b = c.add_receiver();
  for (int k = 1; k <= 20; ++k) {
    c.on_signal(a, 1.0 * k);
    c.on_signal(b, 1.0 * k + 0.3);
  }
  EXPECT_EQ(c.recompute(21.0), 2);
  // b falls silent while a keeps signalling every second.
  for (int k = 21; k <= 1000; ++k) c.on_signal(a, 1.0 * k);
  c.recompute(1000.0);
  EXPECT_TRUE(c.troubled(a));
  EXPECT_FALSE(c.troubled(b));  // silent for ~980 s vs min interval 1 s
}

TEST(Census, ExcludedReceiverNeverTroubled) {
  TroubledCensus c(20.0, 0.25);
  const int a = c.add_receiver();
  for (int k = 1; k <= 10; ++k) c.on_signal(a, 1.0 * k);
  EXPECT_EQ(c.recompute(10.0), 1);
  c.exclude(a);
  EXPECT_EQ(c.num_troubled(), 0);
  c.on_signal(a, 11.0);  // ignored
  EXPECT_EQ(c.recompute(11.0), 0);
  EXPECT_EQ(c.signals(a), 10u);
}

TEST(Census, SignalCountsPerReceiver) {
  TroubledCensus c(20.0, 0.25);
  const int a = c.add_receiver();
  const int b = c.add_receiver();
  for (int k = 1; k <= 7; ++k) c.on_signal(a, 1.0 * k);
  for (int k = 1; k <= 3; ++k) c.on_signal(b, 2.0 * k);
  EXPECT_EQ(c.signals(a), 7u);
  EXPECT_EQ(c.signals(b), 3u);
  EXPECT_EQ(c.total_signals(), 10u);
}

TEST(Census, MinIntervalTracksFastestSignaler) {
  TroubledCensus c(20.0, 0.25);
  const int a = c.add_receiver();
  const int b = c.add_receiver();
  for (int k = 1; k <= 50; ++k) c.on_signal(a, 0.5 * k);
  for (int k = 1; k <= 5; ++k) c.on_signal(b, 5.0 * k);
  EXPECT_NEAR(c.min_interval(25.0), 0.5, 0.1);
}

// Property: num_troubled is monotone in eta (a looser threshold can only
// admit more receivers).
class CensusEta : public ::testing::TestWithParam<double> {};

TEST_P(CensusEta, TroubledCountGrowsWithEta) {
  const double eta = GetParam();
  TroubledCensus tight(eta, 0.25);
  TroubledCensus loose(eta * 2.0, 0.25);
  for (auto* c : {&tight, &loose}) {
    for (int r = 0; r < 5; ++r) c->add_receiver();
    // Receiver r signals with interval 2^r.
    for (int r = 0; r < 5; ++r) {
      const double interval = 1 << r;
      for (double t = interval; t <= 64.0; t += interval)
        c->on_signal(r, t);
    }
    c->recompute(64.5);
  }
  EXPECT_LE(tight.num_troubled(), loose.num_troubled());
  EXPECT_GE(tight.num_troubled(), 1);
}

INSTANTIATE_TEST_SUITE_P(Etas, CensusEta, ::testing::Values(2.0, 5.0, 10.0, 20.0));

// Fuzz: adversarial signal sequences — bursts, long silences, simultaneous
// signals, signals at identical timestamps, mid-stream exclusions — must
// never produce NaN/negative intervals, and num_trouble_rcvr >= 1 whenever
// any non-excluded receiver has ever signalled (pthresh = p/num_trouble
// divides by it).
TEST(Census, FuzzRandomSignalSequencesKeepInvariants) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::Rng rng(seed);
    const int n = static_cast<int>(rng.uniform_int(1, 12));
    TroubledCensus c(20.0, 0.25);
    for (int i = 0; i < n; ++i) c.add_receiver();

    double now = 0.0;
    bool any_signal_live = false;
    for (int step = 0; step < 400; ++step) {
      // Time advances by anything from 0 (same-instant signals) to a long
      // silence; bursts arrive with many signals at one instant.
      const double r = rng.uniform();
      if (r < 0.3) {
        // burst: several receivers signal at the same time
        const int k = static_cast<int>(rng.uniform_int(1, n));
        for (int j = 0; j < k; ++j) {
          const int i = static_cast<int>(rng.uniform_int(0, n - 1));
          c.on_signal(i, now);
          if (!c.excluded(i)) any_signal_live = true;
        }
      } else if (r < 0.85) {
        const int i = static_cast<int>(rng.uniform_int(0, n - 1));
        c.on_signal(i, now);
        if (!c.excluded(i)) any_signal_live = true;
      } else if (r < 0.9 && n > 1) {
        // rare mid-stream exclusion (leave / slow-drop / crash)
        const int i = static_cast<int>(rng.uniform_int(0, n - 1));
        c.exclude(i);
        any_signal_live = false;  // recompute below re-derives the truth
        for (int j = 0; j < n; ++j)
          if (!c.excluded(j) && c.signals(j) > 0) any_signal_live = true;
      }
      now += rng.chance(0.1) ? rng.uniform(50.0, 500.0)  // long silence
                             : rng.uniform(0.0, 2.0);

      const int troubled = c.recompute(now);
      ASSERT_GE(troubled, 0) << "seed " << seed << " step " << step;
      ASSERT_LE(troubled, n);
      if (any_signal_live) {
        // The paper's rule: the most congested receiver is always troubled,
        // so the pthresh denominator never hits zero while signals exist.
        ASSERT_GE(troubled, 1) << "seed " << seed << " step " << step;
      }
      const double min_iv = c.min_interval(now);
      ASSERT_FALSE(std::isnan(min_iv)) << "seed " << seed;
      if (any_signal_live) {
        ASSERT_GE(min_iv, 0.0) << "seed " << seed;
      }
      for (int i = 0; i < n; ++i) {
        const double eff = c.effective_interval(i, now);
        ASSERT_FALSE(std::isnan(eff)) << "seed " << seed << " rcvr " << i;
        if (c.excluded(i) || c.signals(i) == 0) {
          ASSERT_FALSE(c.troubled(i));
          continue;
        }
        ASSERT_GE(eff, 0.0) << "seed " << seed << " rcvr " << i;
        // Troubled receivers are exactly those within eta of the minimum.
        ASSERT_EQ(c.troubled(i), eff <= 20.0 * min_iv)
            << "seed " << seed << " rcvr " << i;
      }
    }
  }
}

/// Checkpoint of an `n`-member census in which only `signaller` (if >= 0)
/// has signalled.
replay::Snapshot snapshot_with_signaller(int n, int signaller) {
  TroubledCensus c(20.0, 0.25);
  for (int i = 0; i < n; ++i) c.add_receiver();
  if (signaller >= 0) c.on_signal(signaller, 5.0);
  c.recompute(5.0);
  if (signaller >= 0) {
    EXPECT_TRUE(c.troubled(signaller));
  }
  return c.snapshot_state();
}

/// The checkpoint fields that describe individual members, i.e. all but
/// the census-wide counts.
std::vector<replay::Snapshot::Field> member_fields(const replay::Snapshot& s) {
  static const std::set<std::string> kCounts = {
      "receivers", "active",   "num_troubled",
      "total_signals", "excluded", "quarantines"};
  std::vector<replay::Snapshot::Field> out;
  for (const auto& f : s.fields())
    if (kCounts.count(f.key) == 0) out.push_back(f);
  return out;
}

class CensusCheckpoint : public ::testing::TestWithParam<int> {};

// A troubled flag above member 63 must reach the checkpoint itself, not only
// through the counts: replay compares checkpoints at every n it journals.
TEST_P(CensusCheckpoint, SeesTroubledFlagOfLastMember) {
  const int n = GetParam();
  const replay::Snapshot calm = snapshot_with_signaller(n, -1);
  const replay::Snapshot last = snapshot_with_signaller(n, n - 1);
  EXPECT_FALSE(member_fields(calm).empty());
  EXPECT_NE(member_fields(calm), member_fields(last));
}

INSTANTIATE_TEST_SUITE_P(AboveSixtyFour, CensusCheckpoint,
                         ::testing::Values(65, 1000));

TEST(CensusCheckpoint, TellsApartWhichHighMemberIsTroubled) {
  // Same counts, different troubled member: only the column tells.
  const replay::Snapshot a = snapshot_with_signaller(1000, 64);
  const replay::Snapshot b = snapshot_with_signaller(1000, 999);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, snapshot_with_signaller(1000, 64));  // deterministic
}

}  // namespace
}  // namespace rlacast::cc
