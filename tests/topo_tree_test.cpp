// Scenario-builder tests for the four-level tertiary tree (Figure 6): node
// and flow wiring, per-case congestion marking, heterogeneous receivers,
// and short-run sanity of all five bottleneck cases.
#include <gtest/gtest.h>

#include "topo/big_tree.hpp"
#include "topo/tertiary_tree.hpp"

namespace rlacast::topo {
namespace {

TreeConfig quick(TreeCase c, GatewayType g = GatewayType::kDropTail) {
  TreeConfig cfg;
  cfg.bottleneck = c;
  cfg.gateway = g;
  cfg.duration = 60.0;
  cfg.warmup = 20.0;
  return cfg;
}

TEST(TertiaryTree, TwentySevenReceiversAndTcps) {
  const auto res = run_tertiary_tree(quick(TreeCase::kL4All));
  EXPECT_EQ(res.tcps.size(), 27u);
  EXPECT_EQ(res.rla_signals_per_receiver.size(), 27u);
  EXPECT_EQ(res.rla.size(), 1u);
}

TEST(TertiaryTree, CongestionMarkingPerCase) {
  {
    const auto res = run_tertiary_tree(quick(TreeCase::kL1));
    for (bool b : res.receiver_congested) EXPECT_TRUE(b);
    EXPECT_EQ(res.bottleneck_drop_rate.size(), 1u);
  }
  {
    const auto res = run_tertiary_tree(quick(TreeCase::kL4Some));
    int congested = 0;
    for (bool b : res.receiver_congested) congested += b ? 1 : 0;
    EXPECT_EQ(congested, 5);
    EXPECT_EQ(res.bottleneck_drop_rate.size(), 5u);
  }
  {
    const auto res = run_tertiary_tree(quick(TreeCase::kL21));
    int congested = 0;
    for (bool b : res.receiver_congested) congested += b ? 1 : 0;
    EXPECT_EQ(congested, 9);  // the nine leaves below G21
  }
}

TEST(TertiaryTree, AllCasesRunAndProgress) {
  for (TreeCase c : {TreeCase::kL1, TreeCase::kL3All, TreeCase::kL4All,
                     TreeCase::kL4Some, TreeCase::kL21}) {
    const auto res = run_tertiary_tree(quick(c));
    EXPECT_GT(res.rla[0].throughput_pps, 5.0) << tree_case_name(c);
    EXPECT_GT(res.worst_tcp().throughput_pps, 1.0) << tree_case_name(c);
  }
}

TEST(TertiaryTree, RttReflectsLeafDelay) {
  // Propagation RTT = 2*(5+5+5+100) ms = 230 ms.
  const auto res = run_tertiary_tree(quick(TreeCase::kL4All));
  EXPECT_GT(res.rla[0].avg_rtt, 0.225);
  EXPECT_LT(res.rla[0].avg_rtt, 0.5);
}

TEST(TertiaryTree, TwoSessionsBothProgress) {
  TreeConfig cfg = quick(TreeCase::kL4All);
  cfg.multicast_sessions = 2;
  const auto res = run_tertiary_tree(cfg);
  ASSERT_EQ(res.rla.size(), 2u);
  EXPECT_GT(res.rla[0].throughput_pps, 5.0);
  EXPECT_GT(res.rla[1].throughput_pps, 5.0);
}

TEST(TertiaryTree, HeterogeneousAddsGatewayReceivers) {
  TreeConfig cfg = quick(TreeCase::kL3AllHetero);
  cfg.gateway_receivers = true;
  const auto res = run_tertiary_tree(cfg);
  // 36 multicast receivers, but background TCP runs only to the 27 leaves
  // (Figure 10's uniform TCP RTTs).
  EXPECT_EQ(res.tcps.size(), 27u);
  EXPECT_EQ(res.rla_signals_per_receiver.size(), 36u);
  EXPECT_GT(res.rla[0].throughput_pps, 5.0);
}

TEST(TertiaryTree, UncongestedBranchesSeeFewerSignals) {
  const auto res = run_tertiary_tree(quick(TreeCase::kL21));
  std::uint64_t congested_signals = 0, clean_signals = 0;
  int n_congested = 0, n_clean = 0;
  for (std::size_t i = 0; i < res.rla_signals_per_receiver.size(); ++i) {
    if (res.receiver_congested[i]) {
      congested_signals += res.rla_signals_per_receiver[i];
      ++n_congested;
    } else {
      clean_signals += res.rla_signals_per_receiver[i];
      ++n_clean;
    }
  }
  ASSERT_GT(n_congested, 0);
  ASSERT_GT(n_clean, 0);
  const double avg_congested =
      static_cast<double>(congested_signals) / n_congested;
  const double avg_clean = static_cast<double>(clean_signals) / n_clean;
  EXPECT_GT(avg_congested, 2.0 * avg_clean);
}

TEST(TertiaryTree, CaseNamesAreDistinct) {
  EXPECT_NE(tree_case_name(TreeCase::kL1), tree_case_name(TreeCase::kL21));
  EXPECT_NE(tree_case_name(TreeCase::kL3All),
            tree_case_name(TreeCase::kL4All));
}

TEST(BigTree, HeapDepthScalesWithLinksAndAgentsNotPacketsInFlight) {
  // n = 1000 members in 40 groups behind RED bottlenecks: thousands of
  // data packets and ACKs are in flight at once (the per-packet heap of
  // the past peaked above 3*10^4 keys here).  Link pipes and send pacers
  // each keep one armed event, so the heap is bounded by the topology.
  BigTreeConfig cfg;
  cfg.receivers = 1000;
  cfg.duration = 8.0;
  cfg.warmup = 2.0;
  std::size_t heap_hiwater = 0;
  cfg.instrument = [&](sim::Simulator& sim) {
    sim.at(cfg.duration, [&sim, &heap_hiwater] {
      heap_hiwater = sim.scheduler().counters().heap_hiwater;
    });
  };
  const BigTreeResult res = run_big_tree(cfg);
  ASSERT_GT(res.acks, 100000u);  // the session really ran at scale
  // A tree: nodes - 1 duplex links.  Agents: the sender, one receiver per
  // group, a sender + receiver per background TCP.
  const std::size_t links = 2 * static_cast<std::size_t>(res.nodes - 1);
  const std::size_t agents = 1 + static_cast<std::size_t>(res.groups) +
                             2 * res.tcps.size();
  EXPECT_GT(heap_hiwater, 0u);
  // Each link arms at most its serializer and its pipe head; agents add
  // pacers, timers and the stale keys of in-place timer retargets.
  EXPECT_LE(heap_hiwater, 3 * (links + agents))
      << "links=" << links << " agents=" << agents;
}

}  // namespace
}  // namespace rlacast::topo
