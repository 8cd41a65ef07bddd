// Randomized differential tests: ReassemblyBuffer (interval-map
// implementation) against a brute-force std::set reference, and Scoreboard
// pipe/loss accounting against a brute-force flag model.  Deterministic
// seeds make failures reproducible.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "sim/random.hpp"
#include "tcp/reassembly.hpp"
#include "cc/scoreboard.hpp"

namespace rlacast::tcp {
namespace {

/// Brute-force reassembly reference.
class RefBuffer {
 public:
  bool add(net::SeqNum s) {
    if (s < cum_ || got_.count(s)) return false;
    got_.insert(s);
    while (got_.count(cum_)) {
      got_.erase(cum_);
      ++cum_;
    }
    return true;
  }
  bool has(net::SeqNum s) const { return s < cum_ || got_.count(s); }
  net::SeqNum cum() const { return cum_; }
  std::size_t ooo() const { return got_.size(); }

 private:
  net::SeqNum cum_ = 0;
  std::set<net::SeqNum> got_;
};

class ReassemblyFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReassemblyFuzz, MatchesReferenceOnRandomArrivals) {
  sim::Rng rng(GetParam());
  ReassemblyBuffer buf;
  RefBuffer ref;
  net::SeqNum frontier = 0;  // highest seq "sent" so far
  for (int step = 0; step < 20000; ++step) {
    // Arrivals cluster near the frontier with occasional stragglers,
    // mimicking a window of in-flight packets with reordering and loss.
    net::SeqNum s;
    if (rng.chance(0.7)) {
      s = frontier++;
    } else {
      const net::SeqNum lo = std::max<net::SeqNum>(0, frontier - 40);
      s = rng.uniform_int(lo, frontier + 5);
      frontier = std::max(frontier, s + 1);
    }
    if (rng.chance(0.1)) continue;  // drop: never delivered
    ASSERT_EQ(buf.add(s), ref.add(s)) << "seq " << s << " step " << step;
    ASSERT_EQ(buf.cum_ack(), ref.cum()) << "step " << step;
    ASSERT_EQ(buf.ooo_count(), ref.ooo()) << "step " << step;
  }
  // Spot-check membership across the whole visited range.
  for (net::SeqNum s = 0; s < frontier; s += 7)
    EXPECT_EQ(buf.has(s), ref.has(s)) << s;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReassemblyFuzz,
                         ::testing::Values(1u, 2u, 3u, 42u, 999u));

TEST(ReassemblyFuzz, SackBlocksAlwaysValid) {
  sim::Rng rng(77);
  ReassemblyBuffer buf;
  net::SeqNum frontier = 0;
  for (int step = 0; step < 5000; ++step) {
    const net::SeqNum lo = std::max<net::SeqNum>(0, frontier - 30);
    const net::SeqNum s = rng.uniform_int(lo, frontier + 3);
    frontier = std::max(frontier, s + 1);
    buf.add(s);
    net::SackBlock blocks[net::kMaxSackBlocks];
    const int n = buf.sack_blocks(blocks, net::kMaxSackBlocks);
    for (int b = 0; b < n; ++b) {
      ASSERT_LT(blocks[b].lo, blocks[b].hi);
      ASSERT_GE(blocks[b].lo, buf.cum_ack());
      // Every claimed seq truly received; boundaries truly missing.
      ASSERT_TRUE(buf.has(blocks[b].lo));
      ASSERT_TRUE(buf.has(blocks[b].hi - 1));
      ASSERT_FALSE(buf.has(blocks[b].hi));
      if (blocks[b].lo > 0) {
        ASSERT_FALSE(buf.has(blocks[b].lo - 1));
      }
    }
  }
}

/// Brute-force scoreboard reference for pipe accounting.
struct RefScoreboard {
  struct Flags {
    bool sacked = false, lost = false, rexmitted = false;
  };
  std::map<net::SeqNum, Flags> pkts;
  net::SeqNum una = 0, high = 0;

  std::int64_t pipe() const {
    std::int64_t p = 0;
    for (const auto& [s, f] : pkts) {
      if (f.sacked) continue;
      if (f.lost && !f.rexmitted) continue;
      ++p;
    }
    return p;
  }
  void detect(int dupthresh) {
    int above = 0;
    for (auto it = pkts.rbegin(); it != pkts.rend(); ++it) {
      if (it->second.sacked)
        ++above;
      else if (above >= dupthresh)
        it->second.lost = true;
    }
  }
};

class ScoreboardFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScoreboardFuzz, PipeMatchesBruteForce) {
  sim::Rng rng(GetParam());
  cc::Scoreboard sb;
  RefScoreboard ref;
  for (int step = 0; step < 4000; ++step) {
    const int action = static_cast<int>(rng.uniform_int(0, 3));
    if (action == 0 || ref.pkts.size() < 5) {  // send new
      sb.on_send(ref.high);
      ref.pkts[ref.high];
      ++ref.high;
    } else if (action == 1) {  // sack a random outstanding seq
      const auto idx = rng.uniform_int(0, static_cast<std::int64_t>(ref.pkts.size()) - 1);
      auto it = ref.pkts.begin();
      std::advance(it, idx);
      net::SackBlock b{it->first, it->first + 1};
      sb.apply_sack(&b, 1);
      it->second.sacked = true;
      sb.detect_losses(3);
      ref.detect(3);
    } else if (action == 2) {  // retransmit the next lost hole
      const net::SeqNum next = sb.next_to_retransmit();
      if (next != net::kNoSeq) {
        sb.on_retransmit(next);
        ref.pkts[next].rexmitted = true;
      }
    } else {  // cumulative advance past a random prefix
      const net::SeqNum adv =
          ref.una + rng.uniform_int(0, 3);
      // reference advance: must mimic "advance to first unreceived" loosely;
      // here we advance unconditionally like a cumulative ACK would.
      sb.advance(adv);
      while (!ref.pkts.empty() && ref.pkts.begin()->first < adv)
        ref.pkts.erase(ref.pkts.begin());
      ref.una = std::max(ref.una, adv);
    }
    ASSERT_EQ(sb.pipe(), ref.pipe()) << "step " << step;
    ASSERT_EQ(sb.outstanding(),
              static_cast<std::int64_t>(ref.high - ref.una))
        << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScoreboardFuzz,
                         ::testing::Values(10u, 20u, 30u));

}  // namespace
}  // namespace rlacast::tcp
