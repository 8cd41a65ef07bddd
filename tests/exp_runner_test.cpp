// Tests for the exp/ experiment-runner subsystem: grid expansion order,
// deterministic seed derivation (thread-count and order independent),
// jobs=1 vs jobs=8 bit-identical results, exception capture as error rows,
// the sandbox-backed per-run timeout, replicate aggregation math, the
// results.json emitter, run file stems, and the bench flags that configure
// the runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include <fcntl.h>
#include <sys/stat.h>

#include "common.hpp"
#include "exp/runner.hpp"
#include "exp/results.hpp"
#include "exp/spec.hpp"
#include "sim/random.hpp"
#include "topo/tertiary_tree.hpp"

namespace rlacast {
namespace {

exp::Grid three_case_grid(int replicates, std::uint64_t seed) {
  exp::Grid g;
  g.master_seed(seed).replicates(replicates);
  g.add_case("alpha", exp::Point{}.set("x", std::int64_t{1}));
  g.add_case("beta", exp::Point{}.set("x", std::int64_t{2}));
  g.add_case("gamma", exp::Point{}.set("x", std::int64_t{3}));
  return g;
}

/// Deterministic pseudo-workload: metrics are a pure function of the spec.
exp::Metrics fake_scenario(const exp::RunSpec& spec) {
  sim::Rng rng(spec.seed);
  exp::Metrics m;
  m.set("value", rng.uniform() + spec.point.get_double("x", 0.0));
  m.set("draw2", rng.uniform());
  return m;
}

TEST(ExpSpec, PointRoundTripsAndFormatsId) {
  exp::Point p;
  p.set("gateway", "red").set("share", 100.0).set("n", std::int64_t{27});
  EXPECT_EQ(p.id(), "gateway=red,share=100,n=27");
  EXPECT_EQ(p.get("gateway"), "red");
  EXPECT_DOUBLE_EQ(p.get_double("share", 0.0), 100.0);
  EXPECT_EQ(p.get_int("n", 0), 27);
  EXPECT_EQ(p.get_int("absent", -1), -1);
  p.set("gateway", "droptail");  // overwrite keeps position
  EXPECT_EQ(p.id(), "gateway=droptail,share=100,n=27");
}

TEST(ExpSpec, FileStemKeepsOnlyPortableCharacters) {
  exp::RunSpec spec;
  spec.name = "L4 some";
  spec.point.set("gw", "red").set("share", 12.5);
  spec.replicate = 3;
  EXPECT_EQ(spec.id(), "L4 some/gw=red,share=12.5#3");
  // '/', ' ', '=', ',' and '#' become '_'; letters, digits, '.', '-' and
  // '_' stay, so crash reports and journals share one flat-directory stem.
  EXPECT_EQ(spec.file_stem(), "L4_some_gw_red_share_12.5_3");
  spec.name = "a-b_c.d";
  spec.point = {};
  EXPECT_EQ(spec.file_stem(), "a-b_c.d_3");
}

TEST(BenchOptions, IsolateLimitsReachRunsForkedByTimeout) {
  // --timeout forks every run, so the rlimits must reach those children
  // too, not only --isolate ones.
  const char* argv[] = {"bench",         "--timeout", "30", "--isolate-cpu",
                        "2",             "--isolate-mem", "512"};
  const bench::Options opt = bench::parse_options(
      static_cast<int>(std::size(argv)), const_cast<char**>(argv));
  const exp::RunnerOptions r = opt.runner_options();
  EXPECT_FALSE(r.isolate);
  EXPECT_DOUBLE_EQ(r.timeout_seconds, 30.0);
  EXPECT_DOUBLE_EQ(r.isolate_cpu_seconds, 2.0);
  EXPECT_EQ(r.isolate_mem_mb, 512u);
  EXPECT_TRUE(r.crash_dir.empty());  // crash reports stay an --isolate feature
}

TEST(ExpSpec, GridExpansionIsCasesMajorReplicatesMinor) {
  const auto runs = three_case_grid(/*replicates=*/2, /*seed=*/7).expand();
  ASSERT_EQ(runs.size(), 6u);
  EXPECT_EQ(runs[0].id(), "alpha/x=1#0");
  EXPECT_EQ(runs[1].id(), "alpha/x=1#1");
  EXPECT_EQ(runs[2].id(), "beta/x=2#0");
  EXPECT_EQ(runs[5].id(), "gamma/x=3#1");
  for (std::size_t i = 0; i < runs.size(); ++i) EXPECT_EQ(runs[i].index, i);
}

TEST(ExpSpec, Replicate0UsesMasterSeedForLegacyCompat) {
  const auto runs = three_case_grid(/*replicates=*/3, /*seed=*/42).expand();
  for (const auto& r : runs) {
    if (r.replicate == 0) {
      EXPECT_EQ(r.seed, 42u) << r.id();
    }
  }
}

TEST(ExpSpec, DerivedSeedsAreDistinctAndStable) {
  const auto runs = three_case_grid(/*replicates=*/4, /*seed=*/42).expand();
  std::set<std::uint64_t> nonzero_rep_seeds;
  for (const auto& r : runs) {
    if (r.replicate > 0) nonzero_rep_seeds.insert(r.seed);
    // Derivation depends only on run identity, not on grid layout.
    EXPECT_EQ(r.seed, exp::derive_seed(42, r.name, r.point, r.replicate));
  }
  EXPECT_EQ(nonzero_rep_seeds.size(), 9u);  // 3 cases x 3 derived replicates

  // Changing the master seed moves every derived seed.
  EXPECT_NE(exp::derive_seed(42, "alpha", {}, 1),
            exp::derive_seed(43, "alpha", {}, 1));
  // Case name and point are part of the identity.
  EXPECT_NE(exp::derive_seed(42, "alpha", {}, 1),
            exp::derive_seed(42, "beta", {}, 1));
  EXPECT_NE(exp::derive_seed(42, "alpha", exp::Point{}.set("x", "1"), 1),
            exp::derive_seed(42, "alpha", exp::Point{}.set("x", "2"), 1));
}

TEST(ExpRunner, Jobs1AndJobs8ProduceIdenticalResults) {
  const auto grid = three_case_grid(/*replicates=*/4, /*seed=*/11);

  exp::RunnerOptions serial;
  serial.jobs = 1;
  exp::RunnerOptions parallel;
  parallel.jobs = 8;

  const auto r1 = exp::Runner(serial).run(grid, fake_scenario);
  const auto r8 = exp::Runner(parallel).run(grid, fake_scenario);

  ASSERT_EQ(r1.runs().size(), r8.runs().size());
  for (std::size_t i = 0; i < r1.runs().size(); ++i) {
    const auto& a = r1.runs()[i];
    const auto& b = r8.runs()[i];
    EXPECT_EQ(a.spec.id(), b.spec.id()) << i;
    EXPECT_EQ(a.spec.seed, b.spec.seed) << i;
    EXPECT_TRUE(a.ok);
    EXPECT_TRUE(b.ok);
    // Bit-identical metric rows (names, order, and exact double values).
    EXPECT_TRUE(a.metrics == b.metrics) << a.spec.id();
  }
}

TEST(ExpRunner, ThrowingRunBecomesErrorRowWithoutKillingBatch) {
  const auto grid = three_case_grid(/*replicates=*/2, /*seed=*/5);
  exp::RunnerOptions opts;
  opts.jobs = 4;
  const auto results =
      exp::Runner(opts).run(grid, [](const exp::RunSpec& spec) {
        if (spec.name == "beta" && spec.replicate == 1)
          throw std::runtime_error("synthetic failure");
        return fake_scenario(spec);
      });

  ASSERT_EQ(results.runs().size(), 6u);
  EXPECT_EQ(results.num_errors(), 1u);
  for (const auto& r : results.runs()) {
    if (r.spec.name == "beta" && r.spec.replicate == 1) {
      EXPECT_FALSE(r.ok);
      EXPECT_EQ(r.error, "synthetic failure");
      EXPECT_TRUE(r.metrics.empty());
    } else {
      EXPECT_TRUE(r.ok) << r.spec.id();
      EXPECT_FALSE(r.metrics.empty());
    }
  }
  // The errored replicate is excluded from its case aggregate.
  for (const auto& agg : results.aggregate()) {
    if (agg.name == "beta") {
      EXPECT_EQ(agg.n_ok, 1u);
      EXPECT_EQ(agg.n_error, 1u);
    } else {
      EXPECT_EQ(agg.n_ok, 2u);
      EXPECT_EQ(agg.n_error, 0u);
    }
  }
}

TEST(ExpRunner, ManyMoreRunsThanThreadsAllComplete) {
  exp::Grid g;
  g.master_seed(3).replicates(25);
  g.add_case("only");
  exp::RunnerOptions opts;
  opts.jobs = 8;
  std::atomic<int> calls{0};
  const auto results = exp::Runner(opts).run(g, [&](const exp::RunSpec& s) {
    calls.fetch_add(1);
    return fake_scenario(s);
  });
  EXPECT_EQ(calls.load(), 25);
  EXPECT_EQ(results.runs().size(), 25u);
  EXPECT_EQ(results.num_errors(), 0u);
}

TEST(ExpResults, AggregateComputesMeanStddevAndCi) {
  std::vector<exp::RunResult> runs;
  const double values[] = {10.0, 12.0, 14.0};  // mean 12, stddev 2
  for (int i = 0; i < 3; ++i) {
    exp::RunResult r;
    r.spec.name = "case";
    r.spec.replicate = i;
    r.ok = true;
    r.metrics.set("v", values[i]);
    runs.push_back(std::move(r));
  }
  const auto aggs = exp::Results(std::move(runs)).aggregate();
  ASSERT_EQ(aggs.size(), 1u);
  ASSERT_EQ(aggs[0].metrics.size(), 1u);
  const auto& m = aggs[0].metrics[0];
  EXPECT_EQ(m.name, "v");
  EXPECT_EQ(m.n, 3u);
  EXPECT_DOUBLE_EQ(m.mean, 12.0);
  EXPECT_DOUBLE_EQ(m.stddev, 2.0);
  // t_{0.975,2} * s / sqrt(3) = 4.303 * 2 / 1.732...
  EXPECT_NEAR(m.ci95, 4.303 * 2.0 / std::sqrt(3.0), 1e-9);
}

TEST(ExpResults, JsonContainsSchemaFieldsAndEscapes) {
  std::vector<exp::RunResult> runs;
  exp::RunResult ok;
  ok.spec.name = "quoted\"name";
  ok.spec.point.set("k", "v");
  ok.spec.seed = 9;
  ok.ok = true;
  ok.metrics.set("thrput", 123.5);
  runs.push_back(ok);
  exp::RunResult bad;
  bad.spec.name = "boom";
  bad.spec.replicate = 1;
  bad.ok = false;
  bad.error = "line1\nline2";
  runs.push_back(bad);

  const std::string json = exp::Results(std::move(runs))
                               .to_json("unit", 7, 2, 4, 1.25, {{"d", "40"}});
  EXPECT_NE(json.find("\"experiment\":\"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"master_seed\":7"), std::string::npos);
  EXPECT_NE(json.find("\"replicates\":2"), std::string::npos);
  EXPECT_NE(json.find("\"jobs\":4"), std::string::npos);
  EXPECT_NE(json.find("\"quoted\\\"name\""), std::string::npos);
  EXPECT_NE(json.find("\"thrput\":123.5"), std::string::npos);
  EXPECT_NE(json.find("\"error\":\"line1\\nline2\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_seconds_total\":1.25"), std::string::npos);
  EXPECT_NE(json.find("\"aggregates\""), std::string::npos);
  // Structurally balanced braces/brackets (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// The fork sandbox is the runner's one hard timeout: timeout_seconds alone
// (isolate off) forks each run, and the wedged child is SIGKILLed at the
// limit while the other runs complete.
TEST(ExpRunner, WedgedRunIsKilledByTimeoutWithoutBlockingOthers) {
  exp::Grid g;
  g.master_seed(4).replicates(1);
  g.add_case("wedged");
  g.add_case("fine-1");
  g.add_case("fine-2");
  exp::RunnerOptions opts;
  opts.jobs = 2;
  opts.timeout_seconds = 0.2;
  exp::Runner runner(opts);

  const auto results = runner.run(g, [](const exp::RunSpec& s) {
    if (s.name == "wedged") std::this_thread::sleep_for(std::chrono::seconds(30));
    return fake_scenario(s);
  });

  ASSERT_EQ(results.runs().size(), 3u);
  EXPECT_EQ(results.num_errors(), 1u);
  for (const auto& r : results.runs()) {
    if (r.spec.name == "wedged") {
      EXPECT_FALSE(r.ok);
      EXPECT_TRUE(r.timed_out);
      EXPECT_FALSE(r.crashed);
      EXPECT_EQ(r.term_signal, SIGKILL);
      EXPECT_TRUE(r.metrics.empty());
      EXPECT_NE(r.error.find("timeout"), std::string::npos) << r.error;
    } else {
      EXPECT_TRUE(r.ok) << r.spec.id();
      EXPECT_FALSE(r.timed_out);
      EXPECT_EQ(r.metrics, fake_scenario(r.spec)) << r.spec.id();
    }
  }
  // run() reaps every child before it returns, so a batch that ends long
  // before the 30 s wedge had its wedged child killed, not waited out.
  EXPECT_LT(runner.last_wall_seconds(), 15.0);
  const std::string json =
      exp::Results(results.runs()).to_json("unit", 4, 1, 2, 0.0, {});
  EXPECT_NE(json.find("\"timed_out\":true"), std::string::npos);
}

/// Open descriptors of this process that are the write end of a pipe.
int pipe_write_ends() {
  int n = 0;
  for (int fd = 3; fd < 1024; ++fd) {
    struct stat st;
    if (::fstat(fd, &st) != 0 || !S_ISFIFO(st.st_mode)) continue;
    if ((::fcntl(fd, F_GETFL) & O_ACCMODE) == O_WRONLY) ++n;
  }
  return n;
}

// Workers fork concurrently. A child forked while another worker still
// holds the write end of its result pipe would inherit that end, and the
// other worker would then see no EOF until the child exits: beside a
// wedged child, a quick run would wait out its own deadline and be
// recorded timed_out. Each quick child also counts the pipe write ends it
// holds, which must be the batch's baseline plus its own result pipe.
TEST(ExpRunner, QuickRunsBesideWedgedRunsNeverTimeOut) {
  exp::Grid g;
  g.master_seed(5).replicates(1);
  int wedged = 0;
  for (int i = 0; i < 200; ++i) {
    if (i % 50 == 25) {
      g.add_case("wedged-" + std::to_string(wedged++));
    } else {
      g.add_case("quick-" + std::to_string(i));
    }
  }
  exp::RunnerOptions opts;
  opts.jobs = 4;
  opts.timeout_seconds = 1.0;
  exp::Runner runner(opts);

  const int baseline = pipe_write_ends();
  const auto results = runner.run(g, [](const exp::RunSpec& s) {
    if (s.name.rfind("wedged", 0) == 0)
      std::this_thread::sleep_for(std::chrono::seconds(30));
    exp::Metrics m = fake_scenario(s);
    m.set("pipe_write_ends", pipe_write_ends());
    return m;
  });

  ASSERT_EQ(results.runs().size(), 200u);
  EXPECT_EQ(results.num_errors(), static_cast<std::size_t>(wedged));
  for (const auto& r : results.runs()) {
    if (r.spec.name.rfind("wedged", 0) == 0) {
      EXPECT_TRUE(r.timed_out) << r.spec.id();
    } else {
      EXPECT_TRUE(r.ok) << r.spec.id() << ": " << r.error;
      EXPECT_FALSE(r.timed_out) << r.spec.id();
      EXPECT_EQ(r.metrics.get("pipe_write_ends"), baseline + 1)
          << r.spec.id();
    }
  }
}

TEST(ExpResults, LegacyJsonHasNoRobustnessKeysWhenUnused) {
  std::vector<exp::RunResult> runs;
  exp::RunResult ok;
  ok.spec.name = "plain";
  ok.ok = true;
  ok.metrics.set("v", 1.0);
  runs.push_back(ok);
  const std::string json =
      exp::Results(std::move(runs)).to_json("unit", 1, 1, 1, 0.0, {});
  EXPECT_EQ(json.find("\"timed_out\""), std::string::npos);
}

// End-to-end: a real (tiny) tertiary-tree scenario through the pool is
// thread-count independent. This is the TSan target for the race gate.
TEST(ExpRunner, TreeScenarioIsThreadCountIndependent) {
  exp::Grid g;
  g.master_seed(1).replicates(2);
  g.add_case("L1", exp::Point{}.set(
                       "case", static_cast<std::int64_t>(topo::TreeCase::kL1)));
  g.add_case("L4All",
             exp::Point{}.set("case", static_cast<std::int64_t>(
                                          topo::TreeCase::kL4All)));

  const exp::RunFn run = [](const exp::RunSpec& spec) {
    topo::TreeConfig cfg;
    cfg.bottleneck =
        static_cast<topo::TreeCase>(spec.point.get_int("case", 0));
    cfg.duration = 12.0;
    cfg.warmup = 4.0;
    cfg.seed = spec.seed;
    const auto res = topo::run_tertiary_tree(cfg);
    exp::Metrics m;
    m.set("rla.thrput_pps", res.rla[0].throughput_pps);
    m.set("wtcp.thrput_pps", res.worst_tcp().throughput_pps);
    m.set("rla.signals", static_cast<double>(res.rla[0].cong_signals));
    return m;
  };

  exp::RunnerOptions serial;
  serial.jobs = 1;
  exp::RunnerOptions parallel;
  parallel.jobs = 4;
  const auto r1 = exp::Runner(serial).run(g, run);
  const auto r4 = exp::Runner(parallel).run(g, run);

  ASSERT_EQ(r1.runs().size(), 4u);
  ASSERT_EQ(r4.runs().size(), 4u);
  for (std::size_t i = 0; i < r1.runs().size(); ++i) {
    EXPECT_TRUE(r1.runs()[i].ok);
    EXPECT_TRUE(r1.runs()[i].metrics == r4.runs()[i].metrics)
        << r1.runs()[i].spec.id();
  }
}

}  // namespace
}  // namespace rlacast
