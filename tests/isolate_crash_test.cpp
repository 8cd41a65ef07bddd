// Tests for the fork-based crash sandbox (exp/sandbox.hpp) and its runner
// integration (--isolate): a SIGSEGV'd run becomes a contained crashed=true
// row with a crash report while the sweep completes; timeouts are SIGKILLed
// and classified separately; and rlimits bound runaway children.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "exp/runner.hpp"
#include "exp/sandbox.hpp"
#include "exp/spec.hpp"

// Fork-based sandboxing interacts badly with sanitizer runtimes (TSan
// refuses fork-from-threaded, ASan intercepts the crash signals), so the
// sandbox tests skip themselves under either.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define RLACAST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define RLACAST_SANITIZED 1
#endif
#endif

namespace rlacast {
namespace {

exp::Grid crashy_grid() {
  exp::Grid g;
  g.master_seed(3).replicates(1);
  g.add_case("ok-before", exp::Point{}.set("mode", "ok"));
  g.add_case("boom", exp::Point{}.set("mode", "segv"));
  g.add_case("ok-after", exp::Point{}.set("mode", "ok"));
  return g;
}

/// Scenario with per-case failure modes, selected by the spec point.
exp::Metrics crashy_scenario(const exp::RunSpec& spec) {
  const std::string mode = spec.point.get("mode", "ok");
  if (mode == "segv") std::raise(SIGSEGV);
  if (mode == "spin") {
    for (;;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  exp::Metrics m;
  m.set("value", static_cast<double>(spec.seed));
  return m;
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

TEST(Sandbox, CompletedRunDeliversMetricsThroughThePipe) {
#ifdef RLACAST_SANITIZED
  GTEST_SKIP() << "fork sandbox is incompatible with sanitizer runtimes";
#endif
  exp::RunSpec spec;
  spec.name = "ok";
  spec.seed = 99;
  const exp::IsolateOutcome out =
      exp::run_isolated(crashy_scenario, spec, {}, /*timeout_seconds=*/0.0);
  EXPECT_TRUE(out.completed);
  EXPECT_TRUE(out.ok);
  EXPECT_FALSE(out.crashed);
  EXPECT_FALSE(out.timed_out);
  EXPECT_DOUBLE_EQ(out.metrics.get("value"), 99.0);
}

TEST(Sandbox, ChildExceptionBecomesErrorNotCrash) {
#ifdef RLACAST_SANITIZED
  GTEST_SKIP() << "fork sandbox is incompatible with sanitizer runtimes";
#endif
  exp::RunSpec spec;
  const exp::IsolateOutcome out = exp::run_isolated(
      [](const exp::RunSpec&) -> exp::Metrics {
        throw std::runtime_error("bad parameter");
      },
      spec, {}, 0.0);
  EXPECT_TRUE(out.completed);
  EXPECT_FALSE(out.ok);
  EXPECT_FALSE(out.crashed);
  EXPECT_EQ(out.error, "bad parameter");
}

TEST(Sandbox, SigsegvIsContainedAndClassified) {
#ifdef RLACAST_SANITIZED
  GTEST_SKIP() << "fork sandbox is incompatible with sanitizer runtimes";
#endif
  exp::RunSpec spec;
  spec.name = "boom";
  spec.point.set("mode", "segv");
  const exp::IsolateOutcome out =
      exp::run_isolated(crashy_scenario, spec, {}, 0.0);
  EXPECT_FALSE(out.completed);
  EXPECT_TRUE(out.crashed);
  EXPECT_FALSE(out.timed_out);
  EXPECT_EQ(out.term_signal, SIGSEGV);
  EXPECT_NE(out.describe().find("signal"), std::string::npos);
}

TEST(Sandbox, TimeoutIsKilledAndClassifiedSeparately) {
#ifdef RLACAST_SANITIZED
  GTEST_SKIP() << "fork sandbox is incompatible with sanitizer runtimes";
#endif
  exp::RunSpec spec;
  spec.point.set("mode", "spin");
  const exp::IsolateOutcome out =
      exp::run_isolated(crashy_scenario, spec, {}, /*timeout_seconds=*/0.3);
  EXPECT_TRUE(out.timed_out);
  EXPECT_FALSE(out.completed);
  EXPECT_FALSE(out.crashed);
}

TEST(Sandbox, CpuRlimitKillsARunawayChild) {
#ifdef RLACAST_SANITIZED
  GTEST_SKIP() << "fork sandbox is incompatible with sanitizer runtimes";
#endif
  exp::RunSpec spec;
  exp::IsolateLimits limits;
  limits.cpu_seconds = 1.0;
  const exp::IsolateOutcome out = exp::run_isolated(
      [](const exp::RunSpec&) -> exp::Metrics {
        volatile double x = 0.0;
        for (;;) x = x + 1.0;  // pure CPU burn, no sleeps
      },
      spec, limits, /*timeout_seconds=*/30.0);
  EXPECT_TRUE(out.crashed);
  EXPECT_FALSE(out.timed_out);
  EXPECT_TRUE(out.term_signal == SIGXCPU || out.term_signal == SIGKILL)
      << out.describe();
}

TEST(IsolateRunner, CrashedRunIsContainedAndSweepCompletes) {
#ifdef RLACAST_SANITIZED
  GTEST_SKIP() << "fork sandbox is incompatible with sanitizer runtimes";
#endif
  const std::string crash_dir =
      testing::TempDir() + "/isolate_crash_test_reports";
  std::filesystem::remove_all(crash_dir);

  exp::RunnerOptions opts;
  opts.isolate = true;
  opts.crash_dir = crash_dir;
  opts.crash_context = [](const exp::RunSpec& spec) {
    return "repro: bench_fake --replay journals/" + spec.name + ".journal";
  };
  exp::Runner runner(opts);
  const exp::Results results = runner.run(crashy_grid(), crashy_scenario);

  ASSERT_EQ(results.runs().size(), 3u);
  const exp::RunResult& before = results.runs()[0];
  const exp::RunResult& boom = results.runs()[1];
  const exp::RunResult& after = results.runs()[2];

  // The sweep survived the crash: both neighbours completed normally.
  EXPECT_TRUE(before.ok);
  EXPECT_TRUE(after.ok);
  EXPECT_DOUBLE_EQ(after.metrics.get("value"),
                   static_cast<double>(after.spec.seed));

  EXPECT_FALSE(boom.ok);
  EXPECT_TRUE(boom.crashed);
  EXPECT_EQ(boom.term_signal, SIGSEGV);
  ASSERT_FALSE(boom.crash_report.empty());
  EXPECT_EQ(boom.crash_report,
            crash_dir + "/" + boom.spec.file_stem() + ".crash.txt");

  const std::string report = read_file(boom.crash_report);
  EXPECT_NE(report.find("crash report: boom/mode=segv#0"), std::string::npos)
      << report;
  EXPECT_NE(report.find("signal"), std::string::npos) << report;
  EXPECT_NE(report.find("repro: bench_fake --replay"), std::string::npos)
      << report;

  // The crash columns reach results.json.
  const std::string json = results.to_json("crash-test", 3, 1, 1, 0.0);
  EXPECT_NE(json.find("\"crashed\":true"), std::string::npos);
  EXPECT_NE(json.find("\"crash_report\":"), std::string::npos);

  std::filesystem::remove_all(crash_dir);
}

TEST(IsolateRunner, NoCrashDirMeansNoReportButStillContained) {
#ifdef RLACAST_SANITIZED
  GTEST_SKIP() << "fork sandbox is incompatible with sanitizer runtimes";
#endif
  exp::RunnerOptions opts;
  opts.isolate = true;  // crash_dir left empty
  exp::Runner runner(opts);
  const exp::Results results = runner.run(crashy_grid(), crashy_scenario);
  ASSERT_EQ(results.runs().size(), 3u);
  EXPECT_TRUE(results.runs()[1].crashed);
  EXPECT_TRUE(results.runs()[1].crash_report.empty());
  EXPECT_TRUE(results.runs()[2].ok);
}

}  // namespace
}  // namespace rlacast
