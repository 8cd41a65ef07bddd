// Reproduces §5.2: "Multiple Multicast Sessions".
//
// Two overlapping RLA sessions from the same sender node to the same 27
// receivers on the case-3 topology (all leaf links congested).  The paper
// reports throughputs of 65.1 / 65.9 pkt/s and average windows 19.9 / 20.1:
// near-perfect sharing.  This bench prints the same two rows and their
// ratio; `--replicates R --jobs N` repeats the scenario with derived seeds
// in parallel and `--json PATH` emits the batch.
#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "exp/runner.hpp"
#include "replay_support.hpp"
#include "stats/table.hpp"
#include "topo/tertiary_tree.hpp"

using namespace rlacast;

int main(int argc, char** argv) {
  bench::Options opt = bench::parse_options(argc, argv);
  if (opt.smoke) {
    // CI-sized pass for the golden-output regression guard
    // (tests/golden_bench_test.cmake): short run, full case list.
    opt.duration = 40.0;
    opt.warmup = 10.0;
  }
  bench::ReplayCoordinator replay("multisession", opt);
  bench::print_header("Section 5.2: two overlapping multicast sessions", opt);

  exp::Grid grid;
  grid.master_seed(opt.seed).replicates(opt.replicates);
  grid.add_case("two-sessions", exp::Point{}.set("sessions", std::int64_t{2}));

  const exp::RunFn run = [&](const exp::RunSpec& spec) {
    topo::TreeConfig cfg;
    cfg.bottleneck = topo::TreeCase::kL4All;
    cfg.gateway = topo::GatewayType::kDropTail;
    cfg.multicast_sessions =
        static_cast<int>(spec.point.get_int("sessions", 2));
    cfg.duration = opt.duration;
    cfg.warmup = opt.warmup;
    cfg.seed = spec.seed;
    auto session = replay.session(spec);
    cfg.instrument = session->instrument();
    const auto res = topo::run_tertiary_tree(cfg);
    session->finish();
    exp::Metrics m;
    for (std::size_t i = 0; i < res.rla.size(); ++i) {
      std::string p = "s";
      p += std::to_string(i + 1);
      const auto& r = res.rla[i];
      m.set(p + ".thrput_pps", r.throughput_pps);
      m.set(p + ".cwnd", r.avg_cwnd);
      m.set(p + ".rtt_s", r.avg_rtt);
      m.set(p + ".cong_signals", static_cast<double>(r.cong_signals));
      m.set(p + ".wnd_cuts", static_cast<double>(r.window_cuts));
    }
    m.set("thrput_ratio",
          res.rla[0].throughput_pps / res.rla[1].throughput_pps);
    return m;
  };

  if (replay.replay_mode()) return replay.run_replay(run);

  exp::RunnerOptions ropts = opt.runner_options();
  replay.configure_runner(ropts);
  exp::Runner runner(ropts);
  const exp::Results results = runner.run(grid, run);
  const exp::RunResult* rep0 = results.replicate0("two-sessions");
  if (!rep0) {
    std::fprintf(stderr, "run failed: %s\n",
                 results.runs().empty() ? "no runs"
                                        : results.runs()[0].error.c_str());
    return 1;
  }

  stats::Table t({"session", "thrput (pkt/s)", "cwnd", "RTT (s)",
                  "#cong signals", "#wnd cut"});
  for (int i = 1; i <= 2; ++i) {
    std::string p = "s";
    p += std::to_string(i);
    t.add_row({std::to_string(i),
               stats::Table::num(rep0->metrics.get(p + ".thrput_pps")),
               stats::Table::num(rep0->metrics.get(p + ".cwnd")),
               stats::Table::num(rep0->metrics.get(p + ".rtt_s"), 3),
               std::to_string(static_cast<std::uint64_t>(
                   rep0->metrics.get(p + ".cong_signals"))),
               std::to_string(static_cast<std::uint64_t>(
                   rep0->metrics.get(p + ".wnd_cuts")))});
  }
  std::printf("%s\n", t.render().c_str());

  const double ratio = rep0->metrics.get("thrput_ratio");
  std::printf("throughput ratio session1/session2 = %.3f (paper: ~0.99)\n",
              ratio);
  std::printf("multicast fairness: %s\n",
              std::abs(std::log(ratio)) < std::log(1.3)
                  ? "sessions share equally (within 30%)"
                  : "WARNING: sessions diverge");
  const bool io_ok = bench::finish_grid_output("multisession", opt, results,
                            runner.last_wall_seconds(),
                            {{"topology", "L4All"}, {"sessions", "2"}});
  return (results.num_errors() || !io_ok) ? 1 : 0;
}
