// Robustness curves: bounded fairness when the network itself misbehaves.
//
// Three sweeps on the Figure-6 tertiary tree (27 receivers, one background
// TCP per receiver, L1 bottleneck), for drop-tail AND RED gateways:
//
//   loss   — Bernoulli wire loss on every 100 ms leaf link, rates 0..5%:
//            fairness ratio (RLA/WTCP) vs loss rate. Non-congestion loss
//            feeds the same SACK/census machinery as congestion loss, so
//            this measures how far random corruption drags the session
//            below its Theorem I/II band.
//   burst  — a Gilbert–Elliott bursty channel (802.11-style) at matched
//            average loss, to separate burstiness from rate.
//   churn  — exponential leave/rejoin membership churn at mean intervals
//            60/30/10 s: fairness vs churn rate.
//   silent — one receiver crashes mid-run (keeps receiving, never ACKs);
//            the sender sheds it via silent_drop_after and the watchdog
//            verifies no invariant breaks and the window never freezes.
//   kexp   — generalized-pthresh exponent sweep under 2% Bernoulli wire
//            loss, on a heterogeneous-RTT tree (leaf delays 100..200 ms;
//            with equal RTTs the exponent cancels): f(x) = x^k for k in
//            {0, 0.5, 1, 2, 4} (k = 0 is the paper's equal-RTT RLA).
//            Random loss inflates the troubled census symmetrically, so
//            the question is whether any k recovers the Theorem I/II band
//            that the plain loss sweep loses — or whether the exponent
//            only redistributes cuts across RTT classes without changing
//            the aggregate rate.
//
// Exp-runner based: `--jobs N`, `--replicates R`, `--json PATH`,
// `--timeout S` (each run forks; an overdue one is SIGKILLed into a
// timed_out row), `--smoke` (CI-sized subset).
// Results tables live in EXPERIMENTS.md.
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "exp/runner.hpp"
#include "model/formulas.hpp"
#include "replay_support.hpp"
#include "topo/tertiary_tree.hpp"

using namespace rlacast;

namespace {

exp::Metrics tree_metrics(const std::string&, const topo::TreeResult& res) {
  exp::Metrics m;
  m.set("rla.thrput_pps", res.rla[0].throughput_pps);
  m.set("wtcp.thrput_pps", res.worst_tcp().throughput_pps);
  m.set("btcp.thrput_pps", res.best_tcp().throughput_pps);
  const double ratio = res.worst_tcp().throughput_pps > 0.0
                           ? res.rla[0].throughput_pps /
                                 res.worst_tcp().throughput_pps
                           : 0.0;
  m.set("fairness_ratio", ratio);
  m.set("rla.cwnd", res.rla[0].avg_cwnd);
  m.set("rla.signals", static_cast<double>(res.rla[0].cong_signals));
  m.set("rla.wnd_cuts", static_cast<double>(res.rla[0].window_cuts));
  m.set("rla.forced_cuts", static_cast<double>(res.rla[0].forced_cuts));
  m.set("fault.wire_losses", static_cast<double>(res.fault_wire_losses));
  m.set("fault.duplicates", static_cast<double>(res.fault_duplicates));
  m.set("churn.leaves", static_cast<double>(res.churn_leaves));
  m.set("churn.joins", static_cast<double>(res.churn_joins));
  m.set("rla.silent_drops", static_cast<double>(res.rla_silent_drops));
  m.set("rla.active_final", static_cast<double>(res.active_receivers_final));
  m.set("watchdog_ok", res.watchdog_ok ? 1.0 : 0.0);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options opt = bench::parse_options(argc, argv);
  if (opt.smoke) {
    // CI-sized pass: short runs, thinned sweep, but every scenario kind.
    opt.duration = 80.0;
    opt.warmup = 20.0;
  }
  bench::ReplayCoordinator replay("robustness", opt);
  bench::print_header(
      "Robustness: fairness under loss, bursty channels, churn, and crashes",
      opt);

  const char* gateways[] = {"droptail", "red"};
  const double loss_rates_full[] = {0.0, 0.005, 0.01, 0.02, 0.05};
  const double loss_rates_smoke[] = {0.0, 0.02};
  const double churn_means_full[] = {60.0, 30.0, 10.0};
  const double churn_means_smoke[] = {30.0};
  const double kexp_full[] = {0.0, 0.5, 1.0, 2.0, 4.0};
  const double kexp_smoke[] = {0.0, 2.0};

  exp::Grid grid;
  grid.master_seed(opt.seed).replicates(opt.replicates);
  for (const char* gw : gateways) {
    const auto* loss = opt.smoke ? loss_rates_smoke : loss_rates_full;
    const std::size_t n_loss =
        opt.smoke ? std::size(loss_rates_smoke) : std::size(loss_rates_full);
    for (std::size_t i = 0; i < n_loss; ++i)
      grid.add_case(std::string("loss-") + gw,
                    exp::Point{}.set("gw", gw).set("loss", loss[i]));
    grid.add_case(std::string("burst-") + gw,
                  exp::Point{}.set("gw", gw).set("ge", "1"));
    const auto* churn = opt.smoke ? churn_means_smoke : churn_means_full;
    const std::size_t n_churn = opt.smoke ? std::size(churn_means_smoke)
                                          : std::size(churn_means_full);
    for (std::size_t i = 0; i < n_churn; ++i)
      grid.add_case(std::string("churn-") + gw,
                    exp::Point{}.set("gw", gw).set("mean", churn[i]));
    grid.add_case(std::string("silent-") + gw,
                  exp::Point{}.set("gw", gw).set("silent", "1"));
    const auto* kexp = opt.smoke ? kexp_smoke : kexp_full;
    const std::size_t n_kexp =
        opt.smoke ? std::size(kexp_smoke) : std::size(kexp_full);
    for (std::size_t i = 0; i < n_kexp; ++i)
      grid.add_case(std::string("kexp-") + gw, exp::Point{}
                                                   .set("gw", gw)
                                                   .set("k", kexp[i])
                                                   .set("loss", 0.02));
  }

  const exp::RunFn run = [&](const exp::RunSpec& spec) {
    topo::TreeConfig cfg;
    cfg.bottleneck = topo::TreeCase::kL1;
    cfg.gateway = spec.point.get("gw", "droptail") == "red"
                      ? topo::GatewayType::kRed
                      : topo::GatewayType::kDropTail;
    cfg.duration = opt.duration;
    cfg.warmup = opt.warmup;
    cfg.seed = spec.seed;
    cfg.watchdog = true;

    const double loss = spec.point.get_double("loss", 0.0);
    if (loss > 0.0) cfg.leaf_fault.loss_p = loss;
    if (spec.point.has("ge")) {
      // Bursty channel at ~1% average loss: Bad dwell ~5 packets, in the
      // Bad state 1/20 of the time, loss 0.2 while Bad.
      cfg.leaf_fault.ge.p_good_to_bad = 0.01;
      cfg.leaf_fault.ge.p_bad_to_good = 0.2;
      cfg.leaf_fault.ge.loss_bad = 0.2;
    }
    const double churn_mean = spec.point.get_double("mean", 0.0);
    if (churn_mean > 0.0) {
      cfg.churn_mean_interval = churn_mean;
      cfg.churn_rejoin_after = 5.0;
    }
    const double kexp = spec.point.get_double("k", -1.0);
    if (kexp >= 0.0) {
      cfg.rla.rtt_exponent = kexp;
      // Heterogeneous leaf RTTs (100..200 ms): on the homogeneous tree
      // srtt_i == srtt_max and f(x) = x^k is a no-op for every k.
      cfg.leaf_delay_spread = 1.0;
    }
    if (spec.point.has("silent")) {
      cfg.silent_receiver = 0;
      cfg.silent_at = cfg.warmup + 0.25 * (cfg.duration - cfg.warmup);
      cfg.rla.silent_drop_after = 10.0;
    }

    auto session = replay.session(spec);
    cfg.instrument = session->instrument();
    const auto res = topo::run_tertiary_tree(cfg);
    session->finish();
    if (!res.watchdog_ok)
      throw std::runtime_error("watchdog: " + res.watchdog_report);
    return tree_metrics(spec.name, res);
  };
  if (replay.replay_mode()) return replay.run_replay(run);

  exp::RunnerOptions ropts = opt.runner_options();
  replay.configure_runner(ropts);
  exp::Runner runner(ropts);
  const exp::Results results = runner.run(grid, run);

  // --- fairness-vs-impairment tables -------------------------------------
  const auto t2 = model::theorem2_droptail_bounds(27);
  const auto t1 = model::theorem1_red_bounds(27);
  std::printf("theorem bands, n=27: drop-tail (%.2f, %.0f)  RED (%.2f, %.1f)\n\n",
              t2.lo, t2.hi, t1.lo, t1.hi);
  std::printf("%-16s %-26s %10s %10s %8s\n", "case", "params", "RLA/WTCP",
              "RLA pps", "in-band");
  for (const auto& r : results.runs()) {
    if (r.spec.replicate != 0) continue;
    if (!r.ok) {
      std::printf("%-16s %-26s  FAILED: %s\n", r.spec.name.c_str(),
                  r.spec.point.id().c_str(), r.error.c_str());
      continue;
    }
    const double ratio = r.metrics.get("fairness_ratio", 0.0);
    const bool red = r.spec.point.get("gw", "") == "red";
    const auto& band = red ? t1 : t2;
    std::printf("%-16s %-26s %10.2f %10.1f %8s\n", r.spec.name.c_str(),
                r.spec.point.id().c_str(), ratio,
                r.metrics.get("rla.thrput_pps", 0.0),
                band.contains(ratio) ? "yes" : "NO");
  }

  // --- pthresh-exponent verdict -------------------------------------------
  // Does any f(x) = x^k recover the band under 2% wire loss?
  for (const char* gw : gateways) {
    int inband = 0, total = 0;
    double best_ratio = 0.0, best_k = 0.0;
    const auto& band = std::string(gw) == "red" ? t1 : t2;
    for (const auto& r : results.runs()) {
      if (r.spec.replicate != 0 || !r.ok) continue;
      if (r.spec.name != std::string("kexp-") + gw) continue;
      ++total;
      const double ratio = r.metrics.get("fairness_ratio", 0.0);
      if (band.contains(ratio)) ++inband;
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best_k = r.spec.point.get_double("k", 0.0);
      }
    }
    if (total > 0)
      std::printf(
          "\nkexp verdict (%s, 2%% wire loss, leaf RTTs 100-200ms): "
          "%d/%d exponents in band; best ratio %.2f at k=%g\n",
          gw, inband, total, best_ratio, best_k);
  }

  // --- robustness outcome summary ----------------------------------------
  std::printf("\nrobustness outcomes (replicate 0):\n");
  for (const auto& r : results.runs()) {
    if (r.spec.replicate != 0 || !r.ok) continue;
    const double wl = r.metrics.get("fault.wire_losses", 0.0);
    const double lv = r.metrics.get("churn.leaves", 0.0);
    const double sd = r.metrics.get("rla.silent_drops", 0.0);
    if (wl == 0.0 && lv == 0.0 && sd == 0.0) continue;
    std::printf(
        "  %-16s %-26s wire_losses=%.0f leaves=%.0f joins=%.0f "
        "silent_drops=%.0f active=%.0f watchdog=%s\n",
        r.spec.name.c_str(), r.spec.point.id().c_str(), wl, lv,
        r.metrics.get("churn.joins", 0.0), sd,
        r.metrics.get("rla.active_final", 0.0),
        r.metrics.get("watchdog_ok", 0.0) > 0.0 ? "ok" : "VIOLATED");
  }

  const bool io_ok =
      bench::finish_grid_output("robustness", opt, results,
                                runner.last_wall_seconds(), {});
  return (results.num_errors() || !io_ok) ? 1 : 0;
}
