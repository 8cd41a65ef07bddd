// Golden pin for the scenario runners that no figure bench covers.
//
// Runs a handful of short, fixed-seed flat-tree and big-tree scenarios (plus
// one tertiary tree with every robustness layer armed at once) and prints
// every result field as a C99 hex float or an integer, so the SHA-256 of
// stdout changes on any bit of drift. tests/golden_bench_test.cmake runs it
// with --smoke and compares against tests/golden/topo_golden.sha256;
// tools/regen_golden.sh rewrites that hash after an intentional change.
//
// Usage: topo_golden --smoke
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "topo/big_tree.hpp"
#include "topo/flat_tree.hpp"
#include "topo/tertiary_tree.hpp"

namespace rlacast::topo {
namespace {

void print_row(const char* label, const FlowRow& r) {
  std::printf("  %s thr=%a cwnd=%a rtt=%a sig=%" PRIu64 " cuts=%" PRIu64
              " forced=%" PRIu64 " to=%" PRIu64 "\n",
              label, r.throughput_pps, r.avg_cwnd, r.avg_rtt, r.cong_signals,
              r.window_cuts, r.forced_cuts, r.timeouts);
}

void print_rows(const char* label, const std::vector<FlowRow>& rows) {
  for (std::size_t i = 0; i < rows.size(); ++i)
    print_row((label + std::to_string(i)).c_str(), rows[i]);
}

template <typename T>
void print_u64s(const char* label, const std::vector<T>& v) {
  std::printf("  %s", label);
  for (const T x : v) std::printf(" %" PRIu64, static_cast<std::uint64_t>(x));
  std::printf("\n");
}

void print_doubles(const char* label, const std::vector<double>& v) {
  std::printf("  %s", label);
  for (const double x : v) std::printf(" %a", x);
  std::printf("\n");
}

void print_fairness(const std::vector<stats::FairnessSample>& samples,
                    double min_jain, double mean_jain) {
  std::printf("  jain min=%a mean=%a windows=%zu\n", min_jain, mean_jain,
              samples.size());
  for (const auto& s : samples) {
    std::printf("  window t=%a jain=%a counted=%d limited=%d", s.t_end, s.jain,
                s.flows_counted, s.flows_app_limited);
    for (const double x : s.throughput_pps) std::printf(" %a", x);
    std::printf("\n");
  }
}

void run_flat(const char* name, const FlatTreeConfig& cfg) {
  const FlatTreeResult r = run_flat_tree(cfg);
  std::printf("flat %s\n", name);
  print_row("rla", r.rla);
  print_rows("tcp", r.tcps);
  print_u64s("tcp_branch", r.tcp_branch);
  print_u64s("rla_signals", r.rla_signals_per_receiver);
  print_doubles("drop_rate", r.bottleneck_drop_rate);
  std::printf("  rexmits mcast=%a ucast=%a troubled=%d\n", r.rla_mcast_rexmits,
              r.rla_ucast_rexmits, r.num_troubled_final);
  print_fairness(r.fairness_samples, r.min_jain, r.mean_jain);
}

void run_big(const char* name, const BigTreeConfig& cfg) {
  const BigTreeResult r = run_big_tree(cfg);
  std::printf("big %s\n", name);
  print_row("rla", r.rla);
  print_rows("tcp", r.tcps);
  std::printf("  nodes=%d groups=%d drop_rate=%a offpath_drops=%" PRIu64 "\n",
              r.nodes, r.groups, r.bottleneck_drop_rate, r.offpath_drops);
  std::printf("  events=%" PRIu64 " acks=%" PRIu64 " mcast=%" PRIu64
              " ucast=%" PRIu64 " troubled=%d active=%d wdq=%" PRIu64 "\n",
              r.events, r.acks, r.mcast_rexmits, r.ucast_rexmits,
              r.troubled_final, r.active_final, r.watchdog_quarantines);
  std::printf("  state_bytes=%zu hiwater=%zu baseline=%zu"
              " materialized=%zu/%zu\n",
              r.sender_state_bytes, r.sender_state_bytes_hiwater,
              r.baseline_state_bytes, r.materialized_final,
              r.materialized_hiwater);
}

void run_tree(const char* name, const TreeConfig& cfg) {
  const TreeResult r = run_tertiary_tree(cfg);
  std::printf("tree %s\n", name);
  print_rows("rla", r.rla);
  print_rows("tcp", r.tcps);
  print_u64s("rla_signals", r.rla_signals_per_receiver);
  print_u64s("tcp_signals", r.tcp_signals);
  print_u64s("congested", r.receiver_congested);
  print_doubles("drop_rate", r.bottleneck_drop_rate);
  std::printf("  troubled=%d mcast=%" PRIu64 " ucast=%" PRIu64 "\n",
              r.num_troubled_final, r.rla_mcast_rexmits, r.rla_ucast_rexmits);
  for (const auto& row : r.window_samples) print_doubles("cwnd", row);
  std::printf("  faults loss=%" PRIu64 " outage=%" PRIu64 " dup=%" PRIu64
              " churn=%" PRIu64 "/%" PRIu64 " silent=%" PRIu64 " active=%d\n",
              r.fault_wire_losses, r.fault_outage_drops, r.fault_duplicates,
              r.churn_leaves, r.churn_joins, r.rla_silent_drops,
              r.active_receivers_final);
  std::printf("  watchdog ok=%d report=\"%s\"\n", r.watchdog_ok ? 1 : 0,
              r.watchdog_report.c_str());
  std::printf("  failover=%" PRIu64 "/%" PRIu64 " rerouted=%" PRIu64
              " excise=%" PRIu64 "/%" PRIu64 " ramp=%" PRIu64
              " episodes=%zu t=%a/%a goodput=%a\n",
              r.failover_events, r.failover_reverts, r.packets_rerouted,
              r.subtree_excisions, r.subtree_readmissions, r.ramp_rexmits,
              r.subtree_events.size(), r.time_to_excise, r.time_to_readmit,
              r.survivor_goodput_pps);
  std::printf("  adversary tampered=%" PRIu64 " withheld=%" PRIu64
              " extra=%" PRIu64 " holes=%" PRIu64 " quarantines=%" PRIu64
              " strikeouts=%" PRIu64 " wdq=%" PRIu64 "\n",
              r.adv_acks_tampered, r.adv_acks_withheld, r.adv_extra_acks,
              r.adv_fake_holes, r.census_quarantines, r.census_strikeouts,
              r.rla_watchdog_quarantines);
  print_fairness(r.fairness_samples, r.min_jain, r.mean_jain);
}

FlatTreeConfig flat_base() {
  FlatTreeConfig cfg;
  cfg.branches = {{200.0, 1}, {150.0, 2}};
  cfg.duration = 40.0;
  cfg.warmup = 10.0;
  cfg.seed = 3;
  return cfg;
}

BigTreeConfig big_base() {
  BigTreeConfig cfg;
  cfg.receivers = 200;
  cfg.group_size = 25;
  cfg.congested_groups = 3;
  cfg.duration = 12.0;
  cfg.warmup = 3.0;
  cfg.seed = 5;
  return cfg;
}

int run_all() {
  {
    FlatTreeConfig cfg = flat_base();
    cfg.branches[1].extra_delay = sim::milliseconds(20);
    run_flat("droptail-2br-extra-delay", cfg);
  }
  {
    FlatTreeConfig cfg = flat_base();
    cfg.gateway = GatewayType::kRed;
    cfg.shared_bottleneck_pps = 400.0;
    run_flat("red-shared-bottleneck", cfg);
  }
  {
    FlatTreeConfig cfg = flat_base();
    cfg.with_multicast = false;
    run_flat("tcp-only", cfg);
  }
  {
    FlatTreeConfig cfg = flat_base();
    cfg.fairness.window = 5.0;
    cfg.fairness.start = cfg.warmup;
    run_flat("fairness-window", cfg);
  }
  {
    BigTreeConfig cfg = big_base();
    cfg.gateway = GatewayType::kRed;
    run_big("n200-red", cfg);
  }
  {
    BigTreeConfig cfg = big_base();
    cfg.gateway = GatewayType::kDropTail;
    run_big("n200-droptail", cfg);
  }
  {
    // Every tree-only layer at once: wire faults both ways, a partition
    // with failover, churn, a liar, a crash, the watchdog, cwnd sampling
    // and fairness telemetry.
    TreeConfig cfg;
    cfg.bottleneck = TreeCase::kL3All;
    cfg.duration = 40.0;
    cfg.warmup = 10.0;
    cfg.seed = 11;
    cfg.leaf_fault.loss_p = 0.01;
    cfg.ack_fault.loss_p = 0.005;
    cfg.churn_mean_interval = 4.0;
    cfg.backup_paths = true;
    cfg.partitions.push_back({/*level=*/3, /*index=*/2, 15.0, 20.0, false});
    fault::AdversaryModel storm;
    storm.kind = fault::AdversaryKind::kSignalStorm;
    storm.start = 12.0;
    cfg.adversaries.emplace_back(4, storm);
    cfg.silent_receiver = 7;
    cfg.silent_at = 25.0;
    cfg.watchdog = true;
    cfg.window_sample_period = 2.0;
    cfg.fairness.window = 5.0;
    cfg.fairness.start = cfg.warmup;
    run_tree("l3-robustness-stack", cfg);
  }
  return 0;
}

}  // namespace
}  // namespace rlacast::topo

int main(int argc, char** argv) {
  if (argc != 2 || std::strcmp(argv[1], "--smoke") != 0) {
    std::fprintf(stderr, "usage: %s --smoke\n", argv[0]);
    return 2;
  }
  return rlacast::topo::run_all();
}
