// rlabench: one workload, one process, single-threaded. perfbench/run.py
// drives it; it is not meant to be called by hand, though it can be:
//
//   rlabench --mode call   --workload NAME --seed N
//   rlabench --mode layers --workload NAME --seed N
//
// call:   kSetupSamples set-up-only runner calls, then one full call on the
//         seed. Prints the call's raw measurements and check tally as one
//         JSON line.
// layers: two untraced calls (their deterministic counts must repeat), one
//         traced call (a span per dispatch) and the layer probes. Prints
//         the "where the time goes" table and, last, the per-layer metrics
//         in the benchmark's result format.
// Exit status is nonzero when a check failed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "probes.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

// Set-up takes milliseconds, so each process adds set-up-only samples.
constexpr int kSetupSamples = 2;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Correctness checks: every check counts as attempted; a failure is
/// reported on stdout with its reason.
struct Checks {
  int attempted = 0;
  int failed = 0;
  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::printf("CHECK FAILED: %s\n", what.c_str());
    }
  }
};

double peak_rss_mib() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double ratio_of(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// Checks that hold for every full runner call of a workload. The Theorem
/// band is a long-run claim, so run.py checks it on the throughput pooled
/// over all calls of a run; a single call only reports its ratio.
void check_run(const Workload& w, const RunOutcome& r, Checks& checks,
               const char* label) {
  const std::string at = w.name + " " + label + ": ";
  checks.expect(r.completed, at + "run did not complete " + r.error);
  if (!r.completed) return;
  checks.expect(r.end.ec.callback_heap_fallbacks == 0,
                at + "callback_heap_fallbacks = " +
                    std::to_string(r.end.ec.callback_heap_fallbacks));
  if (w.web)
    checks.expect(r.fetches_completed >= r.fetches_started - w.receivers,
                  at + "fetches completed " +
                      std::to_string(r.fetches_completed) + " < started " +
                      std::to_string(r.fetches_started) + " - " +
                      std::to_string(w.receivers));
}

/// Deterministic counts of a run: its simulated outputs plus the engine,
/// network and (untraced runs) allocation work of the measured phase.
/// Repeats exactly for a fixed seed. A traced run allocates for its
/// observer, so traced and untraced runs are compared without allocations.
std::vector<std::pair<std::string, double>> counts(const RunOutcome& r,
                                                   bool with_allocs = true) {
  auto f = fingerprint(r);
  using EC = rlacast::stats::EngineCounters;
  f.emplace_back("measured.dispatched", r.measured(&EC::dispatched));
  f.emplace_back("measured.scheduled", r.measured(&EC::scheduled));
  f.emplace_back("measured.cancelled", r.measured(&EC::cancelled));
  f.emplace_back("measured.rescheduled", r.measured(&EC::rescheduled));
  f.emplace_back("heap_hiwater", r.end.ec.heap_hiwater);
  f.emplace_back("measured.acks", r.end.acks - r.warm.acks);
  f.emplace_back("measured.link_hops", r.end.link_hops - r.warm.link_hops);
  if (with_allocs)
    f.emplace_back("measured.allocs", r.end.alloc.count - r.warm.alloc.count);
  f.emplace_back("offpath_drops", r.offpath_drops);
  f.emplace_back("sender_bytes_per_rcvr", r.sender_bytes_per_rcvr);
  f.emplace_back("materialized_hiwater", r.materialized_hiwater);
  return f;
}

void check_same(const RunOutcome& ref, const RunOutcome& r, Checks& checks,
                const std::string& what, bool with_allocs) {
  if (!ref.completed || !r.completed) return;
  const std::string diff = first_difference(counts(ref, with_allocs),
                                            counts(r, with_allocs));
  checks.expect(diff.empty(), what + " differ in " + diff);
}

/// --mode call: set-up-only samples plus one full call, as one JSON line.
int call_mode(const Workload& w, std::uint64_t seed) {
  Checks checks;
  std::string setups;
  for (int i = 0; i < kSetupSamples; ++i) {
    const RunOutcome s = run_once(w, seed, {.setup_only = true});
    checks.expect(s.completed, w.name + " set-up-only call: " + s.error);
    setups += (i ? ", " : "") + num(s.setup_s());
  }
  const RunOutcome r = run_once(w, seed, {});
  check_run(w, r, checks, ("seed " + std::to_string(seed)).c_str());
  const double sim = w.duration - w.warmup;
  std::printf("  seed %-8llu setup %.5f s  wall %.4f s  sim/wall %.3f  "
              "us/ACK %.4f  dispatched %llu  ratio %.3f  fetches %d/%d\n",
              static_cast<unsigned long long>(seed), r.setup_s(), r.wall_s(),
              ratio_of(sim, r.measured_wall_s()),
              ratio_of(r.measured_wall_s() * 1e6,
                       static_cast<double>(r.end.acks - r.warm.acks)),
              static_cast<unsigned long long>(r.dispatched), r.ratio,
              r.fetches_completed, r.fetches_started);
  std::string json = "{\"attempted\": " + std::to_string(checks.attempted) +
                     ", \"failed\": " + std::to_string(checks.failed) +
                     ", \"setup_s\": [" + setups + ", " + num(r.setup_s()) +
                     "], \"wall_s\": " + num(r.wall_s()) +
                     ", \"measured_wall_s\": " + num(r.measured_wall_s()) +
                     ", \"measured_sim_s\": " + num(sim) +
                     ", \"measured_acks\": " +
                     num(static_cast<double>(r.end.acks - r.warm.acks)) +
                     ", \"sender_bytes_per_rcvr\": " +
                     num(r.sender_bytes_per_rcvr) +
                     ", \"rla_pps\": " +
                     num(r.completed ? r.rla[0].throughput_pps : 0.0) +
                     ", \"worst_pps\": " + num(r.worst_pps) +
                     // Web users are app-limited: no Theorem band applies.
                     (w.web ? std::string()
                            : ", \"band\": [" + num(r.band_lo) + ", " +
                                  num(r.band_hi) + "]") +
                     ", \"peak_rss_mib\": " + num(peak_rss_mib()) + "}";
  std::printf("%s\n", json.c_str());
  return checks.failed == 0 ? 0 : 1;
}

std::vector<Metric> per_layer(const Workload& w, const RunOutcome& plain,
                              const RunOutcome& traced) {
  using EC = rlacast::stats::EngineCounters;
  const double measured_sim = w.duration - w.warmup;
  const double wall = plain.measured_wall_s();
  const double disp = static_cast<double>(plain.measured(&EC::dispatched));
  const double allocs =
      static_cast<double>(plain.end.alloc.count - plain.warm.alloc.count);
  const double alloc_bytes =
      static_cast<double>(plain.end.alloc.bytes - plain.warm.alloc.bytes);
  const double acks = static_cast<double>(plain.end.acks - plain.warm.acks);
  const double link_hops =
      static_cast<double>(plain.end.link_hops - plain.warm.link_hops);
  const double dt_arrivals = static_cast<double>(
      plain.end.droptail_arrivals - plain.warm.droptail_arrivals);
  const double red_arrivals =
      static_cast<double>(plain.end.red_arrivals - plain.warm.red_arrivals);
  double tcp_pkts = 0.0;
  for (const auto& row : plain.tcps) tcp_pkts += row.throughput_pps;
  tcp_pkts *= measured_sim;
  const double leaves =
      static_cast<double>((w.receivers + w.group_size - 1) / w.group_size);
  const double rla_deliveries =
      plain.rla[0].throughput_pps * measured_sim * leaves;
  const double fetches =
      plain.fetches_started * measured_sim / w.duration;  // measured share

  ProbeInputs in;
  in.heap_depth = plain.end.ec.heap_hiwater;
  in.loss_rate = plain.bottleneck_drop_rate;
  in.receivers = w.receivers;
  const ProbeResults p = run_probes(in);

  const double traced_disp =
      static_cast<double>(traced.measured(&EC::dispatched));
  std::vector<Metric> m = {
      {"sim.ns_per_dispatch", ratio_of(wall * 1e9, disp), "ns"},
      {"sim.dispatched_per_sim_s", disp / measured_sim, "1/sim_s"},
      {"sim.heap_hiwater", static_cast<double>(plain.end.ec.heap_hiwater),
       "count"},
      {"sim.scheduled_per_dispatch",
       ratio_of(plain.measured(&EC::scheduled), disp), "ratio"},
      {"sim.cancelled_per_dispatch",
       ratio_of(plain.measured(&EC::cancelled), disp), "ratio"},
      {"sim.rescheduled_per_dispatch",
       ratio_of(plain.measured(&EC::rescheduled), disp), "ratio"},
      {"sim.push_pop_ns", p.push_pop_ns, "ns"},
      {"alloc.per_dispatch", ratio_of(allocs, disp), "ratio"},
      {"alloc.bytes_per_dispatch", ratio_of(alloc_bytes, disp), "B"},
      {"alloc.setup_count",
       static_cast<double>(plain.t0.alloc.count - plain.alloc_call.count),
       "count"},
      {"alloc.reassembly_per_dispatch",
       ratio_of(p.reassembly_allocs_lossy * (tcp_pkts + rla_deliveries), disp),
       "ratio"},
      {"alloc.conn_setup_per_dispatch",
       ratio_of(p.conn_setup_allocs * fetches, disp), "ratio"},
      {"net.link_hop_ns", p.link_hop_ns, "ns"},
      {"net.droptail_op_ns", p.droptail_op_ns, "ns"},
      {"net.red_op_ns", p.red_op_ns, "ns"},
      {"net.mcast_fanout_ns", p.mcast_fanout_ns, "ns"},
      {"net.bottleneck_drop_rate", plain.bottleneck_drop_rate, "ratio"},
      {"net.offpath_drops", static_cast<double>(plain.offpath_drops), "count"},
      {"tcp.reassembly_add_ns.inorder", p.reassembly_ns_inorder, "ns"},
      {"tcp.reassembly_add_ns.lossy", p.reassembly_ns_lossy, "ns"},
      {"tcp.reassembly_allocs_per_add.inorder", p.reassembly_allocs_inorder,
       "ratio"},
      {"tcp.reassembly_allocs_per_add.lossy", p.reassembly_allocs_lossy,
       "ratio"},
      {"tcp.conn_setup_ns", p.conn_setup_ns, "ns"},
      {"tcp.conn_setup_allocs", p.conn_setup_allocs, "count"},
      {"cc.census_ns_per_signal.n27", p.census_ns_n27, "ns"},
      {"cc.census_ns_per_signal.n1000", p.census_ns_n1000, "ns"},
      {"cc.census_ns_per_signal.n10000", p.census_ns_n10000, "ns"},
      {"cc.scoreboard_ns_per_op", p.scoreboard_ns, "ns"},
      {"rla.sender_ns_per_ack.n27", p.rla_ack_ns_n27, "ns"},
      {"rla.sender_ns_per_ack.n1000", p.rla_ack_ns_n1000, "ns"},
      {"rla.sender_ns_per_ack.n10000", p.rla_ack_ns_n10000, "ns"},
      {"rla.acks", acks, "count"},
      {"rla.signals", static_cast<double>(plain.rla_signals), "count"},
      {"rla.window_cuts", static_cast<double>(plain.rla_window_cuts), "count"},
      {"rla.rexmits", static_cast<double>(plain.rla_rexmits), "count"},
      {"rla.materialized_hiwater",
       static_cast<double>(plain.materialized_hiwater), "count"},
      {"workload.fetches_per_sim_s", plain.fetches_completed / w.duration,
       "1/sim_s"},
      {"trace.dispatch_ns.p50", traced.spans.quantile(0.50), "ns"},
      {"trace.dispatch_ns.p99", traced.spans.quantile(0.99), "ns"},
      {"trace.draws_per_dispatch",
       ratio_of(static_cast<double>(traced.end.draws - traced.warm.draws),
                traced_disp),
       "ratio"},
      {"trace.overhead", ratio_of(traced.measured_wall_s(), wall), "ratio"},
  };

  // Where the time goes: each layer's probe cost (its own scheduler events
  // taken out) times the number of such operations the measured phase
  // performed, over the measured wall time. Whatever the probes do not
  // explain is reported as the remainder.
  const double ns = wall * 1e9;
  struct Share {
    const char* layer;
    double ns;
    const char* basis;
  };
  const std::vector<Share> shares = {
      {"sim", p.push_pop_ns * disp, "push_pop_ns x dispatches"},
      {"net",
       p.link_hop_self_ns * link_hops +
           std::max(0.0, p.red_op_ns - p.droptail_op_ns) * red_arrivals,
       "link_hop self x hops + RED premium x RED arrivals"},
      {"tcp",
       p.reassembly_ns_lossy * (tcp_pkts + rla_deliveries) +
           p.scoreboard_ns * tcp_pkts + p.conn_setup_ns * fetches,
       "reassembly x deliveries + scoreboard x TCP ACKs + set-up x fetches"},
      {"cc", p.census_ns_at_n * static_cast<double>(plain.rla_signals),
       "census_ns at n x RLA signals"},
      {"rla", p.rla_ack_self_ns_at_n * acks, "sender self ns/ACK x ACKs"},
  };
  double attributed = 0.0;
  std::printf("\nwhere the time goes (%s, measured phase %.3f s host):\n",
              w.name.c_str(), wall);
  for (const Share& s : shares) {
    const double share = ratio_of(s.ns, ns);
    attributed += share;
    m.push_back({std::string("share.") + s.layer, share, "ratio"});
    std::printf("  %-14s %6.1f %%   %s\n", s.layer, 100.0 * share, s.basis);
  }
  const double rest = 1.0 - attributed;
  m.push_back({"share.unattributed", rest, "ratio"});
  std::printf("  %-14s %6.1f %%   (negative: probes over-attribute)\n",
              "unattributed", 100.0 * rest);
  std::printf("  engine dispatches %.0f, link hops %.0f, drop-tail arrivals "
              "%.0f, RED arrivals %.0f, ACKs %.0f\n",
              disp, link_hops, dt_arrivals, red_arrivals, acks);
  return m;
}

void print_result(const Checks& checks, const std::vector<Metric>& metrics) {
  std::printf("\n");
  for (const Metric& m : metrics)
    std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("  %d of %d checks failed\n", checks.failed, checks.attempted);
  std::string json = "{\"correct\": ";
  json += checks.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checks.attempted);
  json += ", \"failed\": " + std::to_string(checks.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// --mode layers: two untraced calls and one traced call of one seed, then
/// the probes. The untraced pair is the steadiness self-check.
int layers_mode(const Workload& w, std::uint64_t seed) {
  Checks checks;
  const RunOutcome plain = run_once(w, seed, {});
  check_run(w, plain, checks, "untraced");
  const RunOutcome again = run_once(w, seed, {});
  check_run(w, again, checks, "untraced repeat");
  check_same(plain, again, checks,
             "deterministic counts of two untraced runs", true);
  const RunOutcome traced = run_once(w, seed, {.traced = true});
  check_run(w, traced, checks, "traced");
  check_same(plain, traced, checks,
             "simulated outputs of the traced and untraced runs", false);
  if (!w.web)
    std::printf("RLA/worst-TCP ratio %.4f (Theorem band (%.4g, %.4g), checked "
                "on --trace 0 runs)\n",
                plain.ratio, plain.band_lo, plain.band_hi);
  std::vector<Metric> metrics;
  if (plain.completed && traced.completed)
    metrics = per_layer(w, plain, traced);
  else
    checks.expect(false, "no per-layer metrics measured");
  print_result(checks, metrics);
  return checks.failed == 0 ? 0 : 1;
}

int usage(const std::string& why) {
  std::fprintf(stderr,
               "rlabench: %s\nusage: rlabench --mode call|layers --workload "
               "NAME --seed N\nworkloads:",
               why.c_str());
  for (const Workload& w : workloads())
    std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* w = nullptr;
  std::string mode;
  std::uint64_t seed = 0;
  bool seed_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      w = find_workload(v);
      if (w == nullptr) return usage("unknown workload " + v);
    } else if (a == "--seed") {
      char* end = nullptr;
      seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') return usage("bad seed " + v);
      seed_given = true;
    } else if (a == "--mode") {
      mode = v;
    } else {
      return usage("unknown flag " + a);
    }
  }
  if (w == nullptr || !seed_given) return usage("--workload and --seed are required");
  if (mode == "call") return call_mode(*w, seed);
  if (mode == "layers") return layers_mode(*w, seed);
  return usage("--mode must be call or layers");
}
