#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace rlacast::bench {

int Options::resolved_jobs() const {
  if (jobs > 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? static_cast<int>(hw) : 1;
}

exp::RunnerOptions Options::runner_options() const {
  exp::RunnerOptions r;
  r.jobs = resolved_jobs();
  r.progress = (r.jobs > 1 || replicates > 1) && isatty(fileno(stderr));
  r.timeout_seconds = run_timeout;
  r.isolate = isolate;
  if (isolate) r.crash_dir = crash_dir;
  // Every forked run (--isolate or --timeout) gets the rlimits.
  r.isolate_cpu_seconds = isolate_cpu;
  r.isolate_mem_mb = isolate_mem_mb;
  return r;
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_raw = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    auto next_value = [&](const char* flag) -> double {
      return std::atof(next_raw(flag));
    };
    if (arg == "--full") {
      opt.full = true;
      opt.duration = 3000.0;
      opt.warmup = 100.0;
    } else if (arg == "--seed") {
      opt.seed = static_cast<std::uint64_t>(next_value("--seed"));
    } else if (arg == "--duration") {
      opt.duration = next_value("--duration");
    } else if (arg == "--warmup") {
      opt.warmup = next_value("--warmup");
    } else if (arg == "--jobs") {
      opt.jobs = std::atoi(next_raw("--jobs"));
      if (opt.jobs < 0) {
        std::fprintf(stderr, "--jobs must be >= 0 (0 = hardware)\n");
        std::exit(2);
      }
    } else if (arg == "--replicates") {
      opt.replicates = std::atoi(next_raw("--replicates"));
      if (opt.replicates < 1) {
        std::fprintf(stderr, "--replicates must be >= 1\n");
        std::exit(2);
      }
    } else if (arg == "--json") {
      opt.json_path = next_raw("--json");
    } else if (arg == "--timeout") {
      opt.run_timeout = next_value("--timeout");
      if (opt.run_timeout < 0.0) {
        std::fprintf(stderr, "--timeout must be >= 0 (0 = off)\n");
        std::exit(2);
      }
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--chaos") {
      opt.chaos = true;
    } else if (arg == "--chaos-cases") {
      opt.chaos_cases = std::atoi(next_raw("--chaos-cases"));
      if (opt.chaos_cases < 1) {
        std::fprintf(stderr, "--chaos-cases must be >= 1\n");
        std::exit(2);
      }
    } else if (arg == "--record-journal") {
      opt.record_journal_dir = next_raw("--record-journal");
    } else if (arg == "--replay") {
      opt.replay_path = next_raw("--replay");
    } else if (arg == "--checkpoint-events") {
      const long long n = std::atoll(next_raw("--checkpoint-events"));
      if (n < 0) {
        std::fprintf(stderr, "--checkpoint-events must be >= 0 (0 = final only)\n");
        std::exit(2);
      }
      opt.checkpoint_events = static_cast<std::uint64_t>(n);
    } else if (arg == "--isolate") {
      opt.isolate = true;
    } else if (arg == "--crash-dir") {
      opt.crash_dir = next_raw("--crash-dir");
    } else if (arg == "--isolate-cpu") {
      opt.isolate_cpu = next_value("--isolate-cpu");
      if (opt.isolate_cpu < 0.0) {
        std::fprintf(stderr, "--isolate-cpu must be >= 0 (0 = unlimited)\n");
        std::exit(2);
      }
    } else if (arg == "--trajectory") {
      opt.trajectory_path = next_raw("--trajectory");
    } else if (arg == "--isolate-mem") {
      const long long mb = std::atoll(next_raw("--isolate-mem"));
      if (mb < 0) {
        std::fprintf(stderr, "--isolate-mem must be >= 0 (0 = unlimited)\n");
        std::exit(2);
      }
      opt.isolate_mem_mb = static_cast<std::size_t>(mb);
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--full] [--seed N] [--duration S] [--warmup S]\n"
          "          [--jobs N] [--replicates R] [--json PATH]\n"
          "          [--timeout S] [--smoke]\n"
          "          [--chaos] [--chaos-cases N]\n"
          "          [--record-journal DIR] [--replay PATH]\n"
          "          [--checkpoint-events N] [--isolate] [--crash-dir DIR]\n"
          "          [--isolate-cpu S] [--isolate-mem MB] [--trajectory PATH]\n"
          "  --full        paper-length run (3000 s, statistics after 100 s)\n"
          "  --jobs N      run cases/replicates on N threads (0 = hardware)\n"
          "  --replicates R  repeat each case R times with derived seeds\n"
          "  --json PATH   write machine-readable results.json\n"
          "  --timeout S   per-run wall-clock limit (0 = off); each run forks and\n"
          "                an overdue one is SIGKILLed into a timed_out row\n"
          "  --smoke       CI-sized quick pass (bench-specific reduction)\n"
          "  --chaos       randomized adversary/impairment soak (supported benches)\n"
          "  --chaos-cases N  chaos scenarios per defense arm (default 12)\n"
          "  --record-journal DIR  write a replay journal per run into DIR\n"
          "  --replay PATH  re-execute a journaled run, verify determinism\n"
          "  --checkpoint-events N  checkpoint cadence in dispatches\n"
          "  --isolate     fork-sandbox every run; crashes are contained\n"
          "  --crash-dir DIR  crash reports + journals (default results/crashes)\n"
          "  --isolate-cpu S  RLIMIT_CPU per forked run (0 = unlimited); needs\n"
          "                --isolate or --timeout\n"
          "  --isolate-mem MB  RLIMIT_AS per forked run (0 = unlimited); needs\n"
          "                --isolate or --timeout\n"
          "  --trajectory PATH  write a run-health JSON snapshot to PATH\n",
          argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg.c_str());
      std::exit(2);
    }
  }
  if ((opt.isolate_cpu > 0.0 || opt.isolate_mem_mb > 0) && !opt.isolate &&
      opt.run_timeout <= 0.0) {
    std::fprintf(stderr,
                 "--isolate-cpu/--isolate-mem limit forked runs only: add "
                 "--isolate or --timeout S\n");
    std::exit(2);
  }
  return opt;
}

std::string render_fig7_style_table(const std::vector<CaseColumn>& cases) {
  using stats::Table;
  std::vector<std::string> header{"row"};
  for (const auto& c : cases) header.push_back(c.name);
  Table t(std::move(header));

  auto add = [&](const std::string& label, auto getter) {
    std::vector<std::string> row{label};
    for (const auto& c : cases) row.push_back(getter(c));
    t.add_row(std::move(row));
  };

  add("RLA thrput (pkt/s)",
      [](const CaseColumn& c) { return Table::num(c.rla.throughput_pps); });
  add("RLA cwnd", [](const CaseColumn& c) { return Table::num(c.rla.avg_cwnd); });
  add("RLA RTT (s)",
      [](const CaseColumn& c) { return Table::num(c.rla.avg_rtt, 3); });
  add("RLA #cong signals", [](const CaseColumn& c) {
    return std::to_string(c.rla.cong_signals);
  });
  add("RLA #wnd cut",
      [](const CaseColumn& c) { return std::to_string(c.rla.window_cuts); });
  add("RLA #forced cut",
      [](const CaseColumn& c) { return std::to_string(c.rla.forced_cuts); });
  add("WTCP thrput (pkt/s)",
      [](const CaseColumn& c) { return Table::num(c.wtcp.throughput_pps); });
  add("WTCP cwnd", [](const CaseColumn& c) { return Table::num(c.wtcp.avg_cwnd); });
  add("WTCP RTT (s)",
      [](const CaseColumn& c) { return Table::num(c.wtcp.avg_rtt, 3); });
  add("WTCP #wnd cut",
      [](const CaseColumn& c) { return std::to_string(c.wtcp.window_cuts); });
  add("BTCP thrput (pkt/s)",
      [](const CaseColumn& c) { return Table::num(c.btcp.throughput_pps); });
  add("BTCP cwnd", [](const CaseColumn& c) { return Table::num(c.btcp.avg_cwnd); });
  add("BTCP RTT (s)",
      [](const CaseColumn& c) { return Table::num(c.btcp.avg_rtt, 3); });
  add("BTCP #wnd cut",
      [](const CaseColumn& c) { return std::to_string(c.btcp.window_cuts); });
  return t.render();
}

void print_header(const std::string& title, const Options& opt) {
  std::printf("==================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("run: %.0f s, statistics after %.0f s, seed %llu%s\n",
              opt.duration, opt.warmup,
              static_cast<unsigned long long>(opt.seed),
              opt.full ? " (paper-length)" : " (scaled; use --full)");
  std::printf("==================================================\n");
}

namespace {

exp::Metrics flow_metrics(exp::Metrics m, const char* prefix,
                          const topo::FlowRow& f, bool full_block) {
  const std::string p(prefix);
  m.set(p + ".thrput_pps", f.throughput_pps);
  m.set(p + ".cwnd", f.avg_cwnd);
  m.set(p + ".rtt_s", f.avg_rtt);
  if (full_block) {
    m.set(p + ".cong_signals", static_cast<double>(f.cong_signals));
    m.set(p + ".forced_cuts", static_cast<double>(f.forced_cuts));
  }
  m.set(p + ".wnd_cuts", static_cast<double>(f.window_cuts));
  return m;
}

topo::FlowRow flow_from_metrics(const exp::Metrics& m, const char* prefix) {
  const std::string p(prefix);
  topo::FlowRow f;
  f.throughput_pps = m.get(p + ".thrput_pps", 0.0);
  f.avg_cwnd = m.get(p + ".cwnd", 0.0);
  f.avg_rtt = m.get(p + ".rtt_s", 0.0);
  f.cong_signals = static_cast<std::uint64_t>(m.get(p + ".cong_signals", 0.0));
  f.window_cuts = static_cast<std::uint64_t>(m.get(p + ".wnd_cuts", 0.0));
  f.forced_cuts = static_cast<std::uint64_t>(m.get(p + ".forced_cuts", 0.0));
  return f;
}

}  // namespace

exp::Metrics metrics_from_column(const CaseColumn& c) {
  exp::Metrics m;
  m = flow_metrics(std::move(m), "rla", c.rla, /*full_block=*/true);
  m = flow_metrics(std::move(m), "wtcp", c.wtcp, /*full_block=*/false);
  m = flow_metrics(std::move(m), "btcp", c.btcp, /*full_block=*/false);
  return m;
}

CaseColumn column_from_metrics(std::string name, const exp::Metrics& m) {
  CaseColumn c;
  c.name = std::move(name);
  c.rla = flow_from_metrics(m, "rla");
  c.wtcp = flow_from_metrics(m, "wtcp");
  c.btcp = flow_from_metrics(m, "btcp");
  return c;
}

std::vector<CaseColumn> replicate0_columns(const exp::Results& results) {
  std::vector<CaseColumn> cols;
  for (const auto& r : results.runs()) {
    if (r.spec.replicate != 0) continue;
    if (!r.ok) {
      std::fprintf(stderr, "warning: case %s failed: %s\n",
                   r.spec.name.c_str(), r.error.c_str());
      continue;
    }
    cols.push_back(column_from_metrics(r.spec.name, r.metrics));
  }
  return cols;
}

bool finish_grid_output(
    const std::string& experiment, const Options& opt, const exp::Results& results,
    double wall_seconds,
    std::vector<std::pair<std::string, std::string>> spec_extra) {
  if (opt.replicates > 1) {
    std::printf("replicate aggregates (n=%d, mean ±95%% CI):\n%s\n",
                opt.replicates, results.render_aggregate_table().c_str());
  }
  if (const std::size_t errors = results.num_errors()) {
    std::printf("WARNING: %zu of %zu runs failed (see results.json / stderr)\n",
                errors, results.runs().size());
  }
  if (opt.json_path.empty()) return true;
  auto extra = std::move(spec_extra);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", opt.duration);
  extra.emplace_back("duration_s", buf);
  std::snprintf(buf, sizeof(buf), "%g", opt.warmup);
  extra.emplace_back("warmup_s", buf);
  if (!results.write_json(opt.json_path, experiment, opt.seed, opt.replicates,
                          opt.resolved_jobs(), wall_seconds, extra)) {
    return false;
  }
  std::printf("exp: wrote %s\n", opt.json_path.c_str());
  return true;
}

double peak_rss_mib() {
  long max_kib = 0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    struct rusage ru {};
    if (getrusage(who, &ru) == 0 && ru.ru_maxrss > max_kib)
      max_kib = ru.ru_maxrss;
  }
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<double>(max_kib) / 1024.0;
}

bool write_trajectory(
    const Options& opt, const std::string& experiment, double wall_seconds,
    const std::vector<std::pair<std::string, double>>& metrics,
    double sender_bytes_per_receiver) {
  if (opt.trajectory_path.empty()) return true;
  std::FILE* f = std::fopen(opt.trajectory_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "warning: cannot write trajectory %s\n",
                 opt.trajectory_path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"experiment\": \"%s\",\n", experiment.c_str());
  std::fprintf(f,
               "  \"config\": {\"duration_s\": %g, \"warmup_s\": %g, "
               "\"seed\": %llu, \"jobs\": %d, \"smoke\": %s},\n",
               opt.duration, opt.warmup,
               static_cast<unsigned long long>(opt.seed), opt.resolved_jobs(),
               opt.smoke ? "true" : "false");
  std::fprintf(f, "  \"metrics\": {\n");
  std::fprintf(f, "    \"wall_seconds\": %.3f,\n", wall_seconds);
  std::fprintf(f, "    \"peak_rss_mib\": %.1f", peak_rss_mib());
  if (sender_bytes_per_receiver >= 0.0)
    std::fprintf(f, ",\n    \"sender_bytes_per_receiver\": %g",
                 sender_bytes_per_receiver);
  for (const auto& [key, value] : metrics)
    std::fprintf(f, ",\n    \"%s\": %g", key.c_str(), value);
  std::fprintf(f, "\n  }\n}\n");
  std::fclose(f);
  std::printf("trajectory: wrote %s\n", opt.trajectory_path.c_str());
  return true;
}

}  // namespace rlacast::bench
