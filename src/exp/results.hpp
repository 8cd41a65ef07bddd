// Ordered per-run metric collection with replicate aggregation and emitters.
//
// A scenario closure returns Metrics — an ordered (insertion-order) list of
// name -> double rows.  Results keeps one RunResult per expanded RunSpec, in
// grid order regardless of which worker thread finished first, aggregates
// replicates of the same case into mean / stddev / 95% CI per metric, and
// serializes the whole batch (spec, per-run rows, aggregates, wall time) as
// the results.json schema documented in EXPERIMENTS.md.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "exp/spec.hpp"
#include "stats/summary.hpp"

namespace rlacast::exp {

/// Ordered metric rows for one run. Insertion order is preserved in text
/// tables and JSON so output stays stable across compilers and libc++s.
class Metrics {
 public:
  Metrics() = default;
  Metrics(std::initializer_list<std::pair<std::string, double>> kv)
      : rows_(kv.begin(), kv.end()) {}

  Metrics& set(std::string name, double value);
  bool has(const std::string& name) const;
  /// Value of `name`; throws std::out_of_range when absent.
  double get(const std::string& name) const;
  double get(const std::string& name, double fallback) const;

  const std::vector<std::pair<std::string, double>>& rows() const {
    return rows_;
  }
  std::size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  bool operator==(const Metrics& other) const { return rows_ == other.rows_; }

 private:
  std::vector<std::pair<std::string, double>> rows_;
};

/// Outcome of one run: either ok with metrics, or an error row carrying the
/// exception text (the batch continues; see Runner).
struct RunResult {
  RunSpec spec;
  Metrics metrics;
  bool ok = false;
  std::string error;          // exception text when !ok
  double wall_seconds = 0.0;  // this run's wall-clock time
  bool timed_out = false;     // SIGKILLed by the per-run wall-clock timeout
  bool crashed = false;       // forked child died abnormally
  int term_signal = 0;        // signal that ended a timed-out/crashed child
  std::string crash_report;   // path of the written crash report, if any
};

/// Mean / stddev / 95% CI of one metric across a case's replicates.
struct MetricAggregate {
  std::string name;
  std::size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double ci95 = 0.0;  // half-width; interval is mean +/- ci95
};

/// All replicates of one (case, point), aggregated per metric.
struct CaseAggregate {
  std::string name;
  Point point;
  std::size_t n_ok = 0;      // replicates that completed
  std::size_t n_error = 0;   // replicates that threw
  std::vector<MetricAggregate> metrics;  // metric insertion order
};

class Results {
 public:
  Results() = default;
  explicit Results(std::vector<RunResult> runs) : runs_(std::move(runs)) {}

  const std::vector<RunResult>& runs() const { return runs_; }
  std::size_t num_errors() const;

  /// First run of `case_name` with replicate 0 (the legacy-compatible run),
  /// or nullptr when absent / errored.
  const RunResult* replicate0(const std::string& case_name) const;

  /// Groups runs by (name, point) in first-appearance order and aggregates
  /// each metric across the ok replicates.
  std::vector<CaseAggregate> aggregate() const;

  /// Renders the aggregate table: one row per metric, one column per case,
  /// cells "mean ±ci95" (stats/table format).
  std::string render_aggregate_table() const;

  /// Serializes the batch as JSON. `spec_extra` rows (e.g. duration, warmup,
  /// jobs) are embedded in the "spec" object; wall time is the batch total.
  std::string to_json(
      const std::string& experiment, std::uint64_t master_seed, int replicates,
      int jobs, double wall_seconds_total,
      const std::vector<std::pair<std::string, std::string>>& spec_extra = {})
      const;

  /// to_json + atomic-ish write (tmp file, then rename). Returns false and
  /// prints to stderr on I/O failure.
  bool write_json(
      const std::string& path, const std::string& experiment,
      std::uint64_t master_seed, int replicates, int jobs,
      double wall_seconds_total,
      const std::vector<std::pair<std::string, std::string>>& spec_extra = {})
      const;

 private:
  std::vector<RunResult> runs_;
};

}  // namespace rlacast::exp
