#include "exp/results.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "stats/table.hpp"

namespace rlacast::exp {

Metrics& Metrics::set(std::string name, double value) {
  for (auto& row : rows_) {
    if (row.first == name) {
      row.second = value;
      return *this;
    }
  }
  rows_.emplace_back(std::move(name), value);
  return *this;
}

bool Metrics::has(const std::string& name) const {
  for (const auto& row : rows_) {
    if (row.first == name) return true;
  }
  return false;
}

double Metrics::get(const std::string& name) const {
  for (const auto& row : rows_) {
    if (row.first == name) return row.second;
  }
  throw std::out_of_range("exp::Metrics: no metric named " + name);
}

double Metrics::get(const std::string& name, double fallback) const {
  for (const auto& row : rows_) {
    if (row.first == name) return row.second;
  }
  return fallback;
}

std::size_t Results::num_errors() const {
  std::size_t n = 0;
  for (const auto& r : runs_) n += r.ok ? 0 : 1;
  return n;
}

const RunResult* Results::replicate0(const std::string& case_name) const {
  for (const auto& r : runs_) {
    if (r.spec.name == case_name && r.spec.replicate == 0)
      return r.ok ? &r : nullptr;
  }
  return nullptr;
}

std::vector<CaseAggregate> Results::aggregate() const {
  std::vector<CaseAggregate> out;
  auto find_case = [&](const RunResult& r) -> CaseAggregate& {
    for (auto& agg : out) {
      if (agg.name == r.spec.name && agg.point.id() == r.spec.point.id())
        return agg;
    }
    out.push_back({r.spec.name, r.spec.point, 0, 0, {}});
    return out.back();
  };

  // Pass 1: bucket runs; collect per-metric summaries in insertion order.
  std::vector<std::vector<stats::Summary>> sums;  // parallel to `out`
  std::vector<std::vector<std::string>> names;
  for (const auto& r : runs_) {
    CaseAggregate& agg = find_case(r);
    const std::size_t ci = static_cast<std::size_t>(&agg - out.data());
    if (sums.size() <= ci) {
      sums.resize(ci + 1);
      names.resize(ci + 1);
    }
    if (!r.ok) {
      ++agg.n_error;
      continue;
    }
    ++agg.n_ok;
    for (const auto& [name, value] : r.metrics.rows()) {
      std::size_t mi = 0;
      for (; mi < names[ci].size(); ++mi)
        if (names[ci][mi] == name) break;
      if (mi == names[ci].size()) {
        names[ci].push_back(name);
        sums[ci].emplace_back();
      }
      sums[ci][mi].add(value);
    }
  }

  for (std::size_t ci = 0; ci < out.size(); ++ci) {
    for (std::size_t mi = 0; mi < names[ci].size(); ++mi) {
      const stats::Summary& s = sums[ci][mi];
      out[ci].metrics.push_back({names[ci][mi], s.count(), s.mean(),
                                 s.stddev(), s.ci95_halfwidth()});
    }
  }
  return out;
}

std::string Results::render_aggregate_table() const {
  const auto aggs = aggregate();
  std::vector<std::string> header{"metric"};
  for (const auto& a : aggs) header.push_back(a.name);
  stats::Table t(std::move(header));

  // Row order: metric order of the first case that defines each metric.
  std::vector<std::string> metric_names;
  for (const auto& a : aggs) {
    for (const auto& m : a.metrics) {
      bool seen = false;
      for (const auto& n : metric_names) seen = seen || n == m.name;
      if (!seen) metric_names.push_back(m.name);
    }
  }

  for (const auto& name : metric_names) {
    std::vector<std::string> row{name};
    for (const auto& a : aggs) {
      const MetricAggregate* found = nullptr;
      for (const auto& m : a.metrics)
        if (m.name == name) found = &m;
      if (!found) {
        row.push_back("-");
      } else if (found->n > 1) {
        row.push_back(stats::Table::num(found->mean) + " ±" +
                      stats::Table::num(found->ci95));
      } else {
        row.push_back(stats::Table::num(found->mean));
      }
    }
    t.add_row(std::move(row));
  }
  return t.render();
}

namespace {

// --- minimal JSON writer (no dependency; enough for the results schema) ---

void json_escape(std::string& out, const std::string& s) {
  out += '"';
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
}

void json_number(std::string& out, double v) {
  if (!std::isfinite(v)) {  // JSON has no inf/nan; emit null
    out += "null";
    return;
  }
  char buf[64];
  // %.17g round-trips doubles exactly; trim to %g when that is lossless so
  // counters print as "42", not "42.000000000000000".
  std::snprintf(buf, sizeof(buf), "%g", v);
  double back = 0.0;
  std::sscanf(buf, "%lf", &back);
  if (back != v) std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void json_point(std::string& out, const Point& p) {
  out += '{';
  bool first = true;
  for (const auto& [k, v] : p.items()) {
    if (!first) out += ',';
    first = false;
    json_escape(out, k);
    out += ':';
    json_escape(out, v);
  }
  out += '}';
}

void json_metrics(std::string& out, const Metrics& m) {
  out += '{';
  bool first = true;
  for (const auto& [k, v] : m.rows()) {
    if (!first) out += ',';
    first = false;
    json_escape(out, k);
    out += ':';
    json_number(out, v);
  }
  out += '}';
}

}  // namespace

std::string Results::to_json(
    const std::string& experiment, std::uint64_t master_seed, int replicates,
    int jobs, double wall_seconds_total,
    const std::vector<std::pair<std::string, std::string>>& spec_extra) const {
  std::string out;
  out.reserve(4096 + runs_.size() * 512);
  out += "{\n  \"spec\": {";
  json_escape(out, "experiment");
  out += ':';
  json_escape(out, experiment);
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                ",\"master_seed\":%" PRIu64 ",\"replicates\":%d,\"jobs\":%d",
                master_seed, replicates, jobs);
  out += buf;
  for (const auto& [k, v] : spec_extra) {
    out += ',';
    json_escape(out, k);
    out += ':';
    json_escape(out, v);
  }
  out += "},\n  \"runs\": [\n";
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    const RunResult& r = runs_[i];
    out += "    {\"case\":";
    json_escape(out, r.spec.name);
    out += ",\"params\":";
    json_point(out, r.spec.point);
    std::snprintf(buf, sizeof(buf), ",\"replicate\":%d,\"seed\":%" PRIu64,
                  r.spec.replicate, r.spec.seed);
    out += buf;
    out += ",\"ok\":";
    out += r.ok ? "true" : "false";
    if (!r.ok) {
      out += ",\"error\":";
      json_escape(out, r.error);
    }
    // Timeout/crash columns appear only when those paths were taken,
    // so legacy results.json output is byte-identical.
    if (r.timed_out) out += ",\"timed_out\":true";
    if (r.crashed) {
      out += ",\"crashed\":true";
      if (r.term_signal != 0) {
        std::snprintf(buf, sizeof(buf), ",\"signal\":%d", r.term_signal);
        out += buf;
      }
      if (!r.crash_report.empty()) {
        out += ",\"crash_report\":";
        json_escape(out, r.crash_report);
      }
    }
    out += ",\"wall_seconds\":";
    json_number(out, r.wall_seconds);
    out += ",\"metrics\":";
    json_metrics(out, r.metrics);
    out += '}';
    if (i + 1 < runs_.size()) out += ',';
    out += '\n';
  }
  out += "  ],\n  \"aggregates\": [\n";
  const auto aggs = aggregate();
  for (std::size_t i = 0; i < aggs.size(); ++i) {
    const CaseAggregate& a = aggs[i];
    out += "    {\"case\":";
    json_escape(out, a.name);
    out += ",\"params\":";
    json_point(out, a.point);
    std::snprintf(buf, sizeof(buf), ",\"n_ok\":%zu,\"n_error\":%zu", a.n_ok,
                  a.n_error);
    out += buf;
    out += ",\"metrics\":{";
    for (std::size_t mi = 0; mi < a.metrics.size(); ++mi) {
      const MetricAggregate& m = a.metrics[mi];
      if (mi) out += ',';
      json_escape(out, m.name);
      std::snprintf(buf, sizeof(buf), ":{\"n\":%zu,\"mean\":", m.n);
      out += buf;
      json_number(out, m.mean);
      out += ",\"stddev\":";
      json_number(out, m.stddev);
      out += ",\"ci95\":";
      json_number(out, m.ci95);
      out += '}';
    }
    out += "}}";
    if (i + 1 < aggs.size()) out += ',';
    out += '\n';
  }
  out += "  ],\n  \"wall_seconds_total\":";
  json_number(out, wall_seconds_total);
  out += "\n}\n";
  return out;
}

bool Results::write_json(
    const std::string& path, const std::string& experiment,
    std::uint64_t master_seed, int replicates, int jobs,
    double wall_seconds_total,
    const std::vector<std::pair<std::string, std::string>>& spec_extra) const {
  const std::string body = to_json(experiment, master_seed, replicates, jobs,
                                   wall_seconds_total, spec_extra);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "exp: cannot open %s for writing\n", tmp.c_str());
    return false;
  }
  const bool wrote = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "exp: failed writing %s\n", path.c_str());
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace rlacast::exp
