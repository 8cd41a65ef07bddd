#include "exp/spec.hpp"

#include <cstdio>
#include <stdexcept>

#include "sim/random.hpp"

namespace rlacast::exp {

const std::string Point::kEmpty;

Point& Point::set(std::string key, std::string value) {
  for (auto& kv : params_) {
    if (kv.first == key) {
      kv.second = std::move(value);
      return *this;
    }
  }
  params_.emplace_back(std::move(key), std::move(value));
  return *this;
}

namespace {

std::string format_double(double v) {
  // %g-style without trailing zeros so "5" round-trips as "5", not "5.000000".
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

Point& Point::set(std::string key, double value) {
  return set(std::move(key), format_double(value));
}

Point& Point::set(std::string key, std::int64_t value) {
  return set(std::move(key), std::to_string(value));
}

const std::string& Point::get(const std::string& key,
                              const std::string& fallback) const {
  for (const auto& kv : params_) {
    if (kv.first == key) return kv.second;
  }
  return fallback;
}

bool Point::has(const std::string& key) const {
  for (const auto& kv : params_) {
    if (kv.first == key) return true;
  }
  return false;
}

double Point::get_double(const std::string& key, double fallback) const {
  if (!has(key)) return fallback;
  return std::stod(get(key));
}

std::int64_t Point::get_int(const std::string& key,
                            std::int64_t fallback) const {
  if (!has(key)) return fallback;
  return std::stoll(get(key));
}

std::string Point::id() const {
  std::string out;
  for (const auto& kv : params_) {
    if (!out.empty()) out += ',';
    out += kv.first;
    out += '=';
    out += kv.second;
  }
  return out;
}

std::string RunSpec::file_stem() const {
  std::string out = id();
  for (char& c : out) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '.' ||
                      c == '_';
    if (!keep) c = '_';
  }
  return out;
}

std::string RunSpec::id() const {
  std::string out = name;
  const std::string pid = point.id();
  if (!pid.empty()) {
    out += '/';
    out += pid;
  }
  out += '#';
  out += std::to_string(replicate);
  return out;
}

std::uint64_t derive_seed(std::uint64_t master_seed, const std::string& name,
                          const Point& point, int replicate) {
  if (replicate == 0) return master_seed;  // byte-compat with legacy benches
  RunSpec key;
  key.name = name;
  key.point = point;
  key.replicate = replicate;
  return sim::SeedSequence(master_seed).seed_for("exp/" + key.id());
}

Grid& Grid::add_case(std::string name, Point point) {
  cases_.emplace_back(std::move(name), std::move(point));
  return *this;
}

Grid& Grid::replicates(int r) {
  if (r < 1) throw std::invalid_argument("Grid::replicates: r must be >= 1");
  replicates_ = r;
  return *this;
}

Grid& Grid::master_seed(std::uint64_t seed) {
  master_seed_ = seed;
  return *this;
}

std::vector<RunSpec> Grid::expand() const {
  std::vector<RunSpec> runs;
  runs.reserve(cases_.size() * static_cast<std::size_t>(replicates_));
  for (const auto& [name, point] : cases_) {
    for (int r = 0; r < replicates_; ++r) {
      RunSpec spec;
      spec.name = name;
      spec.point = point;
      spec.replicate = r;
      spec.seed = derive_seed(master_seed_, name, point, r);
      spec.index = runs.size();
      runs.push_back(std::move(spec));
    }
  }
  return runs;
}

}  // namespace rlacast::exp
