// Declarative experiment specification: a run is a named scenario case plus
// a parameter point and a replicate index; a Grid expands cases x replicates
// into the ordered run list a Runner executes.
//
// Seed policy (the part everything else depends on): replicate 0 of every
// case runs with the grid's master seed itself — so a single-replicate grid
// reproduces the historical "every case at seed S" bench behaviour
// byte-for-byte — while replicates >= 1 derive their seed by hashing
// (master, case name, point, replicate) through the same FNV-1a/splitmix64
// pipeline as sim::SeedSequence.  Derivation depends only on the run's
// identity, never on thread count, completion order, or position in the
// grid, so --jobs N cannot perturb results.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rlacast::exp {

/// An ordered set of key=value parameters identifying a point of the sweep.
/// Order is the insertion order (deterministic, part of the run identity).
class Point {
 public:
  Point() = default;
  Point(std::initializer_list<std::pair<std::string, std::string>> kv)
      : params_(kv.begin(), kv.end()) {}

  Point& set(std::string key, std::string value);
  Point& set(std::string key, double value);
  Point& set(std::string key, std::int64_t value);

  /// Value for `key`, or `fallback` when absent.
  const std::string& get(const std::string& key,
                         const std::string& fallback = kEmpty) const;
  bool has(const std::string& key) const;
  double get_double(const std::string& key, double fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;

  const std::vector<std::pair<std::string, std::string>>& items() const {
    return params_;
  }

  /// Canonical "k1=v1,k2=v2" form; part of seed derivation and JSON output.
  std::string id() const;

 private:
  static const std::string kEmpty;
  std::vector<std::pair<std::string, std::string>> params_;
};

/// One scheduled run: case name + parameter point + replicate + derived seed.
struct RunSpec {
  std::string name;          // scenario case name (e.g. "L1")
  Point point;               // case parameters
  int replicate = 0;         // 0-based replicate index
  std::uint64_t seed = 0;    // deterministic per-run seed (see header note)
  std::size_t index = 0;     // position in the expanded grid (stable order)

  /// "name/k=v#r" — the human-readable run identity used in logs and JSON.
  std::string id() const;

  /// id() with every character outside [A-Za-z0-9._-] replaced by '_': the
  /// stem of the run's crash report and replay journal file names, so the
  /// two sort next to each other.
  std::string file_stem() const;
};

/// Derives the per-run seed from (master, name, point id, replicate).
/// Exposed so tests can assert the policy directly.
std::uint64_t derive_seed(std::uint64_t master_seed, const std::string& name,
                          const Point& point, int replicate);

/// Cartesian expansion of cases x replicates, in declaration order: all
/// replicates of case 0, then all replicates of case 1, ...
class Grid {
 public:
  Grid& add_case(std::string name, Point point = {});
  Grid& replicates(int r);
  Grid& master_seed(std::uint64_t seed);

  int num_replicates() const { return replicates_; }
  std::uint64_t master() const { return master_seed_; }
  std::size_t num_cases() const { return cases_.size(); }

  std::vector<RunSpec> expand() const;

 private:
  std::vector<std::pair<std::string, Point>> cases_;
  int replicates_ = 1;
  std::uint64_t master_seed_ = 1;
};

}  // namespace rlacast::exp
