// Marker safety: the benchmark's marker events and observer must not
// change what is simulated. For one seed per workload this runs the workload
// with no markers (observer only, totals read at teardown) and with the
// markers of an untraced and of a traced benchmark run, and requires equal
// FlowRows, dispatch counts (marker events excluded) and ACK counts.
//
// Run with `ctest --test-dir .bench_build` after building perfbench, or
// directly as .bench_build/marker_safety_test.
#include <cstdio>

#include "workloads.hpp"

using namespace perfbench;

int main() {
  constexpr std::uint64_t kSeed = 1000;
  int failures = 0;
  for (const Workload& w : workloads()) {
    const RunOutcome bare = run_once(w, kSeed, {.markers = false});
    const RunOutcome marked = run_once(w, kSeed, {});
    const RunOutcome traced = run_once(w, kSeed, {.traced = true});
    const auto ref = fingerprint(bare);
    for (const auto* r : {&marked, &traced}) {
      const char* mode = r == &marked ? "untraced" : "traced";
      std::string diff;
      if (!bare.completed || !r->completed)
        diff = "run did not complete: " + bare.error + r->error;
      else
        diff = first_difference(ref, fingerprint(*r));
      if (!diff.empty()) ++failures;
      std::printf("%-16s %-9s %s%s  (dispatched %llu, acks %llu)\n",
                  w.name.c_str(), mode, diff.empty() ? "same" : "DIFFERS in ",
                  diff.c_str(),
                  static_cast<unsigned long long>(r->dispatched),
                  static_cast<unsigned long long>(r->acks));
    }
  }
  std::printf("%s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}
