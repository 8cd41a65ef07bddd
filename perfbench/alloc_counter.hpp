// Process-wide heap-allocation counter. alloc_counter.cpp replaces the
// global operator new/delete of every binary that links perfbench_core, so
// the counts cover the whole library; the benchmark is single-threaded, so
// plain (non-atomic) counters are exact.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCount {
  std::uint64_t count = 0;  // operator new calls
  std::uint64_t bytes = 0;  // bytes requested
};

AllocCount alloc_now();

}  // namespace perfbench
