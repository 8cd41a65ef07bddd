# Golden-output regression guard (ctest script mode).
#
# Runs one figure bench (or tests/topo_golden) in --smoke mode, hashes its
# stdout, and compares against the checked-in SHA-256 in tests/golden/. The congestion-control
# core refactor promised byte-identical bench output; this script turns
# that promise from a CHANGES.md claim into a CI-enforced property — any
# change to FP arithmetic order, RNG stream consumption, or stats note
# sequences shows up as a hash mismatch.
#
# Usage (wired up by tests/CMakeLists.txt):
#   cmake -DBENCH=<binary> -DGOLDEN=<hash file> -P golden_bench_test.cmake
#
# After an INTENTIONAL behaviour change, regenerate the hashes with
# tools/regen_golden.sh and commit the diff alongside the change.
if(NOT DEFINED BENCH OR NOT DEFINED GOLDEN)
  message(FATAL_ERROR
          "usage: cmake -DBENCH=<bench binary> -DGOLDEN=<sha256 file> "
          "-P golden_bench_test.cmake")
endif()

execute_process(
  COMMAND ${BENCH} --smoke
  OUTPUT_VARIABLE bench_out
  RESULT_VARIABLE bench_rc)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} --smoke exited with status ${bench_rc}")
endif()

string(SHA256 got "${bench_out}")

file(READ ${GOLDEN} want)
string(STRIP "${want}" want)
string(REGEX MATCH "^[0-9a-f]+" want "${want}")

if(NOT got STREQUAL want)
  message(FATAL_ERROR
          "golden-output mismatch for ${BENCH}:\n"
          "  expected ${want}\n"
          "  got      ${got}\n"
          "Bench stdout is no longer byte-identical to the checked-in "
          "reference. If the change is intentional, run "
          "tools/regen_golden.sh and commit the updated hashes.")
endif()
