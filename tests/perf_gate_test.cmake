# Perf-regression gate (ROADMAP item 5): run `bench_engine --trajectory`
# fresh and compare its headline metrics against the checked-in repo-root
# BENCH_engine.json snapshot.  Each metric is judged in its own direction:
#  * every metric warns when it falls more than 15% below the snapshot
#    (a throughput drop);
#  * lower-is-better cost metrics (keys containing `_ns`, ending in
#    `cpu_us_per_ack` or `bytes_per_rcvr`) also warn when they rise more
#    than 15% above it (a slowdown);
#  * outcome metrics (fairness results ending in `.ratio`, `.inband`,
#    `.baseline_ratio`, `.jain_min`, `.band_inband`) also warn when they
#    rise more than 15%: any drift of an outcome is a behaviour change.
# A warning is a CMake WARNING — visible in the ctest log — and does NOT
# fail the test: shared CI machines make hard throughput gates too flaky,
# and the snapshot itself is regenerated (tools/regen_results.sh) on
# machines that don't match CI.  The test FAILS only when the bench itself
# fails or emits no trajectory.
#
# Invoked by ctest as:
#   cmake -DBENCH=<bench_engine> -DBASELINE=<BENCH_engine.json>
#         -DWORKDIR=<scratch> -P perf_gate_test.cmake
#
# Compatibility: the project's cmake_minimum_required is 3.16, which has no
# string(JSON) and whose math() is integer-only — metrics are regex-parsed
# and the 0.85x threshold comparison is delegated to awk (skipped with a
# notice on hosts without awk).

if(NOT DEFINED BENCH OR NOT DEFINED BASELINE OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "perf_gate_test: need -DBENCH, -DBASELINE, -DWORKDIR")
endif()
if(NOT EXISTS "${BASELINE}")
  message(FATAL_ERROR "perf_gate_test: baseline snapshot ${BASELINE} missing")
endif()

file(MAKE_DIRECTORY "${WORKDIR}")
set(FRESH "${WORKDIR}/engine-trajectory.json")
file(REMOVE "${FRESH}")

execute_process(
  COMMAND "${BENCH}" --trajectory "${FRESH}"
  RESULT_VARIABLE bench_status
  OUTPUT_VARIABLE bench_out
  ERROR_VARIABLE bench_err)
if(NOT bench_status EQUAL 0)
  message(FATAL_ERROR
          "perf_gate: ${BENCH} exited ${bench_status}\n${bench_out}\n${bench_err}")
endif()
if(NOT EXISTS "${FRESH}")
  message(FATAL_ERROR "perf_gate: bench emitted no trajectory at ${FRESH}")
endif()

# Extracts `"case.metric": <number>` pairs; keys land in <prefix>_keys and
# values in <prefix>_<key>.  Only dotted keys match, which selects exactly
# the per-case throughput metrics and skips config scalars like "seed".
# Key segments may carry hyphens and further dots (the workload snapshot
# uses "sack-ftp.droptail.jain_min"-shaped keys).
function(parse_metrics json_path prefix)
  file(READ "${json_path}" raw)
  string(REGEX MATCHALL
         "\"[A-Za-z0-9_-]+(\\.[A-Za-z0-9_-]+)+\"[ \t]*:[ \t]*[-+.0-9eE]+"
         pairs "${raw}")
  set(keys "")
  foreach(pair IN LISTS pairs)
    string(REGEX REPLACE "\"([A-Za-z0-9_.-]+)\".*" "\\1" key "${pair}")
    string(REGEX REPLACE ".*:[ \t]*([-+.0-9eE]+)" "\\1" val "${pair}")
    list(APPEND keys "${key}")
    set(${prefix}_${key} "${val}" PARENT_SCOPE)
  endforeach()
  set(${prefix}_keys "${keys}" PARENT_SCOPE)
endfunction()

parse_metrics("${BASELINE}" base)
parse_metrics("${FRESH}" fresh)

list(LENGTH base_keys n_base)
if(n_base EQUAL 0)
  message(FATAL_ERROR "perf_gate: no metrics parsed from ${BASELINE}")
endif()

find_program(AWK awk)
if(NOT AWK)
  message(STATUS "perf_gate: awk not found; parsed ${n_base} baseline metrics, "
                 "skipping threshold comparison")
  return()
endif()

set(regressions 0)
foreach(key IN LISTS base_keys)
  if(NOT DEFINED fresh_${key})
    message(WARNING "perf_gate: metric ${key} in snapshot but missing from "
                    "fresh run — bench output drifted?")
    continue()
  endif()
  set(regen "(regenerate ${BASELINE} via tools/regen_results.sh if "
            "intentional)")
  # below = 1 when fresh < 0.85 * baseline (a >15% drop); above = 1 when
  # fresh > 1.15 * baseline (a >15% rise).
  execute_process(
    COMMAND "${AWK}" "BEGIN { f = ${fresh_${key}}; b = ${base_${key}}; print (f < 0.85 * b) \" \" (f > 1.15 * b) }"
    OUTPUT_VARIABLE verdict
    OUTPUT_STRIP_TRAILING_WHITESPACE)
  string(REPLACE " " ";" verdict "${verdict}")
  list(GET verdict 0 below)
  list(GET verdict 1 above)
  if(below STREQUAL "1")
    math(EXPR regressions "${regressions} + 1")
    message(WARNING "perf_gate: ${key} fell >15% below the checked-in "
                    "snapshot: ${fresh_${key}} vs baseline ${base_${key}} "
                    ${regen})
  endif()
  if(above STREQUAL "1")
    if(key MATCHES "_ns" OR key MATCHES "cpu_us_per_ack$" OR
       key MATCHES "bytes_per_rcvr$")
      math(EXPR regressions "${regressions} + 1")
      message(WARNING "perf_gate: lower-is-better ${key} rose >15% above the "
                      "checked-in snapshot: ${fresh_${key}} vs baseline "
                      "${base_${key}} " ${regen})
    elseif(key MATCHES "\\.(ratio|inband|baseline_ratio|jain_min|band_inband)$")
      math(EXPR regressions "${regressions} + 1")
      message(WARNING "perf_gate: outcome ${key} drifted >15% above the "
                      "checked-in snapshot: ${fresh_${key}} vs baseline "
                      "${base_${key}} " ${regen})
    endif()
  endif()
endforeach()

if(regressions EQUAL 0)
  message(STATUS "perf_gate: ${n_base} metrics within 15% of ${BASELINE} "
                 "in their gated directions")
else()
  message(STATUS "perf_gate: ${regressions} metric(s) outside threshold "
                 "(warned, not failed)")
endif()
