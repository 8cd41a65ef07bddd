# Command-line contract check for a bench binary (ctest script mode).
#
# Runs BENCH with ARGS (a ;-list) and requires exit status EXPECT_RC and a
# stderr matching the regex EXPECT_STDERR.
#
# Usage (wired up by tests/CMakeLists.txt):
#   cmake -DBENCH=<binary> "-DARGS=<a;b;c>" -DEXPECT_RC=<n>
#         -DEXPECT_STDERR=<regex> -P bench_cli_test.cmake
if(NOT DEFINED BENCH OR NOT DEFINED EXPECT_RC OR NOT DEFINED EXPECT_STDERR)
  message(FATAL_ERROR
          "usage: cmake -DBENCH=<bench binary> -DARGS=<args> "
          "-DEXPECT_RC=<n> -DEXPECT_STDERR=<regex> -P bench_cli_test.cmake")
endif()

execute_process(
  COMMAND ${BENCH} ${ARGS}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL EXPECT_RC)
  message(FATAL_ERROR
          "${BENCH} ${ARGS} exited with status ${rc}, expected ${EXPECT_RC}\n"
          "stderr: ${err}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR
          "${BENCH} ${ARGS}: stderr does not match '${EXPECT_STDERR}':\n${err}")
endif()
