# Runs one deterministic bench at MVPT_BENCH_QUICK=1 and compares its
# stdout, byte for byte, with the committed golden file. Registered as the
# `bench_counts_<bench>` ctest entries (bench/CMakeLists.txt). The benches'
# tables print distance counts per query, which are a pure function of the
# code and the pinned seeds, so any change to pruning shows up here.
#
#   cmake -DBENCH=<binary> -DGOLDEN=<tests/testdata/bench_counts/x.txt> \
#         -DFRESH=<scratch file> -P BenchCounts.cmake
#
# With MVPT_BLESS_GOLDEN=1 in the environment it rewrites GOLDEN instead.

set(ENV{MVPT_BENCH_QUICK} 1)
execute_process(COMMAND "${BENCH}"
                OUTPUT_FILE "${FRESH}"
                RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rv}")
endif()

if(DEFINED ENV{MVPT_BLESS_GOLDEN} AND NOT "$ENV{MVPT_BLESS_GOLDEN}" STREQUAL ""
   AND NOT "$ENV{MVPT_BLESS_GOLDEN}" STREQUAL "0")
  configure_file("${FRESH}" "${GOLDEN}" COPYONLY)
  message(STATUS "blessed ${GOLDEN}")
  return()
endif()

if(NOT EXISTS "${GOLDEN}")
  message(FATAL_ERROR "missing ${GOLDEN} (run with MVPT_BLESS_GOLDEN=1 to "
                      "create it)")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${GOLDEN}" "${FRESH}"
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  execute_process(COMMAND diff -u "${GOLDEN}" "${FRESH}")
  message(FATAL_ERROR "quick-mode output of ${BENCH} differs from ${GOLDEN}; "
                      "re-bless with MVPT_BLESS_GOLDEN=1 only for an intended "
                      "change, and quote the diff")
endif()
