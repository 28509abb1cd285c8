# Regenerates the fuzz corpus into a scratch directory and byte-compares
# every generated seed with the committed one under fuzz/corpus/, so an
# encoder change that moves a seed fails here until the corpus is
# regenerated (./build/fuzz/fuzz_make_corpus fuzz/corpus .). Frozen seeds
# are not generated, so they are not compared. Registered as the
# `fuzz_corpus_stable` ctest entry (fuzz/CMakeLists.txt).
#
#   cmake -DMAKE_CORPUS=<build/fuzz/fuzz_make_corpus> -DREPO_DIR=<repo> \
#         -DOUT_DIR=<scratch dir> -P CorpusStable.cmake

if(NOT EXISTS "${MAKE_CORPUS}")
  message(FATAL_ERROR "missing corpus generator: ${MAKE_CORPUS} (build the "
                      "fuzz_make_corpus target first)")
endif()
file(REMOVE_RECURSE "${OUT_DIR}")
execute_process(COMMAND "${MAKE_CORPUS}" "${OUT_DIR}" "${REPO_DIR}"
                RESULT_VARIABLE rv OUTPUT_QUIET)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "fuzz_make_corpus failed (exit ${rv})")
endif()

file(GLOB_RECURSE seeds RELATIVE "${OUT_DIR}" "${OUT_DIR}/*")
list(LENGTH seeds count)
if(count EQUAL 0)
  message(FATAL_ERROR "fuzz_make_corpus generated no seeds")
endif()
set(drifted "")
foreach(seed IN LISTS seeds)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${OUT_DIR}/${seed}" "${REPO_DIR}/fuzz/corpus/${seed}"
    RESULT_VARIABLE differ OUTPUT_QUIET ERROR_QUIET)
  if(NOT differ EQUAL 0)
    list(APPEND drifted "${seed}")
  endif()
endforeach()
file(REMOVE_RECURSE "${OUT_DIR}")
if(drifted)
  list(JOIN drifted ", " names)
  message(FATAL_ERROR "generated seeds differ from fuzz/corpus/ or are "
                      "missing there: ${names}")
endif()
message(STATUS "all ${count} generated seeds match fuzz/corpus/")
