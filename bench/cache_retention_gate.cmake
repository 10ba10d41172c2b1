# Regression gate for the cache-retention report (ctest:
# cache_retention_gate). Runs the BM_CacheRetention family fresh and
# diffs it against the checked-in baseline
# bench/out/BENCH_cache_retention.json with impreg_bench_diff. The
# timing threshold is generous (the baseline was recorded on a
# different machine); the real teeth are inside the bench itself,
# which aborts unless surgical invalidation keeps serving exact cache
# hits (which invalidate-all never does) under a mixed add/remove edit
# stream. Invoked as:
#
#   cmake -DBENCH=<cache_retention> -DDIFF=<impreg_bench_diff>
#         -DBASELINE=<bench/out/BENCH_cache_retention.json>
#         -DOUT_DIR=<scratch dir> -P cache_retention_gate.cmake

foreach(var BENCH DIFF BASELINE OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cache_retention_gate: -D${var}=... is required")
  endif()
endforeach()

file(MAKE_DIRECTORY ${OUT_DIR})

execute_process(
  COMMAND ${BENCH} --out=${OUT_DIR}/fresh.json
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cache_retention run failed (${rc})")
endif()

execute_process(
  COMMAND ${DIFF} ${BASELINE} ${OUT_DIR}/fresh.json --max-regress=2000%
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cache retention regression gate failed (${rc})")
endif()
