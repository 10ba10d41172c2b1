# The streamed request path of `impreg_cli query-batch` (ctest:
# cli_stream_test). A request file of five query batches separated by
# four add-edge lines must be served batch by batch on the live graph:
# with --shards=4 every heat-kernel/Nibble batch runs on the shard
# slices, so the engine never builds a global CSR
# (service.engine.freezes stays 0), and stdout equals the unsharded
# run's byte for byte. Invoked as:
#
#   cmake -DCLI=<impreg_cli> -DOUT_DIR=<scratch dir> -P cli_stream_test.cmake

foreach(var CLI OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_stream_test: -D${var}=... is required")
  endif()
endforeach()

file(MAKE_DIRECTORY ${OUT_DIR})
set(graph ${OUT_DIR}/er3000.txt)
set(requests ${OUT_DIR}/five_batches.jsonl)

execute_process(
  COMMAND ${CLI} generate er 3000 ${graph} 7
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate failed (${rc})")
endif()

file(WRITE ${requests} "")
foreach(batch RANGE 4)
  math(EXPR hk_seed "${batch} * 17 + 3")
  math(EXPR nibble_seed "${batch} * 29 + 11")
  file(APPEND ${requests}
    "{\"op\": \"query\", \"id\": \"hk${batch}\", \"method\": \"heat-kernel\", \"seeds\": [${hk_seed}], \"t\": 3.0, \"delta\": 1e-3, \"top\": 3}\n"
    "{\"op\": \"query\", \"id\": \"nb${batch}\", \"method\": \"nibble\", \"seeds\": [${nibble_seed}], \"steps\": 8, \"top\": 3}\n")
  if(batch LESS 4)
    math(EXPR u "${batch} * 101 + 5")
    math(EXPR v "${batch} * 211 + 1500")
    file(APPEND ${requests}
      "{\"op\": \"add-edge\", \"u\": ${u}, \"v\": ${v}, \"weight\": 1.0}\n")
  endif()
endforeach()

foreach(shards 1 4)
  execute_process(
    COMMAND ${CLI} query-batch ${graph} ${requests} --shards=${shards}
            --metrics
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out_${shards}
    ERROR_VARIABLE err_${shards})
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "query-batch --shards=${shards} failed (${rc}):\n"
                        "${err_${shards}}")
  endif()
endforeach()

if(NOT out_1 STREQUAL out_4)
  message(FATAL_ERROR "--shards=4 answers differ from --shards=1:\n"
                      "--- shards=1\n${out_1}--- shards=4\n${out_4}")
endif()
string(REGEX MATCH "service\\.engine\\.freezes[ \t]+[1-9][0-9]*" freezes
       "${err_4}")
if(freezes)
  message(FATAL_ERROR "sharded stream built a global CSR: ${freezes}")
endif()
string(REGEX MATCH "service\\.shard\\.freezes[ \t]+[1-9][0-9]*" shard_freezes
       "${err_4}")
if(NOT shard_freezes)
  message(FATAL_ERROR "sharded stream never ran on the shard slices:\n"
                      "${err_4}")
endif()
