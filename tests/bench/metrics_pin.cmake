# The deterministic metrics pin: perf_tick's obs export of its four
# frozen configs must match the committed BENCH_metrics.json in every
# 'deterministic' value (wall_time values warn only), and any flag
# other than --metrics-out FILE must print the usage and exit 2.
#
# Run: cmake -DPERF_TICK=<path to perf_tick> -DPYTHON=<python3>
#            -DSOURCE_DIR=<repo root> -DOUT=<fresh export path>
#            -P metrics_pin.cmake
foreach(var PERF_TICK PYTHON SOURCE_DIR OUT)
    if(NOT ${var})
        message(FATAL_ERROR "pass -D${var}=...")
    endif()
endforeach()

foreach(case "--quick" "--metrics-out")
    execute_process(COMMAND ${PERF_TICK} ${case}
                    RESULT_VARIABLE rc
                    OUTPUT_QUIET
                    ERROR_VARIABLE err)
    if(NOT rc STREQUAL "2" OR NOT err MATCHES "usage:")
        message(FATAL_ERROR
                "perf_tick ${case}: exit status '${rc}', want 2 "
                "with a usage message:\n${err}")
    endif()
endforeach()

execute_process(COMMAND ${PERF_TICK} --metrics-out ${OUT}
                RESULT_VARIABLE rc
                OUTPUT_QUIET)
if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "perf_tick --metrics-out: exit status '${rc}'")
endif()

execute_process(COMMAND ${PYTHON}
                        ${SOURCE_DIR}/scripts/check_bench_schema.py
                        ${SOURCE_DIR}/BENCH_metrics.json ${OUT}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "fresh export drifts from BENCH_metrics.json:\n"
                        "${err}${out}")
endif()
