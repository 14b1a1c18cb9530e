# Numeric flags of example_pliant_cli: a malformed value must print
# the usage message and exit 2 — never abort on an uncaught exception
# and never run with the bad value. A well-formed run must exit 0.
#
# Run: cmake -DCLI=<path to example_pliant_cli> -P cli_parse_errors.cmake
if(NOT CLI)
    message(FATAL_ERROR "pass -DCLI=<path to example_pliant_cli>")
endif()

set(bad_cases
    "--seed abc"
    "--seed 12x"
    "--seed -1"
    "--load nan"
    "--load -1"
    "--load inf"
    "--load 0.5x"
    "--load"
    "--interval-s 0"
    "--nodes 0"
    "--epoch-s nan"
    "--queue-bound-qos -2"
    "--batching fixed:abc"
    "--batching adaptive:nan"
    "--nodes 2 --quality-budget nan"
    "--nodes 2 --shed-budget -0.5")

foreach(case IN LISTS bad_cases)
    separate_arguments(args UNIX_COMMAND "${case}")
    execute_process(COMMAND ${CLI} ${args}
                    RESULT_VARIABLE rc
                    OUTPUT_QUIET
                    ERROR_VARIABLE err)
    if(NOT rc STREQUAL "2")
        message(FATAL_ERROR
                "pliant_cli ${case}: exit status '${rc}', want 2")
    endif()
    if(NOT err MATCHES "usage:")
        message(FATAL_ERROR
                "pliant_cli ${case}: no usage message on stderr:\n${err}")
    endif()
endforeach()

execute_process(COMMAND ${CLI} --seed 7 --load 0.5 --interval-s 1
                RESULT_VARIABLE rc
                OUTPUT_QUIET)
if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "pliant_cli well-formed run: exit status '${rc}'")
endif()
