# CI exit-code contract for knctl analyze/lint:
#   0 = clean (warnings allowed), 1 = findings, 2 = unusable input.
# and for knctl query: 0 = results printed, 2 = bad pipeline or record.
#
# Usage: cmake -DKNCTL=<path> -DSPECS=<dir> -DFIXTURES=<dir> -P cli_exit_codes.cmake
cmake_minimum_required(VERSION 3.16)
foreach(var KNCTL SPECS FIXTURES)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

set(scratch ${CMAKE_CURRENT_BINARY_DIR}/knctl_exit_scratch)
file(MAKE_DIRECTORY ${scratch})

function(expect_rc label want)
  execute_process(COMMAND ${ARGN}
                  OUTPUT_VARIABLE out ERROR_VARIABLE out
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL ${want})
    message(FATAL_ERROR "${label}: expected exit ${want}, got ${rc}\n${out}")
  endif()
  message(STATUS "${label}: exit ${rc} as expected")
endfunction()

# --- clean inputs -> 0 -------------------------------------------------------
expect_rc("analyze clean" 0
  ${KNCTL} analyze ${SPECS}/retail_dxg.yaml)
expect_rc("lint clean" 0
  ${KNCTL} lint ${SPECS}/retail_dxg.yaml
          --schema ${SPECS}/checkout_schema.yaml
          --schema ${SPECS}/shipping_schema.yaml
          --schema ${SPECS}/payment_schema.yaml)

# --- findings -> 1 -----------------------------------------------------------
file(WRITE ${scratch}/dangling.yaml
  "Input:\n  C: some/store\nDXG:\n  C:\n    a: Z.b\n")
expect_rc("analyze with issues" 1
  ${KNCTL} analyze ${scratch}/dangling.yaml)
expect_rc("lint with issues" 1
  ${KNCTL} lint ${scratch}/dangling.yaml)

# --- unusable input -> 2 -----------------------------------------------------
file(WRITE ${scratch}/garbage.yaml "- just\n- a\n- sequence\n")
expect_rc("analyze unparsable" 2
  ${KNCTL} analyze ${scratch}/garbage.yaml)
expect_rc("lint unparsable" 2
  ${KNCTL} lint ${scratch}/garbage.yaml)
expect_rc("lint missing file" 2
  ${KNCTL} lint ${scratch}/no_such_file.yaml)
expect_rc("lint bad schema file" 2
  ${KNCTL} lint ${SPECS}/retail_dxg.yaml --schema ${scratch}/garbage.yaml)

# --- json output stays well-formed and drives the same exit codes ------------
execute_process(COMMAND ${KNCTL} analyze ${scratch}/dangling.yaml --format json
                OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 1 OR NOT out MATCHES "\"code\": \"KN001\"")
  message(FATAL_ERROR "analyze --format json: rc=${rc} out:\n${out}")
endif()
execute_process(COMMAND ${KNCTL} lint ${scratch}/dangling.yaml --format json
                OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 1 OR NOT out MATCHES "\"diagnostics\"")
  message(FATAL_ERROR "lint --format json: rc=${rc} out:\n${out}")
endif()
message(STATUS "json smoke OK")

# --- knctl query: the pipeline runs as LogPool::query runs it ----------------
# The last record's filter would error, but the fused plan stops reading
# once `head 1` is satisfied, exactly as a pool query does.
file(WRITE ${scratch}/readings.jsonl
  "{\"device\": \"lamp\", \"kwh\": 0.2, \"room\": \"hall\"}\n"
  "{\"device\": \"heater\", \"kwh\": 2.5, \"room\": \"attic\"}\n"
  "\n"
  "{\"device\": \"meter\", \"kwh\": \"n/a\", \"room\": \"hall\"}\n")
execute_process(COMMAND ${KNCTL} query
                        "where kwh * 2 > 1 | cut device, kwh | head 1"
                        ${scratch}/readings.jsonl
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT out STREQUAL "{\"device\":\"heater\",\"kwh\":2.5}\n")
  message(FATAL_ERROR "query fixture: rc=${rc} out:\n${out}${err}")
endif()
message(STATUS "query fixture: exit 0 with the expected line")
expect_rc("query malformed pipeline" 2
  ${KNCTL} query "where kwh >" ${scratch}/readings.jsonl)
file(WRITE ${scratch}/bad_record.jsonl
  "{\"device\": \"lamp\", \"kwh\": 0.2}\n{\"device\": \n")
expect_rc("query malformed record" 2
  ${KNCTL} query "where kwh > 0.5" ${scratch}/bad_record.jsonl)
