# pcalsim must refuse a latency that would wrap the 64-bit clock, exit
# nonzero and name the offending key (docs/ROBUSTNESS.md, "Clock
# bounds").  Runs the annotated --example config at 200k accesses with
# the largest 64-bit miss latency.
#
#   cmake -DPCALSIM=<path to pcalsim> -DWORK_DIR=<dir> -P pcalsim_clock_bound.cmake
set(cfg "${WORK_DIR}/pcalsim_clock_bound.ini")
execute_process(COMMAND "${PCALSIM}" --example OUTPUT_FILE "${cfg}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "pcalsim --example failed: ${rc}")
endif()
execute_process(COMMAND "${PCALSIM}" "${cfg}" workload.accesses=200000
                        latency.miss=18446744073709551615
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "pcalsim accepted a clock-wrapping latency:\n${out}")
endif()
if(NOT err MATCHES "miss_latency = 18446744073709551615")
  message(FATAL_ERROR "pcalsim did not name the key:\n${err}")
endif()
message(STATUS "refused as expected:\n${err}")
