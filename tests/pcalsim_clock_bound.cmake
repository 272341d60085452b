# pcalsim's front-end checks, on the annotated --example config:
#
#   - a latency that would wrap the 64-bit clock is refused, exit
#     nonzero, naming the key (docs/ROBUSTNESS.md, "Clock bounds");
#   - a misspelled key is refused, naming it;
#   - a cache size whose k multiplier overflows 64 bits is refused;
#   - a trace: replay of a .pct longer than workload.accesses stops at
#     exactly workload.accesses (needs TRACEPACK).
#
#   cmake -DPCALSIM=<path to pcalsim> -DWORK_DIR=<dir>
#         [-DTRACEPACK=<path to pcal-tracepack>] -P pcalsim_clock_bound.cmake
set(cfg "${WORK_DIR}/pcalsim_clock_bound.ini")
execute_process(COMMAND "${PCALSIM}" --example OUTPUT_FILE "${cfg}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "pcalsim --example failed: ${rc}")
endif()

# Runs pcalsim on the example config plus `ARGN` and requires a refusal
# whose stderr matches `pattern`.
function(expect_refusal what pattern)
  execute_process(COMMAND "${PCALSIM}" "${cfg}" workload.accesses=200000
                          ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "pcalsim accepted ${what}:\n${out}")
  endif()
  if(NOT err MATCHES "${pattern}")
    message(FATAL_ERROR "pcalsim did not name ${what}:\n${err}")
  endif()
  message(STATUS "refused ${what} as expected:\n${err}")
endfunction()

expect_refusal("a clock-wrapping latency"
               "miss_latency = 18446744073709551615"
               latency.miss=18446744073709551615)
expect_refusal("a misspelled key" "cache\\.sise = 16k" cache.sise=16k)
expect_refusal("an overflowing cache size"
               "cache_size = 18014398509481992k: .*overflows 64 bits"
               cache.size=18014398509481992k)

if(TRACEPACK)
  set(trace "${WORK_DIR}/pcalsim_clock_bound.pct")
  execute_process(COMMAND "${TRACEPACK}" gen cjpeg 50000 "${trace}"
                  RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "pcal-tracepack gen failed: ${rc}")
  endif()
  execute_process(COMMAND "${PCALSIM}" "${cfg}" workload.accesses=20000
                          "workload.name=trace:${trace}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "pcalsim trace replay failed (${rc}):\n${err}")
  endif()
  if(NOT out MATCHES "\naccesses: 20000,")
    message(FATAL_ERROR "trace replay not capped at 20000 accesses:\n${out}")
  endif()
  message(STATUS "trace replay capped at workload.accesses")
endif()
