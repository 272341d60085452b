# A resumed sweep must reproduce its uninterrupted run byte for byte
# (docs/ROBUSTNESS.md).  For the contention and multi-core grids — whose
# results carry the MSHR/port/bandwidth stall breakdown and per-core rows
# — run the spec with --journal, then --resume the complete journal:
#
#   - stdout (the table) is identical;
#   - the BENCH records are identical once the run-varying keys
#     (wall_seconds, accesses_per_second, threads, steals) are dropped;
#   - the fully restored run simulated nothing, so it reports a rate of
#     0 in its stderr summary and its record's accesses_per_second.
#
#   cmake -DPCALSWEEP=<path to pcalsweep> -DSOURCE_DIR=<repo root>
#         -DWORK_DIR=<scratch dir> -P pcalsweep_resume_identity.cmake

# The record text a resume must reproduce: the one BENCH record in `dir`
# minus its run-varying lines.
function(stable_record dir out_var)
  file(GLOB records "${dir}/BENCH_*.json")
  list(LENGTH records n)
  if(NOT n EQUAL 1)
    message(FATAL_ERROR "expected one BENCH record in ${dir}, got: ${records}")
  endif()
  file(READ "${records}" text)
  string(REGEX REPLACE
         "\n *\"(wall_seconds|accesses_per_second|threads|steals)\": [^\n]*"
         "" text "${text}")
  set(${out_var} "${text}" PARENT_SCOPE)
endfunction()

foreach(spec contention multicore)
  set(dir "${WORK_DIR}/${spec}")
  file(REMOVE_RECURSE "${dir}")
  file(MAKE_DIRECTORY "${dir}/full" "${dir}/resumed")
  set(journal "${dir}/run.pcalj")
  set(spec_file "${SOURCE_DIR}/examples/${spec}.sweep")

  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env PCAL_BENCH_ACCESSES=20000
            PCAL_BENCH_JSON_DIR=${dir}/full
            "${PCALSWEEP}" --journal "${journal}" "${spec_file}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE full_out ERROR_VARIABLE full_err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${spec}: journaled run failed (${rc}):\n${full_err}")
  endif()

  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env PCAL_BENCH_ACCESSES=20000
            PCAL_BENCH_JSON_DIR=${dir}/resumed
            "${PCALSWEEP}" --resume "${journal}" "${spec_file}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE resumed_out ERROR_VARIABLE resumed_err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${spec}: resumed run failed (${rc}):\n${resumed_err}")
  endif()

  if(NOT resumed_err MATCHES "resume: [1-9][0-9]* jobs restored")
    message(FATAL_ERROR "${spec}: the journal fed no jobs:\n${resumed_err}")
  endif()
  if(NOT resumed_out STREQUAL full_out)
    message(FATAL_ERROR "${spec}: resumed stdout differs from the "
                        "uninterrupted run.\n--- uninterrupted ---\n"
                        "${full_out}\n--- resumed ---\n${resumed_out}")
  endif()

  stable_record("${dir}/full" full_record)
  stable_record("${dir}/resumed" resumed_record)
  if(NOT resumed_record STREQUAL full_record)
    message(FATAL_ERROR "${spec}: resumed BENCH record differs.\n"
                        "--- uninterrupted ---\n${full_record}\n"
                        "--- resumed ---\n${resumed_record}")
  endif()

  # Nothing was simulated: the rate is 0, not merged accesses / setup time.
  if(NOT resumed_err MATCHES ", 0\\.0M accesses/s")
    message(FATAL_ERROR "${spec}: restored run reports a nonzero rate:\n"
                        "${resumed_err}")
  endif()
  file(GLOB record "${dir}/resumed/BENCH_*.json")
  file(READ "${record}" text)
  if(NOT text MATCHES "\n  \"accesses_per_second\": 0,\n")
    message(FATAL_ERROR "${spec}: restored record reports a nonzero rate:\n"
                        "${text}")
  endif()
  message(STATUS "${spec}: resume is byte-identical, rate 0")
endforeach()
