# The golden corpus: committed outputs that pin the engine byte for byte
# (tests/golden/).  Every examples/*.sweep runs at
# PCAL_BENCH_ACCESSES=20000, once with 1 sweep worker and once with 8:
#
#   - its stdout (the table) must equal tests/golden/<spec>.out;
#   - its --journal job records, sorted by job index, must hash
#     (SHA-256) to tests/golden/<spec>.journal.sha256.  Journal doubles
#     are C99 hexfloat, so a one-ulp drift in any stored result field
#     moves the digest even where the table's rounding hides it.
#
# pcalsim's stdout is pinned on the CI smoke configs too
# (tests/golden/pcalsim_<name>.out): the four 3-level inclusion runs, a
# sha+cjpeg multiprogram stream with a 2000-access quantum, and the two
# 2-core shared-LLC runs (fully shared, then 4+4 ways).
#
# With -DBENCH_DIR, the stdout of the routed-path bench binaries
# (bench_hierarchy_depth, bench_contention_scaling, bench_multicore_qos)
# at PCAL_BENCH_ACCESSES=20000 is pinned too (tests/golden/bench_<name>.out),
# once with 1 sweep worker and once with 8.
#
# On a mismatch the fresh outputs are written to <WORK_DIR>/fresh/ and
# the test fails naming each file.  -DUPDATE_GOLDEN=ON (on this script,
# or on the CMake configure, which forwards it) rewrites tests/golden/
# from the 1-worker runs instead; the 8-worker runs must still agree.
#
#   cmake -DPCALSWEEP=<pcalsweep> -DPCALSIM=<pcalsim>
#         -DTRACEPACK=<pcal-tracepack> -DSOURCE_DIR=<repo root>
#         -DWORK_DIR=<scratch dir> [-DBENCH_DIR=<bench binaries>]
#         [-DUPDATE_GOLDEN=ON]
#         -P golden_corpus.cmake
cmake_minimum_required(VERSION 3.16)

set(golden_dir "${SOURCE_DIR}/tests/golden")
set(fresh_dir "${WORK_DIR}/fresh")
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/records" "${fresh_dir}")
set(mismatches "")

# SHA-256 of a journal's job records ("J <index> ..." lines) in job-index
# order.  The lines are keyed by a zero-padded index and sorted as a
# CMake list; list-special characters are replaced first so no record
# can split or merge.
function(journal_digest journal out_var)
  file(READ "${journal}" text)
  foreach(special "\\" ";" "[" "]")
    string(REPLACE "${special}" "<${special}>" text "${text}")
  endforeach()
  string(REPLACE "\n" ";" lines "${text}")
  set(keyed "")
  foreach(line IN LISTS lines)
    if(line MATCHES "^J ([0-9]+) ")
      string(LENGTH "${CMAKE_MATCH_1}" width)
      math(EXPR pad "12 - ${width}")
      string(REPEAT "0" ${pad} zeros)
      list(APPEND keyed "${zeros}${CMAKE_MATCH_1} ${line}")
    endif()
  endforeach()
  list(SORT keyed)
  set(records "")
  foreach(entry IN LISTS keyed)
    string(REGEX REPLACE "^[0-9]+ " "" entry "${entry}")
    string(APPEND records "${entry}\n")
  endforeach()
  string(SHA256 digest "${records}")
  set(${out_var} "${digest}\n" PARENT_SCOPE)
endfunction()

# Compares `text` with the golden file `name` (or writes it when
# updating); a mismatch lands in fresh/ and in `mismatches`.
function(check_golden name text)
  set(golden "${golden_dir}/${name}")
  if(UPDATE_GOLDEN AND NOT "${name}" IN_LIST updated)
    file(WRITE "${golden}" "${text}")
    set(updated ${updated} "${name}" PARENT_SCOPE)
    return()
  endif()
  set(expected "")
  if(EXISTS "${golden}")
    file(READ "${golden}" expected)
  endif()
  if(NOT text STREQUAL expected)
    file(WRITE "${fresh_dir}/${name}" "${text}")
    set(mismatches ${mismatches} "${name}" PARENT_SCOPE)
  endif()
endfunction()

# trace_mix.sweep reads demo.pct from the working directory.
execute_process(COMMAND "${TRACEPACK}" gen cjpeg 100000 demo.pct
                WORKING_DIRECTORY "${WORK_DIR}" RESULT_VARIABLE rc
                OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "pcal-tracepack gen failed (${rc})")
endif()

set(updated "")
file(GLOB specs "${SOURCE_DIR}/examples/*.sweep")
foreach(spec_file IN LISTS specs)
  get_filename_component(spec "${spec_file}" NAME_WE)
  foreach(workers 1 8)
    set(journal "${WORK_DIR}/${spec}_${workers}.pcalj")
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E env PCAL_BENCH_ACCESSES=20000
              PCAL_BENCH_THREADS=${workers}
              PCAL_BENCH_JSON_DIR=${WORK_DIR}/records
              "${PCALSWEEP}" --journal "${journal}" "${spec_file}"
      WORKING_DIRECTORY "${WORK_DIR}"
      RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${spec} (${workers} workers) failed (${rc}):\n"
                          "${err}")
    endif()
    check_golden("${spec}.out" "${out}")
    journal_digest("${journal}" digest)
    check_golden("${spec}.journal.sha256" "${digest}")
  endforeach()
endforeach()

execute_process(COMMAND "${PCALSIM}" --example
                OUTPUT_FILE "${WORK_DIR}/smoke.ini" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "pcalsim --example failed (${rc})")
endif()
set(three_level workload.name=dijkstra latency.miss=8 latency.gated_wake=3
    l2.size=32768 l2.hit_latency=2 l2.miss_latency=30 l3.size=131072)
set(two_core multicore.cores=2 multicore.llc_size=65536
    core1.workload=streaming)
set(smoke_names "")
foreach(incl noninclusive inclusive exclusive victim)
  list(APPEND smoke_names "l3_${incl}")
  set(smoke_l3_${incl} ${three_level} l2.inclusion=${incl}
      l3.inclusion=${incl})
endforeach()
list(APPEND smoke_names multiprogram two_core_shared two_core_ways)
set(smoke_multiprogram multiprogram.programs=sha+cjpeg
    multiprogram.quantum=2000)
set(smoke_two_core_shared ${two_core})
set(smoke_two_core_ways ${two_core} multicore.llc_ways_per_core=4)
foreach(name IN LISTS smoke_names)
  execute_process(
    COMMAND "${PCALSIM}" "${WORK_DIR}/smoke.ini" workload.accesses=50000
            ${smoke_${name}}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "pcalsim ${name} failed (${rc}):\n${err}")
  endif()
  check_golden("pcalsim_${name}.out" "${out}")
endforeach()

if(BENCH_DIR)
  foreach(bench hierarchy_depth contention_scaling multicore_qos)
    foreach(workers 1 8)
      execute_process(
        COMMAND ${CMAKE_COMMAND} -E env PCAL_BENCH_ACCESSES=20000
                PCAL_BENCH_THREADS=${workers}
                PCAL_BENCH_JSON_DIR=${WORK_DIR}/records
                "${BENCH_DIR}/bench_${bench}"
        WORKING_DIRECTORY "${WORK_DIR}"
        RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
      if(NOT rc EQUAL 0)
        message(FATAL_ERROR "bench_${bench} (${workers} workers) failed "
                            "(${rc}):\n${err}")
      endif()
      check_golden("bench_${bench}.out" "${out}")
    endforeach()
  endforeach()
endif()

if(mismatches)
  list(REMOVE_DUPLICATES mismatches)
  string(REPLACE ";" "\n  " listed "${mismatches}")
  message(FATAL_ERROR "outputs differ from tests/golden/ (fresh copies in "
                      "${fresh_dir}):\n  ${listed}")
endif()
if(UPDATE_GOLDEN)
  message(STATUS "rewrote ${golden_dir}")
else()
  message(STATUS "every output matches tests/golden/")
endif()
