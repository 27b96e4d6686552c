# CTest script for ga-sim's --finish-times (registered as
# `ga_sim_finish_times` in tools/CMakeLists.txt).
#
# Runs ga-sim over a scenario with and without --finish-times, as JSON and as
# CSV, and checks that the flag only adds each JSON row's finish times:
#
# - every JSON row's `finish_times_s` has `jobs_completed` entries, is
#   sorted, and ends at `makespan_s`;
# - the JSON payload without the flag is GOLDEN byte for byte, and the one
#   with it equals that payload field for field once each row's
#   `finish_times_s` is dropped;
# - the CSV payload is the same bytes with and without the flag.
#
# A scenario whose budget ladders fork (ci_smoke's do) checks the finish
# times a fork records as well as its leader's.
#
# Expected -D variables: GA_SIM (binary), SCENARIO, GOLDEN (the payload
# without the flag), WORKDIR (scratch root, wiped per run).
foreach(var GA_SIM SCENARIO GOLDEN WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "sim_finish_times_test.cmake: missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

function(run_sim output)
  execute_process(
    COMMAND "${GA_SIM}" "${SCENARIO}" --output "${WORKDIR}/${output}" ${ARGN}
    WORKING_DIRECTORY "${WORKDIR}"
    OUTPUT_QUIET
    ERROR_VARIABLE sim_stderr
    RESULT_VARIABLE sim_status)
  if(NOT sim_status EQUAL 0)
    message(FATAL_ERROR "ga-sim ${ARGN} exited with ${sim_status}:\n${sim_stderr}")
  endif()
endfunction()

function(expect_same_files a b what)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${a}" "${b}"
                  RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "${what} differ:\n  ${a}\n  ${b}")
  endif()
endfunction()

run_sim(plain.json)
run_sim(finish.json --finish-times)
run_sim(plain.csv --out csv)
run_sim(finish.csv --out csv --finish-times)

expect_same_files("${GOLDEN}" "${WORKDIR}/plain.json"
                  "the payload without --finish-times and the golden")
expect_same_files("${WORKDIR}/plain.csv" "${WORKDIR}/finish.csv"
                  "the CSV payloads with and without --finish-times")

file(READ "${WORKDIR}/plain.json" plain)
file(READ "${WORKDIR}/finish.json" finish)
string(JSON n_rows LENGTH "${finish}" results)
if(n_rows EQUAL 0)
  message(FATAL_ERROR "no results rows in ${WORKDIR}/finish.json")
endif()
math(EXPR last_row "${n_rows} - 1")
set(stripped "${finish}")
foreach(row RANGE ${last_row})
  string(JSON label GET "${finish}" results ${row} label)
  string(JSON completed GET "${finish}" results ${row} jobs_completed)
  string(JSON makespan GET "${finish}" results ${row} makespan_s)
  string(JSON times GET "${finish}" results ${row} finish_times_s)
  string(REGEX MATCHALL "[-+.eE0-9]+" times "${times}")
  list(LENGTH times n_times)
  if(NOT n_times EQUAL completed)
    message(FATAL_ERROR
      "${label}: ${n_times} finish times for ${completed} completed jobs")
  endif()
  set(previous "")
  foreach(t IN LISTS times)
    if(NOT previous STREQUAL "" AND t LESS previous)
      message(FATAL_ERROR "${label}: finish time ${t} follows ${previous}")
    endif()
    set(previous "${t}")
  endforeach()
  if(n_times GREATER 0 AND NOT previous EQUAL makespan)
    message(FATAL_ERROR
      "${label}: the last finish time ${previous} is not makespan_s ${makespan}")
  endif()
  string(JSON stripped REMOVE "${stripped}" results ${row} finish_times_s)
endforeach()

string(JSON same EQUAL "${stripped}" "${plain}")
if(NOT same)
  message(FATAL_ERROR
    "the payload with --finish-times differs beyond its finish times:\n"
    "  ${WORKDIR}/plain.json\n  ${WORKDIR}/finish.json")
endif()
message(STATUS
  "ga-sim --finish-times: ${n_rows} rows, each sorted and ending at its makespan; "
  "every other field and the CSV payload unchanged")
