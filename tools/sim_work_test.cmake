# CTest script for the work and payload goldens (registered as
# `ga_sim_work_goldens` in tools/CMakeLists.txt).
#
# Runs ga-sim with --output and --metrics-out over every committed scenario,
# once on the sweep pool and once with --serial, and checks two files of
# each run against examples/scenarios/golden/, both exactly:
#
# - <stem>.results.json: the results payload. It pins every number the
#   scenario reports (costs, carbon, per-machine counts), so a change to
#   pricing, metering or routing that moves a bit fails here.
# - <stem>.work.json: the `counters` block of the metrics export. The
#   counters are logical work (events, starts, queue drains and the queue
#   entries those drains offered a start), so they do not depend on the host,
#   the thread count or the executor: a change that moves one changes the
#   work the simulator does, and regenerates the file in the same commit.
#
# A scenario without either golden fails the test.
#
# The work golden layout is Python's `json.dumps(counters, indent=2,
# sort_keys=True)` plus a newline; this script renders the export the same
# way, so CI can diff the files with a one-line python3 helper. The payload
# golden is ga-sim's `--output` file as written.
#
# Expected -D variables: GA_SIM (binary), SCENARIO_DIR (the committed
# scenarios, with their goldens under golden/), WORKDIR (scratch root, wiped
# per run).
foreach(var GA_SIM SCENARIO_DIR WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "sim_work_test.cmake: missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

file(GLOB scenarios "${SCENARIO_DIR}/*.json")
if(NOT scenarios)
  message(FATAL_ERROR "no scenarios under ${SCENARIO_DIR}")
endif()

foreach(scenario IN LISTS scenarios)
  get_filename_component(stem "${scenario}" NAME_WE)
  set(golden "${SCENARIO_DIR}/golden/${stem}.work.json")
  set(payload_golden "${SCENARIO_DIR}/golden/${stem}.results.json")
  foreach(required IN ITEMS "${golden}" "${payload_golden}")
    if(NOT EXISTS "${required}")
      message(FATAL_ERROR "no golden for ${scenario}: ${required}")
    endif()
  endforeach()
  # The pooled sweep and the serial reference executor: both must give
  # the golden payload and the golden counters.
  foreach(mode IN ITEMS pool serial)
    set(run "${stem}.${mode}")
    set(mode_args)
    if(mode STREQUAL "serial")
      set(mode_args --serial)
    endif()
    execute_process(
      COMMAND "${GA_SIM}" "${scenario}" ${mode_args}
              --output "${WORKDIR}/${run}.json"
              --metrics-out "${WORKDIR}/${run}.metrics.json"
      WORKING_DIRECTORY "${WORKDIR}"
      OUTPUT_QUIET
      ERROR_VARIABLE sim_stderr
      RESULT_VARIABLE sim_status)
    if(NOT sim_status EQUAL 0)
      message(FATAL_ERROR "ga-sim ${run} exited with ${sim_status}:\n${sim_stderr}")
    endif()

    execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                    "${payload_golden}" "${WORKDIR}/${run}.json"
                    RESULT_VARIABLE differ)
    if(NOT differ EQUAL 0)
      message(FATAL_ERROR
        "results payload of ${run} differs from the golden:\n"
        "  ${payload_golden}\n  ${WORKDIR}/${run}.json")
    endif()

    file(READ "${WORKDIR}/${run}.metrics.json" metrics)
    string(JSON n_counters LENGTH "${metrics}" counters)
    set(rendered "{")
    set(separator "\n")
    math(EXPR last "${n_counters} - 1")
    foreach(i RANGE ${last})
      string(JSON key MEMBER "${metrics}" counters ${i})
      string(JSON value GET "${metrics}" counters "${key}")
      string(APPEND rendered "${separator}  \"${key}\": ${value}")
      set(separator ",\n")
    endforeach()
    string(APPEND rendered "\n}\n")
    file(WRITE "${WORKDIR}/${run}.work.json" "${rendered}")

    execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                    "${golden}" "${WORKDIR}/${run}.work.json"
                    RESULT_VARIABLE differ)
    if(NOT differ EQUAL 0)
      message(FATAL_ERROR
        "work counters of ${run} differ from the golden:\n"
        "  ${golden}\n  ${WORKDIR}/${run}.work.json\n${rendered}")
    endif()
  endforeach()
  message(STATUS "ga-sim ${stem}: payloads and work counters of the pooled and serial runs match the goldens")
endforeach()
