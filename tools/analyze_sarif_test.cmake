# CTest script for ga-analyze's SARIF output (registered as
# `ga_analyze_sarif` in tools/CMakeLists.txt), the file CI uploads to code
# scanning.
#
# Runs `ga-analyze --sarif` over the banned_rng fixture, which has five
# findings, and checks that the file parses as JSON, that `runs[0].results`
# holds those five `banned-rng` results, each at a `startLine` of at least 1,
# and that `runs[0].tool.driver.rules` lists every rule id below, each
# once. A new rule adds its id here.
#
# Expected -D variables: GA_ANALYZE (binary), FIXTURE (the banned_rng
# fixture's src/), WORKDIR (scratch root, wiped per run).
set(expected
  banned-rng obs-wallclock-outside-obs unordered-io naked-mutex
  include-cycle upward-include undeclared-dep unused-dep undeclared-module
  stale-module layer-order missing-guard relative-include
  lock-cycle lock-order lock-undeclared lock-unresolved doc-drift)
foreach(var GA_ANALYZE FIXTURE WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "analyze_sarif_test.cmake: missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
set(sarif "${WORKDIR}/findings.sarif")

execute_process(
  COMMAND "${GA_ANALYZE}" --sarif "${sarif}" "${FIXTURE}"
  OUTPUT_VARIABLE analyze_stdout
  ERROR_VARIABLE analyze_stderr
  RESULT_VARIABLE analyze_status)
if(NOT analyze_status EQUAL 1)
  message(FATAL_ERROR
    "ga-analyze exited with ${analyze_status}, not 1 (findings):\n"
    "${analyze_stdout}${analyze_stderr}")
endif()

file(READ "${sarif}" text)
string(JSON n_results ERROR_VARIABLE parse_error LENGTH "${text}" runs 0 results)
if(parse_error)
  message(FATAL_ERROR "${sarif} is not a SARIF log: ${parse_error}")
endif()
if(NOT n_results EQUAL 5)
  message(FATAL_ERROR "${n_results} results in ${sarif}, not 5")
endif()
math(EXPR last "${n_results} - 1")
foreach(i RANGE ${last})
  string(JSON rule GET "${text}" runs 0 results ${i} ruleId)
  string(JSON line GET "${text}" runs 0 results ${i}
         locations 0 physicalLocation region startLine)
  if(NOT rule STREQUAL "banned-rng")
    message(FATAL_ERROR "result ${i} is a ${rule} finding, not banned-rng")
  endif()
  if(NOT line GREATER_EQUAL 1)
    message(FATAL_ERROR "result ${i} has startLine ${line}")
  endif()
endforeach()

string(JSON n_rules LENGTH "${text}" runs 0 tool driver rules)
set(listed)
math(EXPR last "${n_rules} - 1")
foreach(i RANGE ${last})
  string(JSON id GET "${text}" runs 0 tool driver rules ${i} id)
  list(APPEND listed "${id}")
endforeach()
list(SORT listed)
list(SORT expected)
if(NOT listed STREQUAL expected)
  message(FATAL_ERROR
    "${sarif} lists the rules\n  ${listed}\nnot\n  ${expected}")
endif()
message(STATUS
  "ga-analyze --sarif: 5 banned-rng results with their lines; ${n_rules} rules listed")
