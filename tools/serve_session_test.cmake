# CTest driver for the ga-serve golden session (registered as
# `ga_serve_session` in tools/CMakeLists.txt).
#
# Three runs over the committed request script, all of which must agree:
#   1. full      — the whole script through one daemon; the stdout transcript
#                  must byte-match the committed golden.
#   2. head      — the script up to and including the `mid.snap` checkpoint
#                  request (the daemon exits on stdin EOF).
#   3. tail      — a NEW daemon restored from mid.snap fed the remaining
#                  lines: head + tail transcripts concatenated must equal the
#                  full transcript, and both runs' `final.snap` files must be
#                  byte-identical. This pins the determinism contract across
#                  a kill/checkpoint/restore split (service/session.hpp).
#
# Expected -D variables: GA_SERVE (binary), SCENARIO, SCRIPT (request lines),
# GOLDEN (committed transcript), WORKDIR (scratch root, wiped per run).
# Optional: EXTRA_ARGS — extra ga-serve flags for every run (the metrics
# variant passes --metrics to prove instrumentation never changes the
# transcript bytes; the socket variants pass --socket;serve.sock, so stdin
# goes through the poll loop that also serves the socket).
foreach(var GA_SERVE SCENARIO SCRIPT GOLDEN WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "serve_session_test.cmake: missing -D${var}=...")
  endif()
endforeach()
if(NOT DEFINED EXTRA_ARGS)
  set(EXTRA_ARGS)
endif()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}/full" "${WORKDIR}/split")

function(run_serve workdir input output)
  set(restore_args)
  if(ARGC GREATER 3)
    set(restore_args --restore "${ARGV3}")
  endif()
  execute_process(
    COMMAND "${GA_SERVE}" "${SCENARIO}" ${EXTRA_ARGS} ${restore_args}
    WORKING_DIRECTORY "${workdir}"
    INPUT_FILE "${input}"
    OUTPUT_FILE "${output}"
    ERROR_VARIABLE serve_stderr
    RESULT_VARIABLE serve_status)
  if(NOT serve_status EQUAL 0)
    message(FATAL_ERROR
      "ga-serve exited with ${serve_status}:\n${serve_stderr}")
  endif()
endfunction()

function(require_same a b what)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${a}" "${b}"
                  RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "${what} differ:\n  ${a}\n  ${b}")
  endif()
endfunction()

# ---- run 1: the full session against the committed golden ------------------
run_serve("${WORKDIR}/full" "${SCRIPT}" "${WORKDIR}/full/transcript.jsonl")
require_same("${WORKDIR}/full/transcript.jsonl" "${GOLDEN}"
  "full-session transcript and committed golden")

# ---- split the script at the mid.snap checkpoint request -------------------
# The request lines are JSON (no semicolons), so file(STRINGS) is safe.
file(STRINGS "${SCRIPT}" request_lines)
set(head_lines)
set(tail_lines)
set(seen_mid FALSE)
foreach(line IN LISTS request_lines)
  if(seen_mid)
    list(APPEND tail_lines "${line}")
  else()
    list(APPEND head_lines "${line}")
    if(line MATCHES "mid\\.snap")
      set(seen_mid TRUE)
    endif()
  endif()
endforeach()
if(NOT seen_mid)
  message(FATAL_ERROR "no request mentioning mid.snap in ${SCRIPT}")
endif()
string(JOIN "\n" head_text ${head_lines})
string(JOIN "\n" tail_text ${tail_lines})
file(WRITE "${WORKDIR}/split/head.jsonl" "${head_text}\n")
file(WRITE "${WORKDIR}/split/tail.jsonl" "${tail_text}\n")

# ---- runs 2+3: kill at the checkpoint, restore, continue -------------------
run_serve("${WORKDIR}/split" "${WORKDIR}/split/head.jsonl"
  "${WORKDIR}/split/head.out")
run_serve("${WORKDIR}/split" "${WORKDIR}/split/tail.jsonl"
  "${WORKDIR}/split/tail.out" "${WORKDIR}/split/mid.snap")

file(READ "${WORKDIR}/split/head.out" head_out)
file(READ "${WORKDIR}/split/tail.out" tail_out)
file(WRITE "${WORKDIR}/split/combined.out" "${head_out}${tail_out}")
require_same("${WORKDIR}/split/combined.out" "${GOLDEN}"
  "restored-session transcript (head + tail) and committed golden")
require_same("${WORKDIR}/split/final.snap" "${WORKDIR}/full/final.snap"
  "final snapshots of the interrupted and uninterrupted runs")

message(STATUS "ga-serve session: transcripts and snapshots byte-identical")
