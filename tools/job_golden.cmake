# ctest golden script for the Job API surface of tcm_anonymize: run the
# tool on the checked-in tests/golden/job_tclose_first.json and require
#   1. the release bytes to EQUAL the committed golden release, and
#   2. the --report-json document, with every volatile "*_seconds" timing
#      normalized to 0, to EQUAL the committed golden report.
# Then run tests/golden/job_streamed_hierarchical.json — a streamed CSV
# job over three overlapped windows with the hierarchical repair pass, so
# the per-window summaries and every merge-ledger counter are nonzero —
# and compare its normalized report the same way.
# Together with anonymize_golden.cmake (the flag spelling of the same
# run) this pins the whole --job path: JSON spec parsing, the facade
# lowering, and the RunReport schema — a schema change shows up as a
# golden diff to review, exactly like release bytes.
#
# Invoked as:
#   cmake -DTCM_ANONYMIZE=<binary> -DGOLDEN_DIR=<tests/golden>
#         -DWORK_DIR=<dir> -P job_golden.cmake

if(NOT TCM_ANONYMIZE OR NOT GOLDEN_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR "TCM_ANONYMIZE, GOLDEN_DIR and WORK_DIR must be defined")
endif()

set(job "${GOLDEN_DIR}/job_tclose_first.json")
set(golden_release "${GOLDEN_DIR}/release_tclose_first_k5_t30.csv")
set(golden_report "${GOLDEN_DIR}/report_tclose_first.json")
set(streamed_job "${GOLDEN_DIR}/job_streamed_hierarchical.json")
set(streamed_report "${GOLDEN_DIR}/report_streamed_hierarchical.json")
foreach(file IN ITEMS "${job}" "${golden_release}" "${golden_report}"
                      "${streamed_job}" "${streamed_report}")
  if(NOT EXISTS "${file}")
    message(FATAL_ERROR "missing golden file ${file}")
  endif()
endforeach()
file(MAKE_DIRECTORY "${WORK_DIR}")

set(release_out "${WORK_DIR}/job_release.csv")
set(report_out "${WORK_DIR}/job_report.json")
file(REMOVE "${release_out}" "${report_out}")

# The job file names its input relative to the golden directory, so the
# tool runs from there; output sinks come in as flag overrides — the
# "flags are sugar over a JobSpec" contract under test.
execute_process(
  COMMAND "${TCM_ANONYMIZE}" --job "${job}"
    --output "${release_out}" --report-json "${report_out}"
  WORKING_DIRECTORY "${GOLDEN_DIR}"
  RESULT_VARIABLE rc
  ERROR_VARIABLE errors)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--job golden run exited with ${rc}\n${errors}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${release_out}"
    "${golden_release}"
  RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR
    "--job release bytes drifted from ${golden_release}; if intentional, "
    "regenerate the goldens and review the diff")
endif()

# Normalizes the volatile fields of the report at `path` — timings
# (every key ending in _seconds) and the run-local release path — and
# compares the rest byte for byte with `golden`.
function(expect_report path golden)
  file(READ "${path}" report)
  string(REGEX REPLACE "\"([a-z_]*_seconds)\": [-+.eE0-9]+" "\"\\1\": 0"
    report "${report}")
  string(REGEX REPLACE "\"release_path\": \"[^\"]*\""
    "\"release_path\": \"<release>\"" report "${report}")
  file(READ "${golden}" expected)
  if(NOT report STREQUAL expected)
    file(WRITE "${path}.normalized" "${report}")
    message(FATAL_ERROR
      "--report-json schema drifted from ${golden} "
      "(normalized copy at ${path}.normalized); if "
      "intentional, regenerate the golden and review the diff")
  endif()
endfunction()

expect_report("${report_out}" "${golden_report}")

set(streamed_release_out "${WORK_DIR}/streamed_release.csv")
set(streamed_report_out "${WORK_DIR}/streamed_report.json")
file(REMOVE "${streamed_release_out}" "${streamed_report_out}")
execute_process(
  COMMAND "${TCM_ANONYMIZE}" --job "${streamed_job}"
    --output "${streamed_release_out}" --report-json "${streamed_report_out}"
  WORKING_DIRECTORY "${GOLDEN_DIR}"
  RESULT_VARIABLE rc
  ERROR_VARIABLE errors)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "streamed --job golden run exited with ${rc}\n${errors}")
endif()
expect_report("${streamed_report_out}" "${streamed_report}")

# A spec typo must fail fast with the structured code on stderr.
execute_process(
  COMMAND "${TCM_ANONYMIZE}" --job "${job}" --algorithm bogus
    --output "${WORK_DIR}/never.csv"
  WORKING_DIRECTORY "${GOLDEN_DIR}"
  RESULT_VARIABLE rc
  ERROR_VARIABLE errors)
if(rc EQUAL 0)
  message(FATAL_ERROR "--job with --algorithm bogus unexpectedly succeeded")
endif()
if(NOT errors MATCHES "UnknownAlgorithm")
  message(FATAL_ERROR
    "unknown-algorithm failure lacks the structured code:\n${errors}")
endif()

message(STATUS "job golden OK: release and reports match pinned bytes")
