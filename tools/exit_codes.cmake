# ctest script pinning the CLI exit-code contract of tools/exit_codes.h
# end to end: each public taxonomy entry must surface as its distinct
# documented code from a real tcm_anonymize invocation —
#   0 success, 2 usage, 3 InvalidSpec, 4 UnknownAlgorithm, 5 IoError,
#   6 PrivacyViolation.
#
# Invoked as:
#   cmake -DTCM_ANONYMIZE=<binary> -DWORK_DIR=<dir> -P exit_codes.cmake

if(NOT TCM_ANONYMIZE OR NOT WORK_DIR)
  message(FATAL_ERROR "TCM_ANONYMIZE and WORK_DIR must be defined")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs the tool and asserts the exit code; extra arguments are the
# command line after the binary.
function(expect_exit expected label)
  execute_process(
    COMMAND "${TCM_ANONYMIZE}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL expected)
    message(FATAL_ERROR
      "${label}: expected exit ${expected}, got ${rc}\n"
      "stdout:\n${out}\nstderr:\n${err}")
  endif()
  message(STATUS "${label}: exit ${rc} as documented")
endfunction()

# --- fixtures -------------------------------------------------------------

file(WRITE "${WORK_DIR}/ok_job.json" [[{
  "version": 1,
  "input": {"kind": "synthetic", "generator": "uniform",
            "rows": 120, "quasi_identifiers": 2, "seed": 1},
  "algorithm": {"name": "tclose_first", "k": 4, "t": 0.3}
}]])

file(WRITE "${WORK_DIR}/invalid_spec_job.json" [[{
  "version": 1,
  "input": {"kind": "synthetic"},
  "algorithm": {"k": 0}
}]])

file(WRITE "${WORK_DIR}/unknown_algorithm_job.json" [[{
  "version": 1,
  "input": {"kind": "synthetic"},
  "algorithm": {"name": "definitely_not_registered"}
}]])

file(WRITE "${WORK_DIR}/io_error_job.json" [[{
  "version": 1,
  "input": {"kind": "csv", "path": "does_not_exist.csv"},
  "roles": {"quasi_identifiers": ["a"], "confidential": "b"}
}]])

# Ten identical QI rows then ten distinct ones: trivially NOT
# 5-anonymous once the distinct half is considered, so an audit at k=5
# must report a privacy violation.
file(WRITE "${WORK_DIR}/leaky_release.csv"
  "age,zip,salary\n")
foreach(i RANGE 1 10)
  file(APPEND "${WORK_DIR}/leaky_release.csv" "30,1000,${i}\n")
endforeach()
foreach(i RANGE 1 10)
  math(EXPR age "30 + ${i}")
  file(APPEND "${WORK_DIR}/leaky_release.csv" "${age},${i},5\n")
endforeach()

# --- the contract ---------------------------------------------------------

expect_exit(0 "success"
  --job "${WORK_DIR}/ok_job.json" --output "${WORK_DIR}/ok_release.csv")

expect_exit(2 "usage error (unknown flag)" --definitely-not-a-flag)

expect_exit(2 "usage error (audit without roles)"
  --audit "${WORK_DIR}/leaky_release.csv")

expect_exit(2 "usage error (audit refuses anonymization flags)"
  --audit "${WORK_DIR}/leaky_release.csv"
  --qi age,zip --confidential salary --k 5 --t 0.5
  --output "${WORK_DIR}/never.csv")

expect_exit(3 "InvalidSpec" --job "${WORK_DIR}/invalid_spec_job.json"
  --output "${WORK_DIR}/never.csv")

# A non-finite t is a spec error, as it is in a JSON spec (which cannot
# spell inf at all): the run could not record the t it verified, and
# t = 1 already disables the constraint because EMD <= 1.
expect_exit(3 "InvalidSpec (--t inf)"
  --job "${WORK_DIR}/ok_job.json" --algorithm tclose_first --t inf
  --output "${WORK_DIR}/never.csv")

# overlap_io keeps two windows resident, so its budget floor is
# k + 2 * max(k, 2) = 15 rows at k = 5: 12 rows is a spec error up front,
# not a failure at run time.
file(WRITE "${WORK_DIR}/overlap_floor_job.json" [[{
  "version": 1,
  "input": {"kind": "synthetic", "generator": "uniform",
            "rows": 120, "quasi_identifiers": 2, "seed": 1},
  "algorithm": {"name": "tclose_first", "k": 5, "t": 0.3},
  "execution": {"mode": "streaming", "max_resident_rows": 12,
                "overlap_io": true}
}]])
expect_exit(3 "InvalidSpec (overlap_io budget below its floor)"
  --job "${WORK_DIR}/overlap_floor_job.json"
  --output "${WORK_DIR}/never.csv")

expect_exit(4 "UnknownAlgorithm"
  --job "${WORK_DIR}/unknown_algorithm_job.json"
  --output "${WORK_DIR}/never.csv")

# The same code whether the bad name comes from the file or a flag.
expect_exit(4 "UnknownAlgorithm (flag override)"
  --job "${WORK_DIR}/ok_job.json" --algorithm bogus
  --output "${WORK_DIR}/never.csv")

expect_exit(5 "IoError (missing input csv)"
  --job "${WORK_DIR}/io_error_job.json" --output "${WORK_DIR}/never.csv")

# A non-finite number in a QI cell is an input error naming the line and
# attribute, not a release with inf centroids (nor a late
# PrivacyViolation for nan).
file(WRITE "${WORK_DIR}/nonfinite.csv" "age,zip,salary\n")
foreach(i RANGE 1 10)
  file(APPEND "${WORK_DIR}/nonfinite.csv" "3${i},1000,${i}\n")
endforeach()
file(APPEND "${WORK_DIR}/nonfinite.csv" "inf,1000,5\n")
expect_exit(5 "IoError (non-finite number in the input csv)"
  --input "${WORK_DIR}/nonfinite.csv" --output "${WORK_DIR}/never.csv"
  --qi age,zip --confidential salary --k 2 --t 0.5)

expect_exit(5 "IoError (missing job file)"
  --job "${WORK_DIR}/no_such_job.json" --output "${WORK_DIR}/never.csv")

expect_exit(6 "PrivacyViolation (audit of a leaky release)"
  --audit "${WORK_DIR}/leaky_release.csv"
  --qi age,zip --confidential salary --k 5 --t 0.5)

# The audit takes the job path's range for t: nan would read as a
# violation and inf would pass anything.
expect_exit(3 "InvalidSpec (audit --t inf)"
  --audit "${WORK_DIR}/leaky_release.csv"
  --qi age,zip --confidential salary --k 1 --t inf)

expect_exit(3 "InvalidSpec (audit --t nan)"
  --audit "${WORK_DIR}/leaky_release.csv"
  --qi age,zip --confidential salary --k 1 --t nan)

# The roles are the audit's spec: a column the file lacks is a spec
# error, as a bad --t is.
expect_exit(3 "InvalidSpec (audit role names a missing column)"
  --audit "${WORK_DIR}/leaky_release.csv"
  --qi age,no_such_column --confidential salary --k 1 --t 10)

expect_exit(0 "audit passes on a compliant threshold"
  --audit "${WORK_DIR}/leaky_release.csv"
  --qi age,zip --confidential salary --k 1 --t 10)

# --- convert mode and the .tcmb error contract -----------------------------

expect_exit(2 "usage error (convert without --output)"
  --convert "${WORK_DIR}/leaky_release.csv")

expect_exit(2 "usage error (convert refuses anonymization flags)"
  --convert "${WORK_DIR}/leaky_release.csv"
  --output "${WORK_DIR}/never.tcmb" --k 5)

expect_exit(0 "success (convert csv to .tcmb)"
  --convert "${WORK_DIR}/leaky_release.csv"
  --output "${WORK_DIR}/leaky_release.tcmb")

expect_exit(5 "IoError (convert missing input csv)"
  --convert "${WORK_DIR}/does_not_exist.csv"
  --output "${WORK_DIR}/never.tcmb")

# Not a .tcmb file at all (wrong magic): the input is not this format,
# so the spec naming it is invalid — exit 3.
file(WRITE "${WORK_DIR}/junk.tcmb" "definitely,not,binary\n1,2,3\n")
expect_exit(3 "InvalidSpec (bad .tcmb magic)"
  --input "${WORK_DIR}/junk.tcmb" --output "${WORK_DIR}/never.csv"
  --qi definitely,not --confidential binary --k 2 --t 0.5)

# Correct magic but the file ends before the version field: damaged
# goods — exit 5.
file(WRITE "${WORK_DIR}/truncated.tcmb" "TCMB")
expect_exit(5 "IoError (truncated .tcmb)"
  --input "${WORK_DIR}/truncated.tcmb" --output "${WORK_DIR}/never.csv"
  --qi a,b --confidential c --k 2 --t 0.5)

# The audit path accepts the binary format too, with the same verdicts
# as the CSV it came from.
expect_exit(6 "PrivacyViolation (audit of a leaky .tcmb)"
  --audit "${WORK_DIR}/leaky_release.tcmb"
  --qi age,zip --confidential salary --k 5 --t 0.5)

expect_exit(0 "audit of a converted .tcmb passes"
  --audit "${WORK_DIR}/leaky_release.tcmb"
  --qi age,zip --confidential salary --k 1 --t 10)

message(STATUS "exit-code contract OK: all documented codes observed")
