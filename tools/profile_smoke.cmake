# ctest smoke of tcm_profile: it reads files through the same typed
# loader as `tcm_anonymize --audit` (tools/table_input.h). A numeric CSV
# and its converted .tcmb must profile identically, a categorical
# release CSV (nominal EDUCATION/OCCUPATION columns) must profile too,
# and a role naming a column the file lacks exits 3 (InvalidSpec).
#
# Invoked as:
#   cmake -DTCM_PROFILE=<binary> -DTCM_ANONYMIZE=<binary>
#         -DGOLDEN_DIR=<tests/golden> -DWORK_DIR=<dir> -P profile_smoke.cmake

if(NOT TCM_PROFILE OR NOT TCM_ANONYMIZE OR NOT GOLDEN_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR
    "TCM_PROFILE, TCM_ANONYMIZE, GOLDEN_DIR and WORK_DIR must be defined")
endif()

set(csv_input "${GOLDEN_DIR}/input_mcd_120.csv")
set(adult_release "${GOLDEN_DIR}/release_adult_merge_k3_t30.csv")
foreach(file IN ITEMS "${csv_input}" "${adult_release}")
  if(NOT EXISTS "${file}")
    message(FATAL_ERROR "missing golden file ${file}")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(tcmb_input "${WORK_DIR}/input_mcd_120.tcmb")
execute_process(
  COMMAND "${TCM_ANONYMIZE}" --convert "${csv_input}"
    --output "${tcmb_input}"
  RESULT_VARIABLE rc
  ERROR_VARIABLE errors)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--convert exited with ${rc}\n${errors}")
endif()

# Runs tcm_profile, asserts the exit code and returns its stdout in
# `out_var`.
function(expect_profile expected label out_var)
  execute_process(
    COMMAND "${TCM_PROFILE}" ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL expected)
    message(FATAL_ERROR
      "${label}: expected exit ${expected}, got ${rc}\n"
      "stdout:\n${out}\nstderr:\n${err}")
  endif()
  message(STATUS "${label}: exit ${rc}")
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

set(mcd_flags --qi TAXINC,POTHVAL --confidential FEDTAX --histogram FEDTAX)
expect_profile(0 "numeric CSV" csv_out --input "${csv_input}" ${mcd_flags})
expect_profile(0 "converted .tcmb" tcmb_out
  --input "${tcmb_input}" ${mcd_flags})
if(NOT csv_out STREQUAL tcmb_out)
  message(FATAL_ERROR
    "the CSV and its .tcmb profile differently\n"
    "csv:\n${csv_out}\ntcmb:\n${tcmb_out}")
endif()
string(FIND "${csv_out}" "records: 120" at)
if(at EQUAL -1)
  message(FATAL_ERROR "profile does not report 120 records:\n${csv_out}")
endif()

expect_profile(0 "categorical release CSV" adult_out
  --input "${adult_release}" --qi AGE,EDUCATION,OCCUPATION,HOURS
  --confidential INCOME)
string(REGEX MATCH "OCCUPATION +nominal" nominal "${adult_out}")
if(NOT nominal)
  message(FATAL_ERROR
    "OCCUPATION is not profiled as a nominal column:\n${adult_out}")
endif()

expect_profile(3 "InvalidSpec (--qi names a missing column)" unused
  --input "${csv_input}" --qi TAXINC,NO_SUCH_COLUMN --confidential FEDTAX)

message(STATUS "profile smoke OK: csv == tcmb, categorical CSV profiled")
