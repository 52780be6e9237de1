# ctest convert-equivalence smoke: convert the committed golden CSV to
# the binary .tcmb format, run the SAME pinned job over both inputs —
# in-memory and --stream, at 1 and 4 threads — and require every release
# to be byte-identical to the committed golden. This is the format's
# core guarantee (CSV and .tcmb are interchangeable inputs) pinned end
# to end through the CLI, plus the same audit verdicts for a categorical
# release as CSV and as .tcmb, and the convert-mode error contract on
# damaged files.
#
# Invoked as:
#   cmake -DTCM_ANONYMIZE=<binary> -DGOLDEN_DIR=<tests/golden>
#         -DWORK_DIR=<dir> -P convert_golden.cmake

if(NOT TCM_ANONYMIZE OR NOT GOLDEN_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR "TCM_ANONYMIZE, GOLDEN_DIR and WORK_DIR must be defined")
endif()
# The error-contract runs use WORK_DIR as their working directory, so
# relative paths (as CI passes them) must not be resolved against it.
get_filename_component(GOLDEN_DIR "${GOLDEN_DIR}" ABSOLUTE)
get_filename_component(WORK_DIR "${WORK_DIR}" ABSOLUTE)

set(csv_input "${GOLDEN_DIR}/input_mcd_120.csv")
set(golden "${GOLDEN_DIR}/release_tclose_first_k5_t30.csv")
foreach(file IN ITEMS "${csv_input}" "${golden}")
  if(NOT EXISTS "${file}")
    message(FATAL_ERROR "missing golden file ${file}")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# --- convert the golden input --------------------------------------------
set(tcmb_input "${WORK_DIR}/input_mcd_120.tcmb")
execute_process(
  COMMAND "${TCM_ANONYMIZE}" --convert "${csv_input}"
    --output "${tcmb_input}"
  RESULT_VARIABLE rc
  ERROR_VARIABLE errors)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--convert exited with ${rc}\n${errors}")
endif()

# --- the equivalence matrix ----------------------------------------------
# {csv, tcmb} x {in-memory, --stream} x {1, 4 threads}: eight runs, one
# pinned byte sequence.
set(common_flags
  --qi TAXINC,POTHVAL --confidential FEDTAX
  --k 5 --t 0.3 --seed 9 --shard-size 64 --algorithm tclose_first)

foreach(format csv tcmb)
  set(input "${${format}_input}")
  foreach(threads 1 4)
    foreach(mode mem stream)
      set(out "${WORK_DIR}/release_${format}_${mode}_t${threads}.csv")
      set(mode_flags "")
      if(mode STREQUAL "stream")
        set(mode_flags --stream --max-resident-rows 4096)
      endif()
      execute_process(
        COMMAND "${TCM_ANONYMIZE}" --input "${input}" ${common_flags}
          --threads ${threads} ${mode_flags} --output "${out}"
        RESULT_VARIABLE rc
        ERROR_VARIABLE errors)
      if(NOT rc EQUAL 0)
        message(FATAL_ERROR
          "${format}/${mode}/threads=${threads} exited with ${rc}\n${errors}")
      endif()
      execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files "${out}" "${golden}"
        RESULT_VARIABLE diff)
      if(NOT diff EQUAL 0)
        message(FATAL_ERROR
          "${format}/${mode}/threads=${threads} release differs from "
          "${golden}: CSV and .tcmb inputs must be byte-equivalent")
      endif()
    endforeach()
  endforeach()
endforeach()

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

# --- a categorical release audits the same as CSV and as .tcmb ------------
# EDUCATION and OCCUPATION hold labels, so the audit's typed loader reads
# them as nominal columns from the CSV, exactly as --convert does.
set(adult_release "${GOLDEN_DIR}/release_adult_merge_k3_t30.csv")
set(adult_tcmb "${WORK_DIR}/release_adult_merge_k3_t30.tcmb")
expect_exit(0 "convert the categorical release"
  --convert "${adult_release}" --output "${adult_tcmb}")
set(adult_roles --qi AGE,EDUCATION,OCCUPATION,HOURS --confidential INCOME)
foreach(input IN ITEMS "${adult_release}" "${adult_tcmb}")
  get_filename_component(name "${input}" NAME)
  expect_exit(0 "audit ${name} at its own k and t"
    --audit "${input}" ${adult_roles} --k 3 --t 0.3)
  expect_exit(6 "audit ${name} at a t it does not meet"
    --audit "${input}" ${adult_roles} --k 3 --t 0.01)
endforeach()

# --- damaged-file error contract -----------------------------------------
expect_exit(5 "IoError (convert missing input)"
  --convert "${WORK_DIR}/no_such.csv" --output "${WORK_DIR}/never.tcmb")

# A file with the .tcmb extension but the wrong magic is not this
# format: InvalidSpec.
file(WRITE "${WORK_DIR}/junk.tcmb" "age,zip,salary\n1,2,3\n")
expect_exit(3 "InvalidSpec (junk bytes behind a .tcmb extension)"
  --input "${WORK_DIR}/junk.tcmb" --output "${WORK_DIR}/never.csv"
  --qi age,zip --confidential salary --k 2 --t 0.5)

# A truncated .tcmb (magic intact, body cut off) is damaged goods:
# IoError. CMake strings cannot hold the NUL bytes a longer genuine
# prefix contains, so the fixture stops right after the magic — the
# shortest member of the truncation ladder tests/tcmb_fuzz_test.cc
# walks exhaustively.
file(WRITE "${WORK_DIR}/truncated.tcmb" "TCMB")
expect_exit(5 "IoError (truncated .tcmb)"
  --input "${WORK_DIR}/truncated.tcmb" --output "${WORK_DIR}/never.csv"
  --qi TAXINC,POTHVAL --confidential FEDTAX --k 2 --t 0.5)

message(STATUS
  "convert equivalence OK: 8/8 releases byte-identical across "
  "csv/tcmb x mem/stream x 1/4 threads, categorical audits agree")
