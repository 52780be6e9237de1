# ctest driver for tcm_lint: the whole-tree lint must pass on the
# committed repository, the exit-code contract of tools/exit_codes.h
# must hold on the tool itself, and injected-bad-artifact and test-only-
# header negative trees prove the gate actually bites (a lint that cannot fail pins
# nothing).
#
# Invoked by tools/CMakeLists.txt with:
#   TCM_LINT    path to the tcm_lint binary
#   REPO_ROOT   the source tree to lint
#   WORK_DIR    scratch directory for corpora

function(expect_exit label expected actual output)
  if(NOT actual EQUAL expected)
    message(FATAL_ERROR
      "${label}: expected exit ${expected}, got ${actual}\n${output}")
  endif()
endfunction()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# --- 1. The committed tree lints clean (exit 0). ---------------------------
execute_process(
  COMMAND ${TCM_LINT} --root ${REPO_ROOT}
  RESULT_VARIABLE result
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output)
expect_exit("clean tree" 0 "${result}" "${output}")
if(NOT output MATCHES "0 failures")
  message(FATAL_ERROR "clean tree: summary line missing\n${output}")
endif()

# --- 2. Valid spec corpus: the golden job passes in --spec mode. -----------
execute_process(
  COMMAND ${TCM_LINT} --spec ${REPO_ROOT}/tests/golden/job_tclose_first.json
  RESULT_VARIABLE result
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output)
expect_exit("valid spec" 0 "${result}" "${output}")

# --- 3. Invalid spec corpus (the json_fuzz rejection classes): every -------
# one must exit 3 (InvalidSpec per tools/exit_codes.h), never 0/crash.
file(WRITE "${WORK_DIR}/bad_version.json"
  "{\"version\": 99, \"input\": {\"kind\": \"synthetic\"}}\n")
file(WRITE "${WORK_DIR}/bad_unknown_key.json"
  "{\"input\": {\"kind\": \"synthetic\"}, \"no_such_key\": 1}\n")
file(WRITE "${WORK_DIR}/bad_type.json"
  "{\"algorithm\": {\"name\": \"tclose_first\", \"k\": \"five\"}}\n")
file(WRITE "${WORK_DIR}/bad_truncated.json"
  "{\"input\": {\"kind\": \"synthetic\"")
file(WRITE "${WORK_DIR}/bad_range.json"
  "{\"algorithm\": {\"name\": \"tclose_first\", \"k\": 0}}\n")
foreach(bad
    bad_version bad_unknown_key bad_type bad_truncated bad_range)
  execute_process(
    COMMAND ${TCM_LINT} --spec ${WORK_DIR}/${bad}.json
    RESULT_VARIABLE result
    OUTPUT_VARIABLE output
    ERROR_VARIABLE output)
  expect_exit("${bad}" 3 "${result}" "${output}")
endforeach()

# An unregistered algorithm is still a failed spec artifact: exit 3.
file(WRITE "${WORK_DIR}/bad_algorithm.json"
  "{\"algorithm\": {\"name\": \"definitely_not_registered\"}}\n")
execute_process(
  COMMAND ${TCM_LINT} --spec ${WORK_DIR}/bad_algorithm.json
  RESULT_VARIABLE result
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output)
expect_exit("bad_algorithm" 3 "${result}" "${output}")

# --- 4. Injected bad golden: a tree whose job artifact drifted fails. ------
set(BAD_TREE "${WORK_DIR}/bad_tree")
file(MAKE_DIRECTORY "${BAD_TREE}/tests/golden")
configure_file("${REPO_ROOT}/README.md" "${BAD_TREE}/README.md" COPYONLY)
file(WRITE "${BAD_TREE}/tests/golden/job_drifted.json"
  "{\"version\": 1, \"input\": {\"kind\": \"csv\"}}\n")
execute_process(
  COMMAND ${TCM_LINT} --root ${BAD_TREE}
  RESULT_VARIABLE result
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output)
expect_exit("injected bad golden" 3 "${result}" "${output}")
if(NOT output MATCHES "job_drifted")
  message(FATAL_ERROR
    "injected bad golden: failure does not name the artifact\n${output}")
endif()

# --- 5. Drifted docs: a README whose exit-code table disagrees with --------
# tools/exit_codes.h fails the consistency check.
set(DOC_TREE "${WORK_DIR}/doc_tree")
file(MAKE_DIRECTORY "${DOC_TREE}/tests/golden")
file(READ "${REPO_ROOT}/README.md" readme)
string(REPLACE "| 6 | `PrivacyViolation`" "| 9 | `PrivacyViolation`"
  readme_drifted "${readme}")
if(readme_drifted STREQUAL readme)
  message(FATAL_ERROR "doc drift setup: exit-code row not found in README")
endif()
file(WRITE "${DOC_TREE}/README.md" "${readme_drifted}")
execute_process(
  COMMAND ${TCM_LINT} --root ${DOC_TREE}
  RESULT_VARIABLE result
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output)
expect_exit("drifted exit-code table" 3 "${result}" "${output}")

# A README whose "protocol":N literal disagrees with
# kServeProtocolVersion fails the version-pin check.
set(PROTO_TREE "${WORK_DIR}/proto_tree")
file(MAKE_DIRECTORY "${PROTO_TREE}/tests/golden")
string(REPLACE "\"protocol\":2" "\"protocol\":9"
  readme_proto "${readme}")
if(readme_proto STREQUAL readme)
  message(FATAL_ERROR "protocol drift setup: no \"protocol\":2 in README")
endif()
file(WRITE "${PROTO_TREE}/README.md" "${readme_proto}")
execute_process(
  COMMAND ${TCM_LINT} --root ${PROTO_TREE}
  RESULT_VARIABLE result
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output)
expect_exit("drifted protocol pin" 3 "${result}" "${output}")

# A README whose ".tcmb, version N" binary-format pin disagrees with
# kTcmbFormatVersion fails the version-pin check.
set(TCMB_TREE "${WORK_DIR}/tcmb_tree")
file(MAKE_DIRECTORY "${TCMB_TREE}/tests/golden")
string(REPLACE ".tcmb, version 1" ".tcmb, version 9"
  readme_tcmb "${readme}")
if(readme_tcmb STREQUAL readme)
  message(FATAL_ERROR "tcmb drift setup: no \".tcmb, version 1\" in README")
endif()
file(WRITE "${TCMB_TREE}/README.md" "${readme_tcmb}")
execute_process(
  COMMAND ${TCM_LINT} --root ${TCMB_TREE}
  RESULT_VARIABLE result
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output)
expect_exit("drifted .tcmb format pin" 3 "${result}" "${output}")

# Same for the stats event's "stats_schema":N vs kStatsSchemaVersion.
set(STATS_TREE "${WORK_DIR}/stats_tree")
file(MAKE_DIRECTORY "${STATS_TREE}/tests/golden")
string(REPLACE "\"stats_schema\":1" "\"stats_schema\":9"
  readme_stats "${readme}")
if(readme_stats STREQUAL readme)
  message(FATAL_ERROR "stats drift setup: no \"stats_schema\":1 in README")
endif()
file(WRITE "${STATS_TREE}/README.md" "${readme_stats}")
execute_process(
  COMMAND ${TCM_LINT} --root ${STATS_TREE}
  RESULT_VARIABLE result
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output)
expect_exit("drifted stats-schema pin" 3 "${result}" "${output}")

# A README whose HTTP-status mapping table disagrees with
# HttpStatusForCode (serve/http.h) fails the mapping check.
set(HTTP_TREE "${WORK_DIR}/http_tree")
file(MAKE_DIRECTORY "${HTTP_TREE}/tests/golden")
string(REPLACE "| `InvalidSpec` | 422 |" "| `InvalidSpec` | 418 |"
  readme_http "${readme}")
if(readme_http STREQUAL readme)
  message(FATAL_ERROR
    "http drift setup: no \"| \`InvalidSpec\` | 422 |\" row in README")
endif()
file(WRITE "${HTTP_TREE}/README.md" "${readme_http}")
execute_process(
  COMMAND ${TCM_LINT} --root ${HTTP_TREE}
  RESULT_VARIABLE result
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output)
expect_exit("drifted HTTP status table" 3 "${result}" "${output}")
if(NOT output MATCHES "InvalidSpec")
  message(FATAL_ERROR
    "drifted HTTP status table: failure does not name the code\n${output}")
endif()

# A section that silently dropped a route fails the route-presence pin.
set(ROUTE_TREE "${WORK_DIR}/route_tree")
file(MAKE_DIRECTORY "${ROUTE_TREE}/tests/golden")
string(REPLACE "GET /metricsz" "GET /statz" readme_route "${readme}")
if(readme_route STREQUAL readme)
  message(FATAL_ERROR "route drift setup: no \"GET /metricsz\" in README")
endif()
file(WRITE "${ROUTE_TREE}/README.md" "${readme_route}")
execute_process(
  COMMAND ${TCM_LINT} --root ${ROUTE_TREE}
  RESULT_VARIABLE result
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output)
expect_exit("dropped HTTP route" 3 "${result}" "${output}")

# --- 6. Test-only code: a src/ header no program reaches fails. -----------
# lib/used.h is included by a tool and pulls in its lib/used.cc, whose
# lib/impl_detail.h is therefore reached too. lib/orphan.h is included
# only from tests/, and lib/chained.h only through lib/orphan.h: both
# must be named, nothing else. The trees above have no src/, so they
# never run this check.
set(ORPHAN_TREE "${WORK_DIR}/orphan_tree")
file(MAKE_DIRECTORY "${ORPHAN_TREE}/tests/golden")
configure_file("${REPO_ROOT}/README.md" "${ORPHAN_TREE}/README.md" COPYONLY)
file(WRITE "${ORPHAN_TREE}/tools/tool.cc"
  "#include \"lib/used.h\"\nint main() { return 0; }\n")
file(WRITE "${ORPHAN_TREE}/src/lib/used.h" "#pragma once\n")
file(WRITE "${ORPHAN_TREE}/src/lib/used.cc"
  "#include \"lib/used.h\"\n#include \"lib/impl_detail.h\"\n")
file(WRITE "${ORPHAN_TREE}/src/lib/impl_detail.h" "#pragma once\n")
file(WRITE "${ORPHAN_TREE}/src/lib/orphan.h"
  "#pragma once\n#include \"lib/chained.h\"\n")
file(WRITE "${ORPHAN_TREE}/src/lib/chained.h" "#pragma once\n")
file(WRITE "${ORPHAN_TREE}/tests/orphan_test.cc"
  "#include \"lib/orphan.h\"\n")
execute_process(
  COMMAND ${TCM_LINT} --root ${ORPHAN_TREE}
  RESULT_VARIABLE result
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output)
expect_exit("test-only headers" 3 "${result}" "${output}")
foreach(named src/lib/orphan.h src/lib/chained.h)
  if(NOT output MATCHES "FAIL: ${named}")
    message(FATAL_ERROR
      "test-only headers: ${named} is not named\n${output}")
  endif()
endforeach()
if(output MATCHES "FAIL: src/lib/(used|impl_detail)\\.h")
  message(FATAL_ERROR
    "test-only headers: a reached header was flagged\n${output}")
endif()

# Once the orphan chain is gone the same tree lints clean.
file(REMOVE "${ORPHAN_TREE}/src/lib/orphan.h"
  "${ORPHAN_TREE}/src/lib/chained.h")
execute_process(
  COMMAND ${TCM_LINT} --root ${ORPHAN_TREE}
  RESULT_VARIABLE result
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output)
expect_exit("reachable headers only" 0 "${result}" "${output}")

# --- 7. IO and usage errors keep their contract codes. ---------------------
execute_process(
  COMMAND ${TCM_LINT} --spec ${WORK_DIR}/definitely_missing.json
  RESULT_VARIABLE result
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output)
expect_exit("missing spec file" 5 "${result}" "${output}")

execute_process(
  COMMAND ${TCM_LINT} --no-such-flag
  RESULT_VARIABLE result
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output)
expect_exit("usage error" 2 "${result}" "${output}")

message(STATUS "tcm_lint contract holds: clean tree 0, bad artifacts, "
  "drifted docs/version pins, HTTP mapping drift and test-only headers 3, "
  "missing file 5, usage 2")
