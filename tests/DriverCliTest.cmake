# Driver CLI contract test, run via `cmake -P` (see tests/CMakeLists.txt).
# Bad inputs must produce a diagnostic and a nonzero exit instead of
# silently analyzing an empty program; --run/--validate and the summary
# round trip must work; options that no longer exist, in ipcp-driver or
# ipcp-serve, must be rejected as unknown.

if(NOT DEFINED DRIVER OR NOT DEFINED SERVE OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "DRIVER, SERVE and WORK_DIR must be defined")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(GOOD_MF "${WORK_DIR}/good.mf")
file(WRITE "${GOOD_MF}" "proc main()
  integer i
  do i = 1, 3
    print i * 10
  end do
end
")

set(FAILURES "")

function(expect_run NAME EXPECT_RC EXPECT_STDERR)
  execute_process(COMMAND ${DRIVER} ${ARGN}
                  RESULT_VARIABLE RC
                  OUTPUT_VARIABLE OUT
                  ERROR_VARIABLE ERR)
  if(EXPECT_RC STREQUAL "zero" AND NOT RC EQUAL 0)
    set(FAILURES "${FAILURES}\n${NAME}: expected success, got rc=${RC}: ${ERR}" PARENT_SCOPE)
    return()
  endif()
  if(EXPECT_RC STREQUAL "nonzero" AND RC EQUAL 0)
    set(FAILURES "${FAILURES}\n${NAME}: expected failure, got rc=0" PARENT_SCOPE)
    return()
  endif()
  if(NOT EXPECT_STDERR STREQUAL "" AND NOT ERR MATCHES "${EXPECT_STDERR}")
    set(FAILURES "${FAILURES}\n${NAME}: stderr '${ERR}' does not match '${EXPECT_STDERR}'" PARENT_SCOPE)
    return()
  endif()
  set(LAST_STDOUT "${OUT}" PARENT_SCOPE)
endfunction()

# Missing input file: diagnostic + nonzero, not an empty-program run.
expect_run(missing_file nonzero "no such file"
           "${WORK_DIR}/does-not-exist.mf")

# A directory as input: an ifstream would silently read nothing.
expect_run(directory_input nonzero "not a regular file" "${WORK_DIR}")

# Unwritable --constants-out: diagnostic + nonzero.
expect_run(bad_constants_out nonzero "cannot write"
           "--constants-out=${WORK_DIR}/no-such-dir/c.txt" "${GOOD_MF}")

# Unknown options still fail loudly.
expect_run(unknown_option nonzero "unknown option" "--bogus" "${GOOD_MF}")

# The forked-shard modes are gone; their flags are unknown options.
foreach(FLAG --shards=2 --shard-worker --shard-in=job --shard-out=result)
  expect_run(removed_${FLAG} nonzero "unknown option" "${FLAG}" "${GOOD_MF}")
endforeach()

# So are the serve router's. stdin is a file, so a server that wrongly
# accepted one would answer it and exit 0 instead of hanging.
foreach(FLAG --router --backend=127.0.0.1:1 --spawn-backends=2
             --forward-threads=2)
  execute_process(COMMAND ${SERVE} ${FLAG}
                  INPUT_FILE "${GOOD_MF}"
                  RESULT_VARIABLE RC
                  OUTPUT_QUIET
                  ERROR_VARIABLE ERR)
  if(RC EQUAL 0 OR NOT ERR MATCHES "unknown option")
    set(FAILURES "${FAILURES}\nserve ${FLAG}: expected an unknown-option failure, got rc=${RC}: ${ERR}")
  endif()
endforeach()

# A jump-function summary written by --summary-out and read back by
# --summary-in reproduces the local report.
set(SUMMARY "${WORK_DIR}/good.summary.json")
expect_run(summary_out zero "wrote summary" "--summary-out=${SUMMARY}"
           "--stats" "${GOOD_MF}")
expect_run(summary_local zero "" "--stats" "${GOOD_MF}")
set(LOCAL_REPORT "${LAST_STDOUT}")
expect_run(summary_in zero "" "--summary-in=${SUMMARY}" "--stats"
           "${GOOD_MF}")
if(NOT LAST_STDOUT STREQUAL LOCAL_REPORT)
  set(FAILURES "${FAILURES}\nsummary_in: report differs from local mode")
endif()
expect_run(summary_both nonzero "mutually exclusive"
           "--summary-out=${SUMMARY}" "--summary-in=${SUMMARY}" "${GOOD_MF}")
expect_run(summary_complete nonzero "no reusable"
           "--summary-in=${SUMMARY}" "--complete" "${GOOD_MF}")

# --run executes the program and prints its trace.
expect_run(run_trace zero "ok" "--run" "${GOOD_MF}")
if(NOT LAST_STDOUT MATCHES "10\n20\n30")
  set(FAILURES "${FAILURES}\nrun_trace: unexpected trace '${LAST_STDOUT}'")
endif()

# --run reports traps with a nonzero exit.
set(TRAP_MF "${WORK_DIR}/trap.mf")
file(WRITE "${TRAP_MF}" "proc main()
  integer z
  print 1 / z
end
")
expect_run(run_trap nonzero "divide-by-zero" "--run" "${TRAP_MF}")

# --validate passes on a well-behaved program, under DCE too.
expect_run(validate zero "" "--validate" "${GOOD_MF}")
if(NOT LAST_STDOUT MATCHES "validation passed")
  set(FAILURES "${FAILURES}\nvalidate: unexpected output '${LAST_STDOUT}'")
endif()
expect_run(validate_complete zero "" "--validate" "--complete" "${GOOD_MF}")

# A good --constants-out write still succeeds.
expect_run(constants_out zero ""
           "--constants-out=${WORK_DIR}/constants.txt" "${GOOD_MF}")
if(NOT EXISTS "${WORK_DIR}/constants.txt")
  set(FAILURES "${FAILURES}\nconstants_out: file not written")
endif()

if(NOT FAILURES STREQUAL "")
  message(FATAL_ERROR "driver CLI test failures:${FAILURES}")
endif()
message(STATUS "driver CLI test passed")
