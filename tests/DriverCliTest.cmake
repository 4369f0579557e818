# Driver CLI contract test, run via `cmake -P` (see tests/CMakeLists.txt).
# Bad inputs must produce a diagnostic and a nonzero exit instead of
# silently analyzing an empty program; --run/--validate and the summary
# round trip must work; the --dump-* modes must agree with the analysis;
# every analysis option must work with --dump-jf and survive the summary
# round trip; options that no longer exist, in ipcp-driver or
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

# The --dump-* modes show what the analysis works from. f's formal x is
# bound to the global g, so the alias analysis makes both unknowable at
# f's call of h: the summary (like the solver) stores bottom ("B") for
# y and g there, and --dump-jf must print the same functions.
set(ALIAS_MF "${WORK_DIR}/alias.mf")
file(WRITE "${ALIAS_MF}" "global g

proc main()
  g = 85
  call f(g)
end

proc f(x)
  g = 3
  call h(x)
end

proc h(y)
  print y
  print g
end
")
set(ALIAS_SUMMARY "${WORK_DIR}/alias.summary.json")
expect_run(alias_summary zero "wrote summary"
           "--summary-out=${ALIAS_SUMMARY}" "${ALIAS_MF}")
file(READ "${ALIAS_SUMMARY}" ALIAS_DOC)
string(JSON DEFAULT_CONFIG GET "${ALIAS_DOC}" config)
string(JSON F_NAME GET "${ALIAS_DOC}" procs 1 name)
string(JSON F_ARG GET "${ALIAS_DOC}" procs 1 sites 0 args 0)
string(JSON F_GLOBAL GET "${ALIAS_DOC}" procs 1 sites 0 globals 0)
if(NOT F_NAME STREQUAL "f" OR NOT F_ARG STREQUAL "B"
   OR NOT F_GLOBAL STREQUAL "B")
  set(FAILURES "${FAILURES}\nalias_summary: f -> h is not bottom for y and g")
endif()
expect_run(alias_dump_jf zero "" "--dump-jf" "${ALIAS_MF}")
string(FIND "${LAST_STDOUT}" "\nf -> h: y=_|_\n" AT)
if(AT EQUAL -1)
  set(FAILURES "${FAILURES}\nalias_dump_jf: f -> h disagrees with the summary: '${LAST_STDOUT}'")
endif()
expect_run(dump_jf_no_mod zero "" "--no-mod" "--dump-jf" "${ALIAS_MF}")
expect_run(dump_ssa zero "" "--dump-ssa" "${ALIAS_MF}")
set(SSA_MOD "${LAST_STDOUT}")
expect_run(dump_ssa_no_mod zero "" "--no-mod" "--dump-ssa" "${ALIAS_MF}")
if(LAST_STDOUT STREQUAL SSA_MOD)
  set(FAILURES "${FAILURES}\ndump_ssa_no_mod: --no-mod does not change the SSA")
endif()

# Every analysis option the usage text lists (the lines before
# --emit-source) works with --dump-jf and survives the summary round
# trip: the loaded summary reproduces the local report, and a summary
# whose config differs from the default's refuses to load without the
# option. --complete and --intra-only build no reusable jump functions.
execute_process(COMMAND ${DRIVER} --help
                RESULT_VARIABLE RC
                OUTPUT_QUIET
                ERROR_VARIABLE HELP)
string(FIND "${HELP}" "\n  --emit-source" CUT)
string(SUBSTRING "${HELP}" 0 ${CUT} CONFIG_HELP)
string(REGEX MATCHALL "\n  --[^ \n]+" CONFIG_LINES "${CONFIG_HELP}")
set(CONFIG_FLAGS "")
foreach(LINE ${CONFIG_LINES})
  string(STRIP "${LINE}" FLAG)
  if(FLAG MATCHES "^--jf=<(.*)>$")
    string(REPLACE "|" ";" KINDS "${CMAKE_MATCH_1}")
    foreach(KIND ${KINDS})
      list(APPEND CONFIG_FLAGS "--jf=${KIND}")
    endforeach()
  else()
    list(APPEND CONFIG_FLAGS "${FLAG}")
  endif()
endforeach()
list(LENGTH CONFIG_FLAGS NUM_CONFIG_FLAGS)
if(NUM_CONFIG_FLAGS LESS 14)
  set(FAILURES "${FAILURES}\nconfig_flags: usage lists only ${NUM_CONFIG_FLAGS} analysis options: ${CONFIG_FLAGS}")
endif()
foreach(FLAG ${CONFIG_FLAGS})
  string(MAKE_C_IDENTIFIER "${FLAG}" TAG)
  expect_run(dump_jf${TAG} zero "" "--dump-jf" "${FLAG}" "${ALIAS_MF}")
  set(FLAG_SUMMARY "${WORK_DIR}/summary${TAG}.json")
  if(FLAG STREQUAL "--complete" OR FLAG STREQUAL "--intra-only")
    expect_run(summary_out${TAG} nonzero "no reusable"
               "--summary-out=${FLAG_SUMMARY}" "${FLAG}" "${ALIAS_MF}")
    continue()
  endif()
  expect_run(summary_out${TAG} zero "wrote summary"
             "--summary-out=${FLAG_SUMMARY}" "${FLAG}" "${ALIAS_MF}")
  expect_run(local${TAG} zero "" "--stats" "${FLAG}" "${ALIAS_MF}")
  set(FLAG_REPORT "${LAST_STDOUT}")
  expect_run(summary_in${TAG} zero "" "--summary-in=${FLAG_SUMMARY}"
             "--stats" "${FLAG}" "${ALIAS_MF}")
  if(NOT LAST_STDOUT STREQUAL FLAG_REPORT)
    set(FAILURES "${FAILURES}\nsummary_in${TAG}: report differs from local mode")
  endif()
  file(READ "${FLAG_SUMMARY}" FLAG_DOC)
  string(JSON FLAG_CONFIG GET "${FLAG_DOC}" config)
  if(FLAG_CONFIG STREQUAL DEFAULT_CONFIG)
    expect_run(summary_in_default${TAG} zero ""
               "--summary-in=${FLAG_SUMMARY}" "${ALIAS_MF}")
  else()
    expect_run(summary_in_default${TAG} nonzero "different jump-function"
               "--summary-in=${FLAG_SUMMARY}" "${ALIAS_MF}")
  endif()
endforeach()

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
