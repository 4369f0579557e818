# Driver CLI contract test, run via `cmake -P` (see tests/CMakeLists.txt).
# Bad inputs must produce a diagnostic and a nonzero exit instead of
# silently analyzing an empty program, and programs nested past the
# parser's depth bound must get a diagnostic instead of a crash, and a
# syntax error must not cascade into semantic errors;
# --run/--validate must work; the --dump-* modes must agree with the
# analysis; every analysis option must work with --dump-jf and --stats;
# options that no longer exist, in ipcp-driver or ipcp-serve, must be
# rejected as unknown.

if(NOT DEFINED DRIVER OR NOT DEFINED SERVE OR NOT DEFINED WORK_DIR
   OR NOT DEFINED MAX_AST_DEPTH)
  message(FATAL_ERROR
          "DRIVER, SERVE, WORK_DIR and MAX_AST_DEPTH must be defined")
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

# So are the write and read flags of the deleted jump-function summary
# files.
foreach(DIRECTION out in)
  expect_run(removed_summary_${DIRECTION} nonzero "unknown option"
             "--summary-${DIRECTION}=x" "${GOOD_MF}")
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

# The --dump-* modes show what the analysis works from. f's formal x is
# bound to the global g, so the alias analysis makes both unknowable at
# f's call of h: --dump-jf must show bottom for y and g there. The dump
# lists a global only when its function is not bottom, as main's call
# of f shows for g = 85, so the f -> h line must be exactly y=_|_.
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
expect_run(alias_dump_jf zero "" "--dump-jf" "${ALIAS_MF}")
string(FIND "${LAST_STDOUT}" "main -> f: x=85 g=85\n" MAIN_AT)
string(FIND "${LAST_STDOUT}" "\nf -> h: y=_|_\n" AT)
if(MAIN_AT EQUAL -1 OR AT EQUAL -1)
  set(FAILURES "${FAILURES}\nalias_dump_jf: f -> h is not bottom for y and g: '${LAST_STDOUT}'")
endif()
expect_run(dump_jf_no_mod zero "" "--no-mod" "--dump-jf" "${ALIAS_MF}")
expect_run(dump_ssa zero "" "--dump-ssa" "${ALIAS_MF}")
set(SSA_MOD "${LAST_STDOUT}")
expect_run(dump_ssa_no_mod zero "" "--no-mod" "--dump-ssa" "${ALIAS_MF}")
if(LAST_STDOUT STREQUAL SSA_MOD)
  set(FAILURES "${FAILURES}\ndump_ssa_no_mod: --no-mod does not change the SSA")
endif()

# Every analysis option the usage text lists (the lines before
# --emit-source) works with --dump-jf and with the --stats report.
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
  expect_run(stats${TAG} zero "" "--stats" "${FLAG}" "${ALIAS_MF}")
endforeach()

# Programs nested past the parser's depth bound get a diagnostic and
# exit 1, at the sizes that once overflowed the stack (exit 139); each
# shape exactly at the bound is analyzed. The shapes are those of
# tests/DeepPrograms.h: `a` at depth DEPTH inside g(a).
function(deep_program NAME SHAPE DEPTH)
  math(EXPR K "${DEPTH} - 2")
  if(SHAPE STREQUAL "parens")
    string(REPEAT "(" ${K} OPEN)
    string(REPEAT ")" ${K} CLOSE)
    set(BODY "  x = ${OPEN}a${CLOSE}\n  call f(x)\n")
  elseif(SHAPE STREQUAL "ifs")
    string(REPEAT "  if (a > 0) then\n" ${K} OPEN)
    string(REPEAT "  end if\n" ${K} CLOSE)
    set(BODY "${OPEN}  call f(a)\n${CLOSE}")
  else()
    string(REPEAT " + a" ${K} TERMS)
    set(BODY "  x = a${TERMS}\n  call f(x)\n")
  endif()
  file(WRITE "${WORK_DIR}/${NAME}.mf" "proc main()
  integer y
  read y
  call g(y)
end
proc g(a)
  integer x
${BODY}end
proc f(v)
  print v
end
")
endfunction()
math(EXPR PAST_BOUND "${MAX_AST_DEPTH} + 1")
foreach(CASE parens:20000 ifs:5000 chain:10000)
  string(REPLACE ":" ";" CASE "${CASE}")
  list(GET CASE 0 SHAPE)
  list(GET CASE 1 DEPTH)
  foreach(D ${DEPTH} ${PAST_BOUND})
    deep_program(deep_${SHAPE}_${D} ${SHAPE} ${D})
    execute_process(COMMAND ${DRIVER} "${WORK_DIR}/deep_${SHAPE}_${D}.mf"
                    RESULT_VARIABLE RC
                    OUTPUT_QUIET
                    ERROR_VARIABLE ERR)
    if(NOT RC EQUAL 1 OR NOT ERR MATCHES "nests deeper than ${MAX_AST_DEPTH} levels")
      set(FAILURES "${FAILURES}\ndeep_${SHAPE}_${D}: expected exit 1 and a depth diagnostic, got rc=${RC}: ${ERR}")
    endif()
  endforeach()
  deep_program(bound_${SHAPE} ${SHAPE} ${MAX_AST_DEPTH})
  expect_run(bound_${SHAPE} zero "" "--stats" "${WORK_DIR}/bound_${SHAPE}.mf")
  expect_run(bound_complete_${SHAPE} zero "" "--complete"
             "${WORK_DIR}/bound_${SHAPE}.mf")
endforeach()

# A syntax error is reported alone, in every mode: Sema never runs over
# a tree that failed to parse, so no "undeclared name" error cascades
# from the half-parsed assignment.
set(SYNTAX_MF "${WORK_DIR}/syntax.mf")
file(WRITE "${SYNTAX_MF}" "proc main(\n  x = \nend\n")
foreach(MODE --inline --clone --run --validate --dump-jf --stats)
  execute_process(COMMAND ${DRIVER} ${MODE} "${SYNTAX_MF}"
                  RESULT_VARIABLE RC
                  OUTPUT_QUIET
                  ERROR_VARIABLE ERR)
  if(RC EQUAL 0 OR NOT ERR MATCHES "error:" OR ERR MATCHES "undeclared")
    set(FAILURES "${FAILURES}\nsyntax_error${MODE}: expected only the parse diagnostics, got rc=${RC}: ${ERR}")
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
