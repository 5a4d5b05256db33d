# Expected-failure check for a CLI, invoked by ctest via `cmake -P`.
#
# Runs BIN with ARGS and passes only if it exits non-zero (an uncaught
# brickx::Error aborts) and its stdout+stderr match the EXPECT regex. With
# -DREJECT=<regex>, output matching it fails the check (e.g. a results
# table that shows work ran before the argument was rejected).
#
#   cmake -DBIN=build/tools/brickx_tune -DARGS=--layout-budget=0 \
#         "-DEXPECT=layout-budget must be at least 1" -P tests/expect_error.cmake

foreach(var BIN EXPECT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "expect_error: missing -D${var}")
  endif()
endforeach()

execute_process(COMMAND ${BIN} ${ARGS}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "expect_error: ${BIN} ${ARGS} succeeded\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT}")
  message(FATAL_ERROR "expect_error: ${BIN} ${ARGS} failed (${rc}) without "
                      "'${EXPECT}'\n${out}${err}")
endif()
if(DEFINED REJECT AND "${out}${err}" MATCHES "${REJECT}")
  message(FATAL_ERROR "expect_error: ${BIN} ${ARGS} printed '${REJECT}' "
                      "before failing\n${out}${err}")
endif()
