# Golden-output regression driver, invoked by ctest via `cmake -P`.
#
# Runs BIN with ARGS, captures stdout to OUT, and compares it
# byte-for-byte against the checked-in GOLDEN file. stderr is not part of
# the contract (the harness prints environment warnings there). With
# -DDROP=<regex>, golden lines matching the regex are left out of the
# comparison (for a run that prints a subset of another run's golden).
#
# To regenerate a golden after an intentional output change:
#   cmake -DBIN=build/bench/table1_messages "-DARGS=-s;16" \
#         -DGOLDEN=tests/data/golden/table1_messages.txt \
#         -DOUT=/tmp/g.out -DUPDATE=1 -P tests/golden_check.cmake

foreach(var BIN GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_check: missing -D${var}")
  endif()
endforeach()

execute_process(COMMAND ${BIN} ${ARGS}
                OUTPUT_FILE ${OUT}
                ERROR_VARIABLE stderr_text
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "golden_check: ${BIN} exited with ${rc}\nstderr:\n${stderr_text}")
endif()

if(UPDATE AND DROP)
  message(FATAL_ERROR "golden_check: regenerate ${GOLDEN} from the full run "
                      "(without -DDROP)")
endif()
if(UPDATE)
  configure_file(${OUT} ${GOLDEN} COPYONLY)
  message(STATUS "golden_check: updated ${GOLDEN}")
  return()
endif()

if(NOT EXISTS ${GOLDEN})
  message(FATAL_ERROR "golden_check: missing golden file ${GOLDEN} "
                      "(regenerate with -DUPDATE=1)")
endif()

set(expected ${GOLDEN})
if(DROP)
  file(READ ${GOLDEN} text)
  string(REGEX REPLACE "[^\n]*${DROP}[^\n]*\n" "" text "${text}")
  set(expected ${OUT}.expected)
  file(WRITE ${expected} "${text}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${expected}
                RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR
          "golden_check: stdout differs from ${expected}\n"
          "inspect with: diff ${expected} ${OUT}\n"
          "if the change is intentional, regenerate with -DUPDATE=1")
endif()
