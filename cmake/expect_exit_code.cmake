# Runs PROGRAM with the space-separated ARGS and fails unless it exits with
# EXPECTED. Lets ctest pin an exact exit status (WILL_FAIL accepts any
# non-zero one, including an abort).
#
# Expected -D variables: PROGRAM, ARGS, EXPECTED.

foreach(var PROGRAM ARGS EXPECTED)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "expect_exit_code.cmake: missing -D${var}")
  endif()
endforeach()

separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${PROGRAM} ${arg_list} RESULT_VARIABLE rc)
if(NOT rc STREQUAL EXPECTED)
  message(FATAL_ERROR "${PROGRAM} ${ARGS}: exit status '${rc}', expected '${EXPECTED}'")
endif()
