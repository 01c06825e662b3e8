# Fail unless EXE, run with ARGS ("|"-separated), exits nonzero and prints a
# match for the regular expression REGEX on stderr.
#
#   cmake -DEXE=<path> -DARGS=<a|b|...> -DREGEX=<regex> -P expect_failure.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${EXE}" ${args} RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "${EXE} ${ARGS}: exited 0, expected a failure")
endif()
if(NOT err MATCHES "${REGEX}")
  message(FATAL_ERROR "${EXE} ${ARGS}: stderr has no match for ${REGEX}:\n${err}")
endif()
