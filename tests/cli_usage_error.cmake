# Runs `GRCA ARGS...` and passes only when it exits with status 2 (usage
# error) and its stderr contains EXPECT.
#   cmake -DGRCA=path/to/grca "-DARGS=diagnose --thread 4"
#         "-DEXPECT=unknown option --thread" -P cli_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${GRCA}" ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "grca ${ARGS}: exit status ${rc}, expected 2\n${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "grca ${ARGS}: stderr lacks '${EXPECT}'\n${err}")
endif()
