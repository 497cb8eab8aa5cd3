# Runs `GRCA ARGS...` and passes only when it exits with status STATUS
# (default 2, a usage error) and its stderr contains EXPECT.
#   cmake -DGRCA=path/to/grca "-DARGS=diagnose --thread 4"
#         "-DEXPECT=unknown option --thread" [-DSTATUS=1]
#         -P cli_usage_error.cmake
if(NOT DEFINED STATUS)
  set(STATUS 2)
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${GRCA}" ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL STATUS)
  message(FATAL_ERROR "grca ${ARGS}: exit status ${rc}, expected ${STATUS}\n"
                      "${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "grca ${ARGS}: stderr lacks '${EXPECT}'\n${err}")
endif()
