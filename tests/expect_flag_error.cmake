# Runs one command-line tool invocation that must be rejected: a nonzero
# exit status and stderr matching EXPECT (a regular expression).
#
#   cmake -DTOOL=<exe> -DARGS="--trials;3abc" -DEXPECT=<regex> -P <this file>
#
# Optional: -DSTATUS=<n> requires exactly that exit status, and
# -DREJECT=<regex> requires that stderr does not match it.
execute_process(COMMAND ${TOOL} ${ARGS}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(status EQUAL 0)
  message(FATAL_ERROR "${TOOL} ${ARGS}: exited 0, expected an error\n${out}")
endif()
if(DEFINED STATUS AND NOT status EQUAL STATUS)
  message(FATAL_ERROR
          "${TOOL} ${ARGS}: exited ${status}, expected ${STATUS}\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR
          "${TOOL} ${ARGS}: stderr does not match '${EXPECT}':\n${err}")
endif()
if(DEFINED REJECT AND err MATCHES "${REJECT}")
  message(FATAL_ERROR
          "${TOOL} ${ARGS}: stderr matches '${REJECT}':\n${err}")
endif()
