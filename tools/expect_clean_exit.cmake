# Runs a command and passes if it exited with status 0 or 1: a report, or a
# Status error / failed queries. Fails if it exited otherwise or was killed
# by a signal (a crash).
#
#   cmake -DCOMMAND="<exe>;<arg>;..." -P expect_clean_exit.cmake
execute_process(COMMAND ${COMMAND} RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc MATCHES "^[01]$")
  message(FATAL_ERROR "expected exit status 0 or 1, got '${rc}'\n${err}")
endif()
message(STATUS "exit status ${rc}")
