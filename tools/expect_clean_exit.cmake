# Runs a command and passes if it exited with status 0 or 1: a report, or a
# Status error / failed queries. Fails if it exited otherwise or was killed
# by a signal (a crash).
#
#   cmake -DCOMMAND="<exe>;<arg>;..." [-DMEMORY_CAP_MB=N [-DSANITIZED=ON]]
#         -P expect_clean_exit.cmake
#
# MEMORY_CAP_MB caps the command's memory, so that a client asking for an
# absurd allocation fails the test instead of exhausting the machine. The
# cap is an address-space limit (prlimit --as), with glibc held to two
# malloc arenas so that reserved arena space does not grow with the core
# count. With SANITIZED, it caps each allocation through ASAN_OPTIONS
# instead: ASan's shadow memory reserves more address space than any
# --as cap allows.
if(DEFINED MEMORY_CAP_MB)
  if(SANITIZED)
    if("$ENV{ASAN_OPTIONS}" STREQUAL "")
      set(ENV{ASAN_OPTIONS} "max_allocation_size_mb=${MEMORY_CAP_MB}")
    else()
      set(ENV{ASAN_OPTIONS}
          "$ENV{ASAN_OPTIONS}:max_allocation_size_mb=${MEMORY_CAP_MB}")
    endif()
  else()
    find_program(PRLIMIT prlimit REQUIRED)
    math(EXPR cap_bytes "${MEMORY_CAP_MB} * 1024 * 1024")
    set(ENV{MALLOC_ARENA_MAX} 2)
    list(PREPEND COMMAND ${PRLIMIT} --as=${cap_bytes} --)
  endif()
endif()
execute_process(COMMAND ${COMMAND} RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc MATCHES "^[01]$")
  message(FATAL_ERROR "expected exit status 0 or 1, got '${rc}'\n${err}")
endif()
message(STATUS "exit status ${rc}")
