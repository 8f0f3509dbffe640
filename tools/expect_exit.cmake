# Runs one command and fails unless it exits with code EXPECT_EXIT — how
# ctest checks a binary's exact exit status (WILL_FAIL accepts any non-zero).
#
#   cmake -DEXPECT_EXIT=2 -DCMD=<exe,arg,...> -P expect_exit.cmake
#
# CMD is comma-separated (semicolons do not survive CMake list storage).

if(NOT DEFINED EXPECT_EXIT OR NOT DEFINED CMD)
  message(FATAL_ERROR "expect_exit.cmake requires -DEXPECT_EXIT and -DCMD")
endif()
string(REPLACE "," ";" CMD "${CMD}")
execute_process(COMMAND ${CMD} RESULT_VARIABLE rv)
if(NOT rv STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "${CMD}: exit ${rv}, expected ${EXPECT_EXIT}")
endif()
