# Runs BIN and fails unless its stdout equals the committed GOLDEN file
# byte for byte. On a mismatch the actual output is written to ACTUAL and
# a unified diff is printed.
#
#   cmake -DBIN=<binary> -DGOLDEN=<file> -DACTUAL=<file> -P compare.cmake
execute_process(COMMAND ${BIN} OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  file(WRITE ${ACTUAL} "${actual}")
  execute_process(COMMAND diff -u ${GOLDEN} ${ACTUAL})
  message(FATAL_ERROR "stdout of ${BIN} differs from ${GOLDEN} "
                      "(actual output in ${ACTUAL})")
endif()
