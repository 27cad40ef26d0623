# Byte-exact figure gate: run one bench binary and compare its standard
# output with the committed golden, byte for byte.
#
#   cmake -DBIN=<bench binary> -DGOLDEN=<results/name.txt> -DACTUAL=<path> \
#         -P figure_golden.cmake
#
# On a mismatch the binary's output is written to ACTUAL and the script fails
# naming both files, so `diff <golden> <actual>` shows what moved. On a match
# no file is left behind.
cmake_minimum_required(VERSION 3.21)

foreach(var BIN GOLDEN ACTUAL)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "figure_golden.cmake: -D${var}=<...> is required")
  endif()
endforeach()

execute_process(COMMAND "${BIN}" OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with status ${rc}")
endif()

file(READ "${GOLDEN}" golden)
if(NOT actual STREQUAL golden)
  file(WRITE "${ACTUAL}" "${actual}")
  message(FATAL_ERROR "figure output differs from its golden\n"
                      "  golden: ${GOLDEN}\n"
                      "  actual: ${ACTUAL}")
endif()
file(REMOVE "${ACTUAL}")
