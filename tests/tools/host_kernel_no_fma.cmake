# Static contraction gate: disassemble every host GEMM kernel variant and
# every narrowing span in a binary, and fail if any of them holds a fused
# multiply-add instruction.
#
#   cmake -DBIN=<binary> -DOBJDUMP=<objdump> -DREQUIRE=<name,name,...> \
#         -P host_kernel_no_fma.cmake
#
# The functions scanned are the symbols whose names contain gemm_kernel_ or
# encode_lanes_; each one's body inlines the whole kernel or span for its
# variant. REQUIRE lists, comma-separated, name fragments that must each
# match at least one scanned symbol, so a renamed or dropped variant fails
# here instead of passing unscanned. A CPU without AVX-512F never executes that variant, so
# the run-time test HostKernel.NoFusedMultiplyAdd cannot see it there; this
# check reads its instructions on any host.
cmake_minimum_required(VERSION 3.21)

foreach(var BIN OBJDUMP REQUIRE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "host_kernel_no_fma.cmake: -D${var}=<...> is required")
  endif()
endforeach()

execute_process(COMMAND "${OBJDUMP}" -t "${BIN}" OUTPUT_VARIABLE table RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${OBJDUMP} -t ${BIN} exited with status ${rc}")
endif()
string(REGEX MATCHALL "[^ \t\n]*(gemm_kernel_|encode_lanes_)[^ \t\n]*" symbols "${table}")
list(REMOVE_DUPLICATES symbols)

string(REPLACE "," ";" required "${REQUIRE}")
foreach(fragment IN LISTS required)
  set(found FALSE)
  foreach(sym IN LISTS symbols)
    if(sym MATCHES "${fragment}")
      set(found TRUE)
    endif()
  endforeach()
  if(NOT found)
    message(FATAL_ERROR "no symbol in ${BIN} matches ${fragment}: nothing to scan")
  endif()
endforeach()

set(fused "")
foreach(sym IN LISTS symbols)
  execute_process(COMMAND "${OBJDUMP}" -d --no-show-raw-insn "--disassemble=${sym}" "${BIN}"
                  OUTPUT_VARIABLE body RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${OBJDUMP} -d --disassemble=${sym} exited with status ${rc}")
  endif()
  string(REGEX MATCHALL "vfn?m(add|sub)[a-z0-9]*" hits "${body}")
  if(hits)
    list(REMOVE_DUPLICATES hits)
    string(APPEND fused "  ${sym}: ${hits}\n")
  endif()
endforeach()

list(LENGTH symbols count)
if(fused)
  message(FATAL_ERROR "fused multiply-add instructions in the host kernels:\n${fused}")
endif()
message(STATUS "${count} kernel and narrowing-span symbols scanned, no fused multiply-add")
