# Chrome trace-event file check: the file must parse as JSON and its
# traceEvents array must hold at least MIN_EVENTS complete ("ph": "X") events.
#
#   cmake -DTRACE=<file.trace.json> -DMIN_EVENTS=<n> -P chrome_trace_json.cmake
#
# A truncated or malformed file fails the parse, so a writer that stops early
# cannot pass on its event count alone.
cmake_minimum_required(VERSION 3.21)

foreach(var TRACE MIN_EVENTS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "chrome_trace_json.cmake: -D${var}=<...> is required")
  endif()
endforeach()

file(READ "${TRACE}" doc)

string(JSON count ERROR_VARIABLE err LENGTH "${doc}" traceEvents)
if(err)
  message(FATAL_ERROR "${TRACE}: not a Chrome trace: ${err}")
endif()

set(complete 0)
if(count GREATER 0)
  math(EXPR last "${count} - 1")
  foreach(i RANGE ${last})
    string(JSON ph GET "${doc}" traceEvents ${i} ph)
    if(ph STREQUAL "X")
      math(EXPR complete "${complete} + 1")
    endif()
  endforeach()
endif()

if(complete LESS MIN_EVENTS)
  message(FATAL_ERROR "${TRACE}: ${complete} \"X\" events, expected at least ${MIN_EVENTS}")
endif()
message(STATUS "${TRACE}: ${count} events, ${complete} \"X\"")
