# Flag-rejection check for example_network_day.
#
# Runs the example once per bad flag and fails unless each run stops before
# any work: exit status 2, the reason on stderr, nothing on stdout. Usage:
#
#   cmake -DEXE=<path to example_network_day> -P tools/network_day_bad_flags.cmake
if(NOT EXE)
  message(FATAL_ERROR "usage: cmake -DEXE=<example_network_day> -P ${CMAKE_SCRIPT_MODE_FILE}")
endif()

# Each case is "<flag>|<text stderr must contain>": a trailing unit, a
# letter O for a zero, and a step no sweep grid can take.
foreach(case "--sweep-step=30m|--sweep-step=30m is not a number"
             "--bandwidth=1O|--bandwidth=1O is not a number"
             "--sweep-step=inf|sweep step must be finite and positive")
  string(FIND "${case}" "|" bar)
  string(SUBSTRING "${case}" 0 ${bar} flag)
  math(EXPR after "${bar} + 1")
  string(SUBSTRING "${case}" ${after} -1 reason)
  execute_process(
    COMMAND "${EXE}" "${flag}"
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr
    RESULT_VARIABLE status)
  if(NOT status STREQUAL "2")
    message(FATAL_ERROR "network_day ${flag} exited with '${status}', want 2")
  endif()
  if(NOT stdout STREQUAL "")
    message(FATAL_ERROR "network_day ${flag} printed before rejecting the flag:\n${stdout}")
  endif()
  string(FIND "${stderr}" "${reason}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "network_day ${flag}: stderr lacks '${reason}':\n${stderr}")
  endif()
endforeach()
