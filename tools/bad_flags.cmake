# Flag-rejection check for an example program.
#
# Runs EXE once per case and fails unless each run stops before any work:
# exit status 2, the reason on stderr, nothing on stdout. Each argument
# after `--` is one case, "<flags>|<text stderr must contain>", with the
# flags separated by spaces. Usage:
#
#   cmake -DEXE=<example> -P tools/bad_flags.cmake -- "<flags>|<reason>"...
if(NOT EXE)
  message(FATAL_ERROR "usage: cmake -DEXE=<example> -P ${CMAKE_SCRIPT_MODE_FILE} -- \"<flags>|<reason>\"...")
endif()
get_filename_component(program "${EXE}" NAME)

set(cases)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND cases "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(NOT cases)
  message(FATAL_ERROR "${program}: no cases given after --")
endif()

foreach(case IN LISTS cases)
  string(FIND "${case}" "|" bar)
  if(bar EQUAL -1)
    message(FATAL_ERROR "case '${case}' has no '|<reason>'")
  endif()
  string(SUBSTRING "${case}" 0 ${bar} flag_text)
  math(EXPR after "${bar} + 1")
  string(SUBSTRING "${case}" ${after} -1 reason)
  separate_arguments(flags UNIX_COMMAND "${flag_text}")
  execute_process(
    COMMAND "${EXE}" ${flags}
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr
    RESULT_VARIABLE status)
  if(NOT status STREQUAL "2")
    message(FATAL_ERROR "${program} ${flag_text} exited with '${status}', want 2")
  endif()
  if(NOT stdout STREQUAL "")
    message(FATAL_ERROR "${program} ${flag_text} printed before rejecting the flag:\n${stdout}")
  endif()
  string(FIND "${stderr}" "${reason}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${program} ${flag_text}: stderr lacks '${reason}':\n${stderr}")
  endif()
endforeach()
