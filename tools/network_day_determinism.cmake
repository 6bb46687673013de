# End-to-end thread-count determinism check for example_network_day.
#
# Runs the example at SSPLANE_THREADS=1 and SSPLANE_THREADS=4 and fails
# unless both runs print byte-identical campaign and per-step campaign CSV
# blocks and write byte-identical deterministic (deterministic=1) rows to
# the metrics CSV. Usage:
#
#   cmake -DEXE=<path to example_network_day> -DWORK_DIR=<scratch dir>
#         -P tools/network_day_determinism.cmake
if(NOT EXE OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DEXE=<example_network_day> -DWORK_DIR=<dir> -P ${CMAKE_SCRIPT_MODE_FILE}")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")

# The CSV block that follows `header` in `text`, up to the next blank line.
function(csv_block text header out_var)
  string(FIND "${text}" "${header}\n" begin)
  if(begin EQUAL -1)
    message(FATAL_ERROR "network_day output has no '${header}' block")
  endif()
  string(SUBSTRING "${text}" ${begin} -1 rest)
  string(FIND "${rest}" "\n\n" end)
  string(SUBSTRING "${rest}" 0 ${end} block)
  set(${out_var} "${block}" PARENT_SCOPE)
endfunction()

foreach(threads 1 4)
  set(metrics "${WORK_DIR}/network_day_metrics_threads${threads}.csv")
  file(REMOVE "${metrics}")
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E env SSPLANE_THREADS=${threads}
            "${EXE}" --sweep-step=21600 --sessions=20000 --metrics=${metrics}
    OUTPUT_VARIABLE stdout
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "network_day at SSPLANE_THREADS=${threads} exited with ${status}")
  endif()
  csv_block("${stdout}" "campaign CSV (scenario axes -> metric columns):"
            campaign_${threads})
  csv_block("${stdout}" "per-step campaign CSV (scenario x step -> trace columns):"
            steps_${threads})
  file(STRINGS "${metrics}" deterministic_${threads} REGEX ",1$")
  if(NOT deterministic_${threads})
    message(FATAL_ERROR "metrics CSV at SSPLANE_THREADS=${threads} has no deterministic rows")
  endif()
endforeach()

foreach(part campaign steps deterministic)
  if(NOT "${${part}_1}" STREQUAL "${${part}_4}")
    file(WRITE "${WORK_DIR}/network_day_${part}_threads1.txt" "${${part}_1}")
    file(WRITE "${WORK_DIR}/network_day_${part}_threads4.txt" "${${part}_4}")
    message(FATAL_ERROR "network_day ${part} output differs between SSPLANE_THREADS=1 and 4; "
                        "see ${WORK_DIR}/network_day_${part}_threads{1,4}.txt")
  endif()
endforeach()
message(STATUS "network_day campaign CSV, per-step CSV and deterministic metrics "
               "are identical at SSPLANE_THREADS=1 and 4")
