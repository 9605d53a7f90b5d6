# Runs heatmap --json on a copy of TRACE whose file name holds a tab and
# fails unless the report is valid JSON: no raw control character (JSON
# strings must escape them), and the "file" member decodes back to the
# copy's path.
#
#   cmake -DHEATMAP=<binary> -DTRACE=<.ddmtrc> -DWORK_DIR=<dir>
#         -P HeatmapJsonControlChar.cmake

file(MAKE_DIRECTORY ${WORK_DIR})
set(Copy "${WORK_DIR}/tab\tname.ddmtrc")
file(COPY_FILE ${TRACE} "${Copy}")

execute_process(COMMAND ${HEATMAP} --json --transactions 1 "${Copy}"
  OUTPUT_VARIABLE Out ERROR_VARIABLE Err RESULT_VARIABLE Status)
if(NOT Status EQUAL 0)
  message(FATAL_ERROR "heatmap exited ${Status}\n${Err}")
endif()
string(REGEX REPLACE "\n$" "" Doc "${Out}")

foreach(Code RANGE 1 31)
  string(ASCII ${Code} Char)
  string(FIND "${Doc}" "${Char}" At)
  if(NOT At EQUAL -1)
    message(FATAL_ERROR
      "raw control character ${Code} at offset ${At} in:\n${Doc}")
  endif()
endforeach()

string(JSON File ERROR_VARIABLE JsonErr GET "${Doc}" traces 0 file)
if(JsonErr)
  message(FATAL_ERROR "not JSON (${JsonErr}):\n${Doc}")
endif()
if(NOT File STREQUAL Copy)
  message(FATAL_ERROR "file member '${File}' is not '${Copy}'")
endif()
