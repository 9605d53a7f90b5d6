# Runs PROGRAM once for every allocator name its --help lists under the
# flag --FLAG, with ARGS (a ;-list) appended, and fails unless every run
# exits 0: a name the CLI advertises must never end in a signal or an
# internal error.
#
#   cmake -DPROGRAM=<binary> -DFLAG=allocators
#         "-DARGS=--scale;0.02;--transactions;1" -P EveryAllocatorName.cmake

execute_process(COMMAND ${PROGRAM} --help
  OUTPUT_VARIABLE Help RESULT_VARIABLE Status)
if(NOT Status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} --help exited ${Status}")
endif()

# The flag's help line ends in "(default: ...)"; the names are the whole
# description, follow "names: " in it, or read "one of a, b, or 'all'".
string(REGEX MATCH "\n  --${FLAG} [^\n]*" Line "${Help}")
string(REGEX REPLACE " \\(default: [^)]*\\)$" "" Line "${Line}")
if(Line MATCHES "names: (.*)$")
  set(Names "${CMAKE_MATCH_1}")
elseif(Line MATCHES "one of (.*), or '[^']*'$")
  set(Names "${CMAKE_MATCH_1}")
else()
  string(REGEX REPLACE "^\n  --${FLAG} +" "" Names "${Line}")
endif()
string(REPLACE ", " ";" Names "${Names}")
list(LENGTH Names Count)
if(Count LESS 2)
  message(FATAL_ERROR "no allocator names found for --${FLAG} in:\n${Help}")
endif()

foreach(Name IN LISTS Names)
  execute_process(COMMAND ${PROGRAM} --${FLAG} ${Name} ${ARGS}
    OUTPUT_QUIET ERROR_VARIABLE Err RESULT_VARIABLE Status)
  if(NOT Status STREQUAL "0")
    message(SEND_ERROR "--${FLAG} ${Name}: exit '${Status}'\n${Err}")
  else()
    message(STATUS "--${FLAG} ${Name}: ok")
  endif()
endforeach()
