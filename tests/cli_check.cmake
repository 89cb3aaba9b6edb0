# cli_check.cmake - runs one softsched_cli command line and checks its exit
# status and that its stdout or stderr contains every text in EXPECT (a
# list; empty = no text check). The Cli.* cases in tests/CMakeLists.txt
# run through it:
#
#   cmake -DCLI=<softsched_cli> "-DARGS=<args>" -DEXIT=<n> "-DEXPECT=<text>[;<text>...]"
#         -P cli_check.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CLI}" ${args}
                RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status STREQUAL "${EXIT}")
  message(FATAL_ERROR "softsched_cli ${ARGS}: exit ${status}, expected ${EXIT}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
foreach(text IN LISTS EXPECT)
  string(FIND "${out}${err}" "${text}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "softsched_cli ${ARGS}: output lacks '${text}'\n"
                        "stdout:\n${out}\nstderr:\n${err}")
  endif()
endforeach()
