# cli_check.cmake - runs one softsched_cli command line and checks its exit
# status and, when EXPECT is non-empty, that its stdout or stderr contains
# EXPECT. The Cli.* cases in tests/CMakeLists.txt run through it:
#
#   cmake -DCLI=<softsched_cli> "-DARGS=<args>" -DEXIT=<n> "-DEXPECT=<text>"
#         -P cli_check.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CLI}" ${args}
                RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status STREQUAL "${EXIT}")
  message(FATAL_ERROR "softsched_cli ${ARGS}: exit ${status}, expected ${EXIT}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT EXPECT STREQUAL "")
  string(FIND "${out}${err}" "${EXPECT}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "softsched_cli ${ARGS}: output lacks '${EXPECT}'\n"
                        "stdout:\n${out}\nstderr:\n${err}")
  endif()
endif()
