# Runs PROBE (with the optional argument list PROBE_ARGS), captures its
# stdout in OUT and fails unless OUT matches GOLDEN byte for byte (printing
# a unified diff when `diff` is available).
#   cmake -DPROBE=<exe> [-DPROBE_ARGS=<arg;...>] -DGOLDEN=<file> -DOUT=<file>
#         -P compare_golden.cmake
execute_process(COMMAND ${PROBE} ${PROBE_ARGS} OUTPUT_FILE ${OUT}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PROBE} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differs)
if(differs)
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND ${DIFF} -u ${GOLDEN} ${OUT})
  endif()
  message(FATAL_ERROR "${OUT} differs from ${GOLDEN}")
endif()
