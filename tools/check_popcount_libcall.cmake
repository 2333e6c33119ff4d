# Fails when any object of a static library references the libgcc
# software popcount (__popcountdi2 and its si/ti siblings), i.e. when a
# std::popcount in the library was compiled without the POPCNT
# instruction. Registered as the `popcnt_build` ctest on x86-64:
#
#   cmake -DNM=<nm> -DLIB=<path/to/libtcim.a> \
#         -P tools/check_popcount_libcall.cmake
if(NOT NM OR NOT LIB)
  message(FATAL_ERROR "usage: cmake -DNM=<nm> -DLIB=<archive> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

execute_process(COMMAND ${NM} -A ${LIB}
                OUTPUT_VARIABLE symbols
                ERROR_VARIABLE nm_error
                RESULT_VARIABLE nm_status)
if(NOT nm_status EQUAL 0)
  message(FATAL_ERROR "${NM} -A ${LIB} failed (${nm_status}): ${nm_error}")
endif()

string(REGEX MATCHALL "[^\n]*__popcount[dst]i2[^\n]*" hits "${symbols}")
if(hits)
  list(JOIN hits "\n  " listing)
  message(FATAL_ERROR
    "software popcount calls in ${LIB} (build without -mpopcnt?):\n  ${listing}")
endif()
message(STATUS "no software popcount calls in ${LIB}")
