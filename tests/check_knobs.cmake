# Knob-table guard, run as a CTest:
#   cmake -DQTC_ROOT=<repo> -P tests/check_knobs.cmake
# Fails when the environment is read anywhere in src/ outside
# core/knobs.cpp, or when README's knob table and the names in
# core/knobs.hpp's table differ.

if(NOT QTC_ROOT)
  message(FATAL_ERROR "pass -DQTC_ROOT=<repository root>")
endif()

file(GLOB_RECURSE sources "${QTC_ROOT}/src/*.cpp" "${QTC_ROOT}/src/*.hpp")
set(offenders "")
foreach(path IN LISTS sources)
  if(path STREQUAL "${QTC_ROOT}/src/core/knobs.cpp")
    continue()
  endif()
  file(READ "${path}" text)
  string(FIND "${text}" "getenv" at)
  if(NOT at EQUAL -1)
    list(APPEND offenders "${path}")
  endif()
endforeach()
if(offenders)
  list(JOIN offenders "\n  " shown)
  message(FATAL_ERROR
    "getenv outside src/core/knobs.cpp (add a row to the knob table "
    "instead):\n  ${shown}")
endif()

file(READ "${QTC_ROOT}/src/core/knobs.hpp" header)
string(REGEX MATCHALL "\"QTC_[A-Z0-9_]+\"" table_names "${header}")
string(REPLACE "\"" "" table_names "${table_names}")
list(SORT table_names)

# Match only the first cell of each row: whole rows hold ';' and '[', which
# CMake's list handling would split.
file(READ "${QTC_ROOT}/README.md" readme)
string(REGEX MATCHALL "\n\\| `QTC_[A-Z0-9_]+` \\|" rows "${readme}")
string(REGEX MATCHALL "QTC_[A-Z0-9_]+" readme_names "${rows}")
list(SORT readme_names)

if(NOT table_names STREQUAL readme_names)
  message(FATAL_ERROR
    "README knob table does not match core/knobs.hpp:\n"
    "  table:  ${table_names}\n  README: ${readme_names}")
endif()
list(LENGTH table_names count)
message(STATUS "knob table guard: ${count} knobs, README in sync")
