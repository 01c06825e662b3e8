# Fail unless EXE exits 0, its stdout matches the regular expression REGEX,
# and every CSV it was to write has the stated number of lines.  CSVS is a
# comma-separated list of "<file>=<lines>", relative to the working
# directory; each file is removed before EXE runs, so a stale one from an
# earlier run cannot pass.
#
#   cmake -DEXE=<path> -DREGEX=<regex> -DCSVS=<file=lines,...> -P figure_check.cmake
string(REPLACE "," ";" csvs "${CSVS}")
foreach(csv IN LISTS csvs)
  string(REGEX REPLACE "=[0-9]+$" "" file "${csv}")
  file(REMOVE "${file}")
endforeach()
execute_process(COMMAND "${EXE}" RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE}: exited ${rc}\n${out}${err}")
endif()
if(NOT out MATCHES "${REGEX}")
  message(FATAL_ERROR "${EXE}: output has no match for ${REGEX}:\n${out}")
endif()
foreach(csv IN LISTS csvs)
  string(REGEX REPLACE "=[0-9]+$" "" file "${csv}")
  string(REGEX REPLACE "^.*=" "" want "${csv}")
  file(STRINGS "${file}" lines)
  list(LENGTH lines got)
  if(NOT got EQUAL want)
    message(FATAL_ERROR "${file}: ${got} lines, expected ${want}")
  endif()
endforeach()
