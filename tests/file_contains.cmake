# Fail unless FILE contains a match for the regular expression REGEX.
#
#   cmake -DFILE=<path> -DREGEX=<regex> -P file_contains.cmake
file(READ "${FILE}" text)
if(NOT text MATCHES "${REGEX}")
  message(FATAL_ERROR "${FILE}: no match for ${REGEX}")
endif()
