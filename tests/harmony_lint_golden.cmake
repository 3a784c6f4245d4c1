# Runs every harmony-lint invocation listed in golden/harmony_lint/
# cases.txt and compares its standard output plus exit status with the
# committed golden file of the same name.
#
#   cmake -DLINT=<harmony-lint binary> -DGOLDEN_DIR=<dir> [-DUPDATE=ON]
#         -P harmony_lint_golden.cmake
#
# UPDATE=ON rewrites the goldens instead of comparing.
file(STRINGS "${GOLDEN_DIR}/cases.txt" lines)
set(failed "")
foreach(line IN LISTS lines)
  if(line MATCHES "^#" OR line STREQUAL "")
    continue()
  endif()
  separate_arguments(words UNIX_COMMAND "${line}")
  list(POP_FRONT words name)
  execute_process(COMMAND "${LINT}" ${words}
                  OUTPUT_VARIABLE out
                  RESULT_VARIABLE code)
  set(got "${out}exit ${code}\n")
  set(golden "${GOLDEN_DIR}/${name}.txt")
  if(UPDATE)
    file(WRITE "${golden}" "${got}")
    continue()
  endif()
  file(READ "${golden}" want)
  if(NOT got STREQUAL want)
    message("harmony-lint ${line}\n--- golden\n${want}--- got\n${got}")
    list(APPEND failed "${name}")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "harmony-lint output differs from golden: ${failed}")
endif()
