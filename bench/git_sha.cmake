# Writes OUT as a header defining MURPHY_GIT_SHA from `git describe --always
# --dirty` in SRC. Run at build time (the murphy_git_sha target in
# CMakeLists.txt), so a snapshot regenerated from uncommitted changes reads
# "<sha>-dirty" and a tree configured at an older commit never stamps that
# commit. The header is rewritten only when the value changes, so an
# unchanged SHA recompiles nothing.
execute_process(
  COMMAND git describe --always --dirty
  WORKING_DIRECTORY ${SRC}
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT sha)
  set(sha "unknown")
endif()
file(WRITE "${OUT}.tmp" "#define MURPHY_GIT_SHA \"${sha}\"\n")
execute_process(COMMAND ${CMAKE_COMMAND} -E copy_if_different "${OUT}.tmp"
                        "${OUT}")
file(REMOVE "${OUT}.tmp")
