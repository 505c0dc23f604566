# Keeps translation options and the pool width values, not environment
# reads scattered through the pipeline:
#   * TranslateOptions::fromEnv() (src/support/translate_options.cpp) is the
#     only code in src/ naming WJ_BOUNDS, WJ_PARALLEL, WJ_SIMD or WJ_SOA;
#   * the pool reads WJ_THREADS in one place (src/runtime/threadpool.cpp),
#     and ThreadPool::parallelFor reads no environment at all;
#   * nothing under src/analysis/ and neither src/jit/codegen.cpp calls getenv;
#   * nothing under src/ calls setenv or putenv: the library never writes the
#     environment that other threads may be reading (edges set defaults in
#     main() before any thread starts);
#   * tools/, bench/ and examples/ pass those five settings down as values
#     instead of setenv'ing them.
#
#   cmake -DROOT=<source dir> -P tests/check_env_reads.cmake
if(NOT ROOT)
  message(FATAL_ERROR "usage: cmake -DROOT=<source dir> -P check_env_reads.cmake")
endif()

set(problems "")

file(GLOB_RECURSE src_files "${ROOT}/src/*.cpp" "${ROOT}/src/*.h")
foreach(f ${src_files})
  file(RELATIVE_PATH rel "${ROOT}" "${f}")
  file(STRINGS "${f}" hits REGEX "\"WJ_(BOUNDS|PARALLEL|SIMD|SOA)\"")
  if(hits AND NOT rel STREQUAL "src/support/translate_options.cpp")
    list(APPEND problems "${rel} names a translation switch: ${hits}")
  endif()
  file(STRINGS "${f}" hits REGEX "\"WJ_THREADS\"")
  if(hits AND NOT rel STREQUAL "src/runtime/threadpool.cpp")
    list(APPEND problems "${rel} reads WJ_THREADS: ${hits}")
  endif()
  file(STRINGS "${f}" hits REGEX "(^|[^a-z_])(setenv|putenv)\\([^)]")
  if(hits)
    list(APPEND problems "${rel} writes the environment: ${hits}")
  endif()
  if(rel MATCHES "^src/analysis/" OR rel STREQUAL "src/jit/codegen.cpp")
    file(STRINGS "${f}" hits REGEX "getenv")
    if(hits)
      list(APPEND problems "${rel} calls getenv: ${hits}")
    endif()
  endif()
endforeach()

file(READ "${ROOT}/src/runtime/threadpool.cpp" pool)
string(FIND "${pool}" "void ThreadPool::parallelFor(" start)
if(start LESS 0)
  list(APPEND problems "src/runtime/threadpool.cpp: ThreadPool::parallelFor not found")
else()
  string(SUBSTRING "${pool}" ${start} -1 body)
  string(FIND "${body}" "\n}\n" end)
  string(SUBSTRING "${body}" 0 ${end} body)
  if(body MATCHES "getenv|env(Int|Flag|Str)\\(")
    list(APPEND problems "ThreadPool::parallelFor reads the environment")
  endif()
endif()

file(GLOB_RECURSE edge_files "${ROOT}/tools/*" "${ROOT}/bench/*" "${ROOT}/examples/*")
foreach(f ${edge_files})
  file(RELATIVE_PATH rel "${ROOT}" "${f}")
  file(STRINGS "${f}" hits REGEX "(^|[^a-z_])setenv\\(\"WJ_(BOUNDS|PARALLEL|SIMD|SOA|THREADS)\"")
  if(hits)
    list(APPEND problems "${rel} setenv's a translation switch: ${hits}")
  endif()
endforeach()

if(problems)
  list(JOIN problems "\n  " text)
  message(FATAL_ERROR "environment reads outside the edges:\n  ${text}")
endif()
message(STATUS "translation switches and pool width are read only at the edges")
