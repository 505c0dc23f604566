# Hooked into the repository's own CMake project by run.py, through
# CMAKE_PROJECT_INCLUDE, so the benchmark links the wj_* libraries exactly
# as src/ defines them. The include is deferred to the end of the top-level
# CMakeLists.txt, after every library target and global option (C++20,
# -ffp-contract=off, exported executable symbols) is in place.
set(WJ_PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER CALL include "${WJ_PERFBENCH_DIR}/CMakeLists.txt")
