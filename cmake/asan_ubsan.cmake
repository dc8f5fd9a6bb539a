# Runs the memory/UB-sensitive tests under AddressSanitizer + UBSan.
#
# Invoked by the `asan_ubsan` ctest entry (see the top-level
# CMakeLists.txt). Configures a nested build of the same source tree with
# FULLWEB_SANITIZE=address,undefined, builds only the targets that exercise
# parsers, workspace reuse, and the validation harness, and runs them. Any
# report aborts the test (halt_on_error=1, -fno-sanitize-recover).
#
# Expected -D variables: SOURCE_DIR, BUILD_DIR, GENERATOR, CXX_COMPILER.

foreach(var SOURCE_DIR BUILD_DIR GENERATOR CXX_COMPILER)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "asan_ubsan.cmake: missing -D${var}")
  endif()
endforeach()

message(STATUS "[asan] configuring ${BUILD_DIR}")
execute_process(
  COMMAND ${CMAKE_COMMAND}
    -S ${SOURCE_DIR} -B ${BUILD_DIR}
    -G ${GENERATOR}
    -DCMAKE_CXX_COMPILER=${CXX_COMPILER}
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
    "-DFULLWEB_SANITIZE=address,undefined"
    -DFULLWEB_TSAN_CHECK=OFF
    -DFULLWEB_ASAN_UBSAN_CHECK=OFF
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "[asan] configure failed (${rc})")
endif()

# Parsers (weblog, bench_compare JSON, the binary columnar decoder with
# its corruption corpus), workspace arena reuse, the tail kernels that
# recycle arenas across replicates, and the validation harness (edge
# inputs + Monte Carlo fan-out) are where lifetime/UB bugs would live.
# test_weblog_parser_identity's exact-size buffers make any vector-scan
# read past a chunk or token end an ASan stop, which is the memory-safety
# half of the SIMD bit-identity contract.
# test_online_sketch and test_online_analyzer feed the online layer
# degenerate and adversarial streams (NaN/inf timestamps, merge pooling,
# alias-table draws); index math over the block ring and the sketch's
# retained vectors is exactly the kind of off-by-one ASan/UBSan catches.
# test_tail_curvature drives the curvature replicate generator, which
# writes a window of the LLCD by rank arithmetic into reused arena slots.
# test_weblog_streaming and test_weblog_sessionizer cover the library's
# only CLF reader (chunk carry-over, record views into parse blocks) and
# its only sessionizer (list splicing and iterator-keyed eviction).
set(FULLWEB_ASAN_TESTS
  test_support_workspace test_support_json
  test_tools_bench_compare test_edge_inputs
  test_validation test_weblog_corpus test_weblog_parser_identity
  test_store_columnar test_online_sketch test_online_analyzer
  test_tail_curvature test_weblog_streaming test_weblog_sessionizer)

message(STATUS "[asan] building ${FULLWEB_ASAN_TESTS}")
execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BUILD_DIR}
    --target ${FULLWEB_ASAN_TESTS}
    --parallel
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "[asan] build failed (${rc})")
endif()

foreach(test_bin IN LISTS FULLWEB_ASAN_TESTS)
  message(STATUS "[asan] running ${test_bin}")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
      ASAN_OPTIONS=halt_on_error=1:detect_leaks=1
      UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
      ${BUILD_DIR}/tests/${test_bin}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "[asan] ${test_bin} failed under ASan+UBSan (${rc})")
  endif()
endforeach()

message(STATUS "[asan] all tests passed under ASan+UBSan")
