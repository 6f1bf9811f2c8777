#!/usr/bin/env bash
# Hardened tier-1 check, two sanitizer passes:
#
#  1. AddressSanitizer + UndefinedBehaviorSanitizer over the full ctest
#     suite. Memory bugs in the fault-injection / degradation paths (which
#     deliberately feed the pipeline garbled data) show up here long before
#     they would corrupt a real debugging session. The pass then runs the
#     localization oracle gate (bench_kernels), so the state grid's 128-bit
#     closed form and its worklist indexing run sanitized on T2 scenarios
#     1-3 as well as under the unit tests.
#  2. ThreadSanitizer over the concurrency surface: the sharded obs
#     metrics registry and the log sink under multi-thread contention (Obs,
#     LogTest), cancellation (MonteCarlo, Resilience, CancelToken, the
#     latter two with cross-thread cancel races), the query layer's shared ArtifactStore and the
#     traceseld daemon's connection and runner threads (QueryCore, Kernel,
#     Service, Framing). Every filter term must match at least one test, so
#     a rename cannot silently drop TSan coverage.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-asan}
TSAN_BUILD_DIR=${TSAN_BUILD_DIR:-build-tsan}

cmake -B "$BUILD_DIR" -S . -DTRACESEL_SANITIZE=ON
cmake --build "$BUILD_DIR" -j
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
(cd "$BUILD_DIR" &&
  ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
    ./bench/bench_kernels)

TSAN_TERMS=(Obs LogTest MonteCarlo Resilience CancelToken ArtifactStore
            QueryCore ProductDifferential Version2 Service Framing)
cmake -B "$TSAN_BUILD_DIR" -S . -DTRACESEL_SANITIZE=thread
cmake --build "$TSAN_BUILD_DIR" -j
for term in "${TSAN_TERMS[@]}"; do
  matched=$(ctest --test-dir "$TSAN_BUILD_DIR" -N -R "$term" |
            sed -n 's/^Total Tests: //p')
  if [ "${matched:-0}" -eq 0 ]; then
    echo "FAIL: TSan filter term '$term' matches no test"
    exit 1
  fi
done
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir "$TSAN_BUILD_DIR" --output-on-failure -j "$(nproc)" \
    -R "$(IFS='|'; echo "${TSAN_TERMS[*]}")"
