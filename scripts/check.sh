#!/usr/bin/env bash
# Hardened tier-1 check, two sanitizer passes:
#
#  1. AddressSanitizer + UndefinedBehaviorSanitizer over the full ctest
#     suite. Memory bugs in the fault-injection / degradation paths (which
#     deliberately feed the pipeline garbled data) show up here long before
#     they would corrupt a real debugging session.
#  2. ThreadSanitizer over the concurrency surface: the thread-pool unit
#     tests, the sharded obs metrics registry, the Monte-Carlo trial
#     fan-out and the Session facade, the cancellation races (Resilience,
#     CancelToken), the query layer's shared ArtifactStore and the
#     traceseld daemon's multi-tenant job handling (Query, ArtifactStore,
#     Service).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-asan}
TSAN_BUILD_DIR=${TSAN_BUILD_DIR:-build-tsan}

cmake -B "$BUILD_DIR" -S . -DTRACESEL_SANITIZE=ON
cmake --build "$BUILD_DIR" -j
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

cmake -B "$TSAN_BUILD_DIR" -S . -DTRACESEL_SANITIZE=thread
cmake --build "$TSAN_BUILD_DIR" -j
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir "$TSAN_BUILD_DIR" --output-on-failure -j "$(nproc)" \
    -R 'ThreadPool|Kernel|MonteCarlo|Session|Obs|Resilience|CancelToken|ArtifactStore|QueryCore|Service|Framing'
