#!/usr/bin/env sh
# Build the runtime tests under ThreadSanitizer and run the scheduler's
# concurrency surface. Every threaded run executes on a WorkerPool — the
# caller's, or a graph's private pool, which the graph destroys only after
# detaching from it — so every suite below also exercises that lifetime
# edge. test_runtime (API + wakeup paths),
# test_scheduler_stress (randomized DAGs, submission racing execution,
# both policies, 1-8 threads), test_observability (the per-worker
# counter instrumentation: single-writer slots racing the stats() reader,
# steal accounting under contention), test_pack_concurrency (one shared
# PackedPanel consumed read-only by many S tasks while other workers pack
# the next panel — the only happens-before is the scheduler's dep edge),
# test_worker_pool (persistent workers rotating between concurrently
# attached DAGs: the attach/detach, park/wake and control-epoch
# handshakes), test_blas_pack (including the dead-thread_local slab
# pool regression, which under ASAN is a heap use-after-free if pool()
# ever hands back the destroyed pool), test_fault_inject (the
# failure-aware surface: seeded fault injection — throws, delays and
# cancel-oblivious hangs — into hundreds of CALU/CAQR runs, cancellation,
# the fast-abort drain accounting, and the 200-seed service fault storm
# with retry + stall watchdog + breakers armed — exactly the error paths
# production never exercises until it hurts),
# test_svc (the multi-tenant job service: dispatcher threads racing
# submit/shed/cancel/shutdown over one shared pool, the watchdog firing
# deadlines AND stall-cancels against running jobs while its seqlock
# heartbeat reads race the workers' writes, retry re-enqueues racing
# shutdown, breaker state shared across submitters) and
# test_window (sliding-window DAG
# submission: the submission thread recycling task-store slabs and
# harvesting trace records of retired iterations while workers are
# still completing newer ones). Any reported race fails the run.
#
# Usage: tools/run_tsan.sh [build-dir]        (default: build-tsan)
# Other sanitizers via: SAN=address tools/run_tsan.sh
#                       SAN=undefined tools/run_tsan.sh
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
san=${SAN:-thread}
build_dir=${1:-"$repo_root/build-$san"}

cmake -B "$build_dir" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCAMULT_SANITIZE="$san" \
  -DCAMULT_NATIVE_ARCH=OFF \
  -DCAMULT_BUILD_BENCH=OFF \
  -DCAMULT_BUILD_EXAMPLES=OFF
cmake --build "$build_dir" -j --target test_runtime test_scheduler_stress \
  test_observability test_pack_concurrency test_worker_pool test_blas_pack \
  test_fault_inject test_svc test_window

case "$san" in
  thread)
    export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1${TSAN_OPTIONS:+ $TSAN_OPTIONS}"
    ;;
  address)
    export ASAN_OPTIONS="detect_leaks=1${ASAN_OPTIONS:+ $ASAN_OPTIONS}"
    ;;
  undefined)
    export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1${UBSAN_OPTIONS:+ $UBSAN_OPTIONS}"
    ;;
esac

"$build_dir/tests/test_runtime"
"$build_dir/tests/test_scheduler_stress"
"$build_dir/tests/test_observability"
"$build_dir/tests/test_pack_concurrency"
"$build_dir/tests/test_worker_pool"
"$build_dir/tests/test_blas_pack"
"$build_dir/tests/test_fault_inject"
"$build_dir/tests/test_svc"
"$build_dir/tests/test_window"
echo "[$san sanitizer] all scheduler tests passed"
