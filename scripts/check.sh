#!/usr/bin/env bash
# Build and test the two configurations that gate every change:
#   - an optimized Release tree (what the benches measure), and
#   - a ThreadSanitizer tree (the task pool is concurrency-heavy and runs
#     many simulations at once; TSan keeps it honest), and
#   - an UndefinedBehaviorSanitizer tree (the compiled expression evaluator
#     leans on tight pointer/index arithmetic and bit-level float handling;
#     UBSan guards the batch kernels).
#
#   - an observability pass on the Release tree: the full test suite with
#     the obs runtime flag forced on (FTBESST_OBS=1), plus a <2% overhead
#     gate comparing the pool sweep bench with obs on vs off — the
#     instrumentation must stay near-free. The gate reads dse_pool_seconds
#     from the bench's one-line JSON report, best of 5 interleaved runs,
#     and fails if the report lacks it.
#
#   - a prediction-service pass: the svc test binary (server, cache,
#     single-flight) under ThreadSanitizer, plus the bench_ext_svc load
#     generator on the Release tree, which gates cache hits being >= 100x
#     faster than cold computations.
#
#   - a scaled-tier pass: the router/consistent-hash tests plus the
#     process-level tier soak and chaos harnesses (test_tier_slow) under
#     ThreadSanitizer — the spawned workers are the TSan-built CLI, so
#     both sides of the wire run sanitized — plus the bench_ext_tier load
#     generator on the Release tree, which gates a 4-worker tier at
#     >= 2.5x the single-worker req/s at saturation, byte-identical
#     responses versus a single-process server, and a rolling restart
#     under load with zero non-shed failures, bounded p99, and a
#     measurable warm-cache handoff.
#
#   - a verification pass: the cross-engine differential checker over 200
#     generated scenarios, golden-corpus replay, and the in-process fuzz
#     campaigns — the fuzz entries additionally under ASan+UBSan.
#
#   - a DES-scaling pass: the sim and verify test binaries (DES kernel,
#     fold multiplicity counters, fold-vs-unfold bit identity) under
#     ThreadSanitizer — the verify suite runs many simulations at once on
#     the task pool, and folding is on by default, so the folded paths run
#     sanitized — plus the bench_ext_des gates on the Release tree:
#     folded/unfolded predictions bitwise identical on two golden-corpus
#     machines, and the 393k-rank Vulcan scenario at >= 20x fold speedup
#     and < 10 s folded wall.
#
#   - a fault-injection pass: the src/inject test suite (ledger, fault
#     stream, recovery matrix, DES injection, campaign, and the golden
#     pin of injected DES campaigns) under
#     ThreadSanitizer — campaigns fan trials out over the shared task
#     pool, so the thread-bit-identity claims run sanitized — plus the
#     bench_ext_inject gates on the Release tree: a 1000-rank faulty
#     LULESH+FTI run bit-identical folded vs unfolded (every result field
#     and fault-log byte), and its campaign bit-identical at 1 thread vs
#     the pool, every trial completing, under 10 s of wall.
#
#   - a guided-search pass: the src/search test suite (space encoding, GP
#     surrogate, successive-halving bandit, Pareto bookkeeping, search
#     engine) under ThreadSanitizer — pooled cell evaluation claims bit
#     identity at any thread count — plus the bench_ext_search gates on
#     the Release tree: on every search_*.scenario golden-corpus machine
#     the guided search must find the exhaustive optimum bit-exactly and
#     a dominating-or-equal Pareto front within 10% of the sweep's
#     evaluations, thread-bit-identically.
#
#   - a slow pass: the stress/soak tests labelled `slow` in ctest, which
#     every other pass excludes with `ctest -LE slow`. Includes the
#     truly-unfolded 393k-rank Vulcan corpus replay (test_verify_slow).
#
#   - an optional coverage pass (FTBESST_COVERAGE=1 in the environment or
#     --coverage-only): instrumented build + line-coverage report for
#     src/ft and src/svc via gcovr or llvm-cov, whichever is installed.
#
# Usage: scripts/check.sh [--release-only|--tsan-only|--ubsan-only|--obs-only|--svc-only|--tier-only|--verify-only|--des-only|--inject-only|--search-only|--slow-only|--coverage-only]
#
# FTBESST_THREADS caps the shared task pool's workers if the machine is
# shared; ctest parallelism follows nproc.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)
run_release=1
run_tsan=1
run_ubsan=1
run_obs=1
run_svc=1
run_tier=1
run_verify=1
run_des=1
run_inject=1
run_search=1
run_slow=1
run_coverage=${FTBESST_COVERAGE:-0}
only() {  # keep exactly one pass
  run_release=0; run_tsan=0; run_ubsan=0; run_obs=0; run_svc=0
  run_tier=0; run_verify=0; run_des=0; run_inject=0
  run_search=0; run_slow=0; run_coverage=0
}
case "${1:-}" in
  --release-only) only; run_release=1 ;;
  --tsan-only) only; run_tsan=1 ;;
  --ubsan-only) only; run_ubsan=1 ;;
  --obs-only) only; run_obs=1 ;;
  --svc-only) only; run_svc=1 ;;
  --tier-only) only; run_tier=1 ;;
  --verify-only) only; run_verify=1 ;;
  --des-only) only; run_des=1 ;;
  --inject-only) only; run_inject=1 ;;
  --search-only) only; run_search=1 ;;
  --slow-only) only; run_slow=1 ;;
  --coverage-only) only; run_coverage=1 ;;
  "") ;;
  *)
    echo "usage: $0 [--release-only|--tsan-only|--ubsan-only|--obs-only|--svc-only|--tier-only|--verify-only|--des-only|--inject-only|--search-only|--slow-only|--coverage-only]" >&2
    exit 2
    ;;
esac

if [ "$run_release" = 1 ]; then
  echo "== Release build + ctest =="
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-release -j "$jobs"
  ctest --test-dir build-release --output-on-failure -LE slow -j "$jobs"
fi

if [ "$run_obs" = 1 ]; then
  echo "== Observability pass (Release, obs runtime-enabled) =="
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-release -j "$jobs"
  # Whole suite with obs forced on: observation must never change results.
  FTBESST_OBS=1 ctest --test-dir build-release --output-on-failure -LE slow -j "$jobs"

  # Overhead gate: the pool sweep bench (simulation-task duty cycle — the
  # instrumentation's real workload) must cost < 2% with obs enabled.
  # Scale the sweep up (FTBESST_BENCH_TRIALS) so one run is tens of ms,
  # interleave off/on runs, and compare best-of-5: scheduler noise on a
  # loaded host shows up as slow outliers, which min-of-N sheds. The bench
  # prints one canonical svc::Json line (no spaces after ':').
  extract_dse_seconds() {
    sed -n 's/.*"dse_pool_seconds":\([0-9.eE+-]*\).*/\1/p'
  }
  run_sweep() {  # $1 = value of FTBESST_OBS for the run
    FTBESST_OBS="$1" FTBESST_BENCH_TRIALS=256 \
      ./build-release/bench/bench_ext_pool | extract_dse_seconds
  }
  min_val() { awk -v a="$1" -v b="$2" 'BEGIN{print (a<b || b=="")?a:b}'; }
  off=""
  on=""
  for _ in 1 2 3 4 5; do
    off=$(min_val "$(run_sweep 0)" "$off")
    on=$(min_val "$(run_sweep 1)" "$on")
  done
  echo "obs overhead gate: dse_pool_seconds off=$off on=$on"
  if [ -z "$off" ] || [ -z "$on" ]; then
    echo "!! obs overhead gate FAILED: no dse_pool_seconds in the report" >&2
    exit 1
  fi
  if ! awk -v on="$on" -v off="$off" 'BEGIN{exit !(on <= off * 1.02)}'; then
    echo "!! obs overhead gate FAILED: enabled run is more than 2% slower" >&2
    exit 1
  fi
  echo "obs overhead gate passed (<2%)"
fi

if [ "$run_tsan" = 1 ]; then
  # Probe whether the toolchain can actually link TSan (some minimal
  # containers lack libtsan); skip with a loud note instead of failing.
  if echo 'int main(){return 0;}' | c++ -fsanitize=thread -x c++ - -o /tmp/ftbesst_tsan_probe 2>/dev/null; then
    rm -f /tmp/ftbesst_tsan_probe
    echo "== ThreadSanitizer build + ctest =="
    cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DFTBESST_SANITIZE=thread
    cmake --build build-tsan -j "$jobs"
    ctest --test-dir build-tsan --output-on-failure -LE slow -j "$jobs"
  else
    echo "!! ThreadSanitizer unavailable on this toolchain; skipped" >&2
  fi
fi

if [ "$run_ubsan" = 1 ]; then
  # Same probe pattern as TSan: skip loudly if the toolchain lacks libubsan.
  if echo 'int main(){return 0;}' | c++ -fsanitize=undefined -x c++ - -o /tmp/ftbesst_ubsan_probe 2>/dev/null; then
    rm -f /tmp/ftbesst_ubsan_probe
    echo "== UndefinedBehaviorSanitizer build + ctest =="
    cmake -B build-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DFTBESST_SANITIZE=undefined
    cmake --build build-ubsan -j "$jobs"
    UBSAN_OPTIONS=halt_on_error=1 \
      ctest --test-dir build-ubsan --output-on-failure -LE slow -j "$jobs"
  else
    echo "!! UndefinedBehaviorSanitizer unavailable on this toolchain; skipped" >&2
  fi
fi

if [ "$run_svc" = 1 ]; then
  echo "== Prediction service pass =="
  # The front-end's readers, per-connection write locks, single-flight
  # coalescing, and drain path are the raciest code in the tree: run the
  # whole svc test binary under TSan (same probe-and-skip as the TSan pass).
  if echo 'int main(){return 0;}' | c++ -fsanitize=thread -x c++ - -o /tmp/ftbesst_tsan_probe 2>/dev/null; then
    rm -f /tmp/ftbesst_tsan_probe
    cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DFTBESST_SANITIZE=thread
    cmake --build build-tsan -j "$jobs" --target test_svc
    ./build-tsan/tests/test_svc
  else
    echo "!! ThreadSanitizer unavailable; svc tests run unsanitized" >&2
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build-release -j "$jobs" --target test_svc
    ./build-release/tests/test_svc
  fi

  # Load-generator gate: bench_ext_svc exits non-zero unless every response
  # was well-formed, hot bytes matched cold bytes, and a cache hit was at
  # least 100x faster than the cold computation.
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-release -j "$jobs" --target bench_ext_svc
  ./build-release/bench/bench_ext_svc
  echo "svc pass: TSan tests + 100x cache-hit gate passed"
fi

if [ "$run_tier" = 1 ]; then
  echo "== Scaled-tier pass (router tests + soak/chaos under TSan, bench gates) =="
  # The router's reader/proxy/supervisor threads and the warm-handoff path
  # are the tier's raciest code. Run the router/consistent-hash tests, the
  # front-end contract tests against both compositions (Server and Router),
  # and the process-level soak + chaos harnesses under TSan; test_tier_slow
  # spawns the TSan-built `ftbesst worker` binary (exec-only spawn, no
  # fork-without-exec), so the worker side of every frame is sanitized
  # too. Same probe-and-skip as the other sanitizer passes.
  if echo 'int main(){return 0;}' | c++ -fsanitize=thread -x c++ - -o /tmp/ftbesst_tsan_probe 2>/dev/null; then
    rm -f /tmp/ftbesst_tsan_probe
    cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DFTBESST_SANITIZE=thread
    cmake --build build-tsan -j "$jobs" --target test_svc test_tier_slow
    ./build-tsan/tests/test_svc \
      --gtest_filter='Router.*:RingHash.*:HashRing.*:Compositions/FrontendContract.*'
    ./build-tsan/tests/test_tier_slow
  else
    echo "!! ThreadSanitizer unavailable; tier tests run unsanitized" >&2
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build-release -j "$jobs" --target test_svc test_tier_slow
    ./build-release/tests/test_svc \
      --gtest_filter='Router.*:RingHash.*:HashRing.*:Compositions/FrontendContract.*'
    ./build-release/tests/test_tier_slow
  fi

  # Load-generator gate: bench_ext_tier exits non-zero unless the 4-worker
  # tier sustains >= 2.5x the single-worker req/s at saturation, every
  # response is byte-identical to the single-process server's, and a
  # rolling restart under load completes with zero non-shed failures,
  # bounded p99, and a measurable journal-driven cache re-warm.
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-release -j "$jobs" --target bench_ext_tier
  ./build-release/bench/bench_ext_tier > build-release/bench_ext_tier.json
  echo "tier pass: TSan router/soak/chaos suites + scaling/identity/restart gates passed"
fi

if [ "$run_verify" = 1 ]; then
  echo "== Verification pass (differential + corpus + fuzz) =="
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-release -j "$jobs" --target ftbesst test_verify
  # The three verification gates, straight from the CLI: 200 differential
  # scenarios (any failure is shrunk and dumped for triage), the corpus
  # pass (byte-exact replay plus every differential leg on every entry),
  # and the budgeted fuzz campaigns.
  ./build-release/tools/ftbesst verify --differential 200 --seed 1 \
    --dump build-release/diff-failures
  ./build-release/tools/ftbesst verify --corpus tests/corpus
  ./build-release/tools/ftbesst verify --fuzz 2000 --seed 1
  # The harness's own test binary (checker-checks: injected mispricing
  # must be caught, shrinking is deterministic, obs stays bit-identical).
  ./build-release/tests/test_verify

  # Fuzz entries again under ASan+UBSan: hostile-input handling must be
  # clean under instrumentation, not just not-crash in Release. Same
  # probe-and-skip as the sanitizer passes.
  if echo 'int main(){return 0;}' | c++ -fsanitize=address,undefined -x c++ - -o /tmp/ftbesst_asan_probe 2>/dev/null; then
    rm -f /tmp/ftbesst_asan_probe
    cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DFTBESST_SANITIZE=address,undefined
    cmake --build build-asan -j "$jobs" --target ftbesst
    UBSAN_OPTIONS=halt_on_error=1 \
      ./build-asan/tools/ftbesst verify --fuzz 2000 --seed 1
  else
    echo "!! ASan+UBSan unavailable on this toolchain; fuzz ran unsanitized" >&2
  fi
  echo "verify pass: differential + corpus + fuzz gates passed"
fi

if [ "$run_des" = 1 ]; then
  echo "== DES-scaling pass (kernel + folded runs under TSan, bench gates) =="
  # Simulations share nothing but the thread-local payload freelist, and
  # the verify suite runs many of them at once on the task pool; run_des
  # folds its ranks by default, so the verify suite exercises the folded
  # paths under TSan directly (it adds the fold-vs-unfold differential
  # leg and the folded corpus replay), and the sim suite checks the
  # multiplicity-scaled counters. Same probe-and-skip as the other
  # sanitizer passes.
  if echo 'int main(){return 0;}' | c++ -fsanitize=thread -x c++ - -o /tmp/ftbesst_tsan_probe 2>/dev/null; then
    rm -f /tmp/ftbesst_tsan_probe
    cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DFTBESST_SANITIZE=thread
    cmake --build build-tsan -j "$jobs" --target test_sim test_verify
    ./build-tsan/tests/test_sim
    ./build-tsan/tests/test_verify
  else
    echo "!! ThreadSanitizer unavailable; sim/verify tests run unsanitized" >&2
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build-release -j "$jobs" --target test_sim test_verify
    ./build-release/tests/test_sim
    ./build-release/tests/test_verify
  fi

  # bench_ext_des exits non-zero if folded predictions diverge bitwise
  # from unfolded ones anywhere in the golden corpus, or if the 393k-rank
  # Vulcan scenario misses the >= 20x fold speedup / < 10 s wall gates.
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-release -j "$jobs" --target bench_ext_des
  ./build-release/bench/bench_ext_des > build-release/bench_ext_des.json
  echo "des pass: TSan sim/verify suites + fold-identity/speedup gates passed"
fi

if [ "$run_inject" = 1 ]; then
  echo "== Fault-injection pass (inject suite under TSan, campaign bench gates) =="
  # Campaigns fan independent trials out over the shared task pool and
  # claim bit-identity at any thread count; run the whole inject suite
  # (ledger, fault stream, recovery matrix, DES injection, campaign, the
  # DesInjectGolden byte pin) under
  # TSan so those claims are checked on sanitized threads. Same
  # probe-and-skip as the other sanitizer passes.
  if echo 'int main(){return 0;}' | c++ -fsanitize=thread -x c++ - -o /tmp/ftbesst_tsan_probe 2>/dev/null; then
    rm -f /tmp/ftbesst_tsan_probe
    cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DFTBESST_SANITIZE=thread
    cmake --build build-tsan -j "$jobs" --target test_inject
    ./build-tsan/tests/test_inject
  else
    echo "!! ThreadSanitizer unavailable; inject tests run unsanitized" >&2
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build-release -j "$jobs" --target test_inject
    ./build-release/tests/test_inject
  fi

  # bench_ext_inject exits non-zero if the folded and unfolded 1000-rank
  # faulty LULESH runs differ in any result field or fault-log byte, the
  # campaign diverges bitwise between 1 thread and the pool, any trial
  # hits the simulation horizon, or the pooled campaign misses the < 10 s
  # wall gate.
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-release -j "$jobs" --target bench_ext_inject
  ./build-release/bench/bench_ext_inject > build-release/bench_ext_inject.json
  echo "inject pass: TSan inject suite + fold/campaign bit-identity/wall gates passed"
fi

if [ "$run_search" = 1 ]; then
  echo "== Guided-search pass (search suite under TSan, search-vs-exhaustive gates) =="
  # The search engine claims bit identity between serial and pooled cell
  # evaluation; run its whole suite (space, GP, bandit, Pareto, engine)
  # under TSan so the pooled paths are sanitized. Same probe-and-skip as
  # the other sanitizer passes.
  if echo 'int main(){return 0;}' | c++ -fsanitize=thread -x c++ - -o /tmp/ftbesst_tsan_probe 2>/dev/null; then
    rm -f /tmp/ftbesst_tsan_probe
    cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DFTBESST_SANITIZE=thread
    cmake --build build-tsan -j "$jobs" --target test_search
    ./build-tsan/tests/test_search
  else
    echo "!! ThreadSanitizer unavailable; search tests run unsanitized" >&2
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build-release -j "$jobs" --target test_search
    ./build-release/tests/test_search
  fi

  # bench_ext_search exits non-zero if, on any search_*.scenario corpus
  # machine, the guided search misses the exhaustive optimum bitwise,
  # fails to cover the exhaustive Pareto front, overspends the 10%
  # evaluation budget, diverges between thread counts, or (deterministic
  # machines) the successive-halving bandit drops the true best cell.
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-release -j "$jobs" --target bench_ext_search
  ./build-release/bench/bench_ext_search > build-release/bench_ext_search.json
  echo "search pass: TSan search suite + search-vs-exhaustive gates passed"
fi

if [ "$run_slow" = 1 ]; then
  echo "== Slow pass (ctest -L slow: stress + soak) =="
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-release -j "$jobs"
  ctest --test-dir build-release --output-on-failure -L slow -j "$jobs"
fi

if [ "$run_coverage" = 1 ]; then
  echo "== Coverage pass (src/ft + src/svc) =="
  cmake -B build-coverage -S . -DCMAKE_BUILD_TYPE=Debug -DFTBESST_COVERAGE=ON
  cmake --build build-coverage -j "$jobs" --target test_ft test_svc test_verify
  if [ -n "${CLANG_COVERAGE:-}" ] || c++ --version 2>/dev/null | grep -qi clang; then
    # Clang: source-based coverage via llvm-profdata/llvm-cov.
    if command -v llvm-profdata >/dev/null && command -v llvm-cov >/dev/null; then
      LLVM_PROFILE_FILE=build-coverage/ft.profraw ./build-coverage/tests/test_ft
      LLVM_PROFILE_FILE=build-coverage/svc.profraw ./build-coverage/tests/test_svc
      LLVM_PROFILE_FILE=build-coverage/verify.profraw ./build-coverage/tests/test_verify
      llvm-profdata merge -sparse build-coverage/*.profraw \
        -o build-coverage/merged.profdata
      llvm-cov report ./build-coverage/tests/test_ft \
        -instr-profile=build-coverage/merged.profdata \
        -object ./build-coverage/tests/test_svc \
        -object ./build-coverage/tests/test_verify \
        "$(pwd)/src/ft" "$(pwd)/src/svc"
    else
      echo "!! llvm-profdata/llvm-cov not installed; coverage skipped" >&2
    fi
  else
    # GCC: gcov counters, reported with gcovr when available.
    ./build-coverage/tests/test_ft
    ./build-coverage/tests/test_svc
    ./build-coverage/tests/test_verify
    if command -v gcovr >/dev/null; then
      gcovr --root . --filter 'src/ft/' --filter 'src/svc/' build-coverage
    else
      echo "!! gcovr not installed; raw .gcda counters left in build-coverage" >&2
    fi
  fi
fi

echo "check.sh: all requested configurations passed"
