#!/usr/bin/env bash
# One-shot pre-PR gate (and future CI entry point):
#   1. configure + build + ctest under ASan/UBSan (warnings as errors)
#   2. serve smoke: rlbench_serve on a loopback port (shed tier + linear
#      fallback armed), rlbench_client round-trip (ping/match/assess/
#      reload/shadow lifecycle), clean shutdown — all under the stage-1
#      sanitizers
#   3. serve overload storm smoke: micro_serve --storm --smoke under
#      ASan/UBSan — an open-loop multi-tenant burst that must walk the
#      shed ladder (>= 1 transition, degraded traffic bit-identical to the
#      linear fallback) with per-tier counts recorded in the manifest's
#      results block
#   4. drift loop smoke: micro_drift --smoke under ASan/UBSan — a
#      difficulty shift must be detected, the EnsembleLink candidate
#      retrained, snapshot round-tripped, shadow-promoted, and a faulted
#      shadow window rolled back; the drift_* manifest results validated
#   5. TSan build + the concurrency-bearing tests (parallel pool, columnar
#      store reads, racing first use of a matching context's lazy members,
#      thread-count invariance incl. the matcher line-up, metrics shards)
#   6. observability end-to-end: one bench with RLBENCH_METRICS +
#      RLBENCH_TRACE, manifest + trace validated by
#      tools/validate_manifest.py
#   7. vectorized kernels: the differential + golden suites and the
#      columnar store tests re-run explicitly under ASan/UBSan, plus a
#      micro_kernels smoke (scalar-vs-vectorized checksums asserted inside
#      the bench; no perf thresholds under sanitizers)
#   8. out-of-core bulk smoke: macro_bulk --smoke (20k records through
#      both blocking modes, spill-to-disk, per-shard manifests) under the
#      sanitizers, validated by tools/validate_manifest.py
#   9. fault-injection storm: a real bench under RLBENCH_FAULTS across 8
#      seeds with ASan/UBSan armed — graceful degradation may fail
#      datasets, but a crash/abort/sanitizer report fails the gate
#  10. repo lint (tools/rlbench_lint.py), its rule self-tests, and the
#      negative-compilation fixtures (tests/static/)
#  11. Clang thread-safety analysis: full build under -Wthread-safety
#      -Wthread-safety-beta -Werror=thread-safety-analysis (skipped with
#      a warning if clang++ is not installed — GCC has no such analysis)
#  12. clang-tidy over src/ (skipped with a warning if not installed)
#
# Usage: scripts/check.sh [build-dir]   (default: build-asan)
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-${REPO_ROOT}/build-asan}"
JOBS="$(nproc 2>/dev/null || echo 4)"
SCRATCH_ROOT="$(mktemp -d "${TMPDIR:-/tmp}/rlbench_check.XXXXXX")"
trap 'rm -rf "${SCRATCH_ROOT}"' EXIT

echo "== [1/12] build + test under ASan/UBSan =="
cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DRLBENCH_SANITIZE="address;undefined" \
  -DRLBENCH_WERROR=ON
cmake --build "${BUILD_DIR}" -j "${JOBS}"
# halt_on_error so UBSan findings fail the test run instead of scrolling by.
(
  cd "${BUILD_DIR}"
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ASAN_OPTIONS="detect_leaks=1" \
    ctest --output-on-failure -j "${JOBS}"
)

echo "== [2/12] serve smoke (client/server round-trip under ASan/UBSan) =="
SERVE_DIR="${SCRATCH_ROOT}/serve"
mkdir -p "${SERVE_DIR}"
PORT_FILE="${SERVE_DIR}/port"
# The server trains Magellan-DT (cheap), publishes it into a fresh
# repository, binds an ephemeral loopback port, and writes it to
# --port_file once it is accepting connections. Shedding and the linear
# fallback tier are armed so the event loop runs its full configuration
# (even though this gentle smoke never trips a tier).
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
ASAN_OPTIONS="detect_leaks=1" \
  "${BUILD_DIR}/src/serve/rlbench_serve" --dataset=Ds3 --scale=0.2 \
  --matcher=Magellan-DT --repo="${SERVE_DIR}/repo" \
  --shed --fallback=SA-ESDE --quotas="smoke=200:50" \
  --port_file="${PORT_FILE}" > "${SERVE_DIR}/server.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 240); do
  [[ -s "${PORT_FILE}" ]] && break
  if ! kill -0 "${SERVE_PID}" 2>/dev/null; then
    echo "serve smoke: server died before binding" >&2
    cat "${SERVE_DIR}/server.log" >&2
    exit 1
  fi
  sleep 0.5
done
if [[ ! -s "${PORT_FILE}" ]]; then
  echo "serve smoke: server never wrote its port file" >&2
  kill "${SERVE_PID}" 2>/dev/null || true
  exit 1
fi
SERVE_PORT="$(cat "${PORT_FILE}")"
SERVE_CLIENT="${BUILD_DIR}/src/serve/rlbench_client"
# Each client call exits non-zero on an error response; set -e fails the
# gate. reload exercises the repository path (the snapshot published on
# startup hot-swaps back in).
"${SERVE_CLIENT}" --port="${SERVE_PORT}" --op=ping
"${SERVE_CLIENT}" --port="${SERVE_PORT}" --op=match --left=0 --right=0
"${SERVE_CLIENT}" --port="${SERVE_PORT}" --op=assess
"${SERVE_CLIENT}" --port="${SERVE_PORT}" --op=stats
"${SERVE_CLIENT}" --port="${SERVE_PORT}" --op=reload --matcher=Magellan-DT
# Shadow lifecycle over the wire: start a candidate, poll it, cancel it.
"${SERVE_CLIENT}" --port="${SERVE_PORT}" --op=shadow_start --matcher=SA-ESDE
"${SERVE_CLIENT}" --port="${SERVE_PORT}" --op=shadow_status
"${SERVE_CLIENT}" --port="${SERVE_PORT}" --op=shadow_cancel
"${SERVE_CLIENT}" --port="${SERVE_PORT}" --op=shutdown
wait "${SERVE_PID}"   # non-zero server exit fails the gate (set -e)
grep -q "shut down cleanly" "${SERVE_DIR}/server.log"
if grep -qE "AddressSanitizer|LeakSanitizer|runtime error:" \
    "${SERVE_DIR}/server.log"; then
  echo "serve smoke: sanitizer report in server log" >&2
  tail -20 "${SERVE_DIR}/server.log" >&2
  exit 1
fi
echo "serve smoke: round-trip ok, clean shutdown"

echo "== [3/12] serve overload storm smoke (micro_serve --storm) =="
# Open-loop multi-tenant overload against the shed-enabled service. The
# bench itself RLBENCH_CHECKs the robustness contract in --smoke mode:
# at least one shed transition fired, degraded traffic exists, and every
# sampled degraded response is bit-identical to the linear fallback run
# directly. The manifest assertions below keep the per-tier counts
# flowing into the artifact's results block (so a reporting regression
# can't pass).
STORM_DIR="${SCRATCH_ROOT}/serve_storm"
mkdir -p "${STORM_DIR}"
(
  cd "${STORM_DIR}"
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ASAN_OPTIONS="detect_leaks=1" \
    "${BUILD_DIR}/bench/micro_serve" --storm --smoke --scale=0.2 \
    --requests=200
)
python3 - "${STORM_DIR}/bench_results/BENCH_serve.json" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    results = json.load(f)["results"]
for key in ("storm_tier_full", "storm_tier_degraded", "storm_tier_rejected",
            "storm_shed_transitions", "storm_shadow_agreement",
            "storm_identity_checked"):
    if key not in results:
        sys.exit(f"storm smoke: manifest results missing {key}")
if int(results["storm_shed_transitions"]) < 1:
    sys.exit("storm smoke: manifest records no shed transitions")
if int(results["storm_tier_degraded"]) < 1:
    sys.exit("storm smoke: manifest records no degraded requests")
print("storm manifest: per-tier counts present, ladder exercised")
PYEOF
echo "storm smoke: shed ladder walked, degraded tier bit-identical"

echo "== [4/12] drift loop smoke (micro_drift --smoke) =="
# The full reaction under sanitizers: a difficulty shift is detected by
# the drift controller, the EnsembleLink candidate is retrained mid-serve,
# its snapshot round-trips bit-exactly, the shadow gate promotes it, and
# the follow-up episode with candidate-scoring faults armed must roll
# back. All assertions live inside the bench (RLBENCH_CHECK); the
# validator + key checks below keep the drift_* numbers in the artifact
# (the window size in config, the outcomes in results).
DRIFT_DIR="${SCRATCH_ROOT}/drift"
mkdir -p "${DRIFT_DIR}"
(
  cd "${DRIFT_DIR}"
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ASAN_OPTIONS="detect_leaks=1" \
    "${BUILD_DIR}/bench/micro_drift" --smoke
)
python3 "${REPO_ROOT}/tools/validate_manifest.py" \
  "${DRIFT_DIR}/bench_results/BENCH_drift.json"
python3 - "${DRIFT_DIR}/bench_results/BENCH_drift.json" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    manifest = json.load(f)
config, results = manifest["config"], manifest["results"]
if "drift_window_pairs" not in config:
    sys.exit("drift smoke: manifest config missing drift_window_pairs")
for key in ("drift_state", "drift_transitions",
            "drift_windows_to_trigger", "drift_sampling_overhead_ratio",
            "drift_swap_recovery_requests"):
    if key not in results:
        sys.exit(f"drift smoke: manifest results missing {key}")
if int(results["drift_triggers"]) < 2:
    sys.exit("drift smoke: both drift episodes should have triggered")
print("drift manifest: detection, recovery and rollback recorded")
PYEOF
echo "drift smoke: detect -> retrain -> shadow promote, faulted episode rolled back"

echo "== [5/12] concurrency tests under TSan =="
TSAN_DIR="${REPO_ROOT}/build-tsan"
cmake -B "${TSAN_DIR}" -S "${REPO_ROOT}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DRLBENCH_SANITIZE="thread" \
  -DRLBENCH_WERROR=ON
cmake --build "${TSAN_DIR}" -j "${JOBS}" --target \
  common_test data_test core_test obs_test matchers_test
# Only the tests that exercise the pool, the columnar store's reads and
# the context's once-built members; the full suite already ran under
# ASan/UBSan above. TSan halts on the first race, so a pass here is a
# proof of race-freedom for these paths.
(
  cd "${TSAN_DIR}"
  TSAN_OPTIONS="halt_on_error=1" ./tests/common_test \
    --gtest_filter='Parallel*:SplitSeed*'
  TSAN_OPTIONS="halt_on_error=1" ./tests/data_test \
    --gtest_filter='ColumnarStoreTest.*'
  TSAN_OPTIONS="halt_on_error=1" ./tests/matchers_test \
    --gtest_filter='ContextTest.*'
  TSAN_OPTIONS="halt_on_error=1" ./tests/core_test \
    --gtest_filter='ThreadInvarianceTest.*'
  # The lock-free metric shards and per-thread trace buffers under real
  # pool concurrency.
  TSAN_OPTIONS="halt_on_error=1" ./tests/obs_test \
    --gtest_filter='MetricsTest.*:TraceTest.*:ObsInvarianceTest.*'
)
echo "TSan: clean"

echo "== [6/12] observability end-to-end =="
python3 "${REPO_ROOT}/tools/validate_manifest.py" --run \
  "${BUILD_DIR}/bench/table3_datasets" --datasets=Ds1 --scale=0.05
echo "observability: manifest + trace validate"

echo "== [7/12] vectorized kernels: differential suite + bench smoke =="
# The kernel suites are part of stage 1's full ctest; run them again by
# explicit filter so a test-registration change can never silently drop
# the scalar-vs-vectorized gate from this script.
(
  cd "${BUILD_DIR}"
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ASAN_OPTIONS="detect_leaks=1" \
    ./tests/text_test --gtest_filter='KernelsDifferential*:KernelsGolden*'
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ASAN_OPTIONS="detect_leaks=1" \
    ./tests/data_test --gtest_filter='Columnar*:FeatureCacheCounter*'
)
# micro_kernels asserts scalar == vectorized checksums internally; scale
# and rounds stay tiny because sanitizer timings are meaningless anyway.
(
  cd "${SCRATCH_ROOT}"
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ASAN_OPTIONS="detect_leaks=1" \
    "${BUILD_DIR}/bench/micro_kernels" --scale=0.2 --repeats=1 --rounds=2
)
echo "kernels: differential suites + smoke clean"

echo "== [8/12] out-of-core bulk resolution smoke =="
# macro_bulk --smoke streams 20k records through both blocking modes
# (sorted-neighborhood external sort, MinHash hash partitioning) with the
# sanitizers armed; validate_manifest.py --run checks the run manifest,
# every per-shard manifest (peak_rss_bytes included), and the trace.
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
ASAN_OPTIONS="detect_leaks=1" \
  python3 "${REPO_ROOT}/tools/validate_manifest.py" --run \
  "${BUILD_DIR}/bench/macro_bulk" --smoke
echo "bulk smoke: both modes resolved out of core, manifests validate"

echo "== [9/12] fault-injection storm =="
# Drive a real bench through seeded fault storms with the sanitizers armed.
# The degradation contract: failed datasets are fine (the bench exits 0
# while at least one dataset survives, 1 when all fail), but any abort,
# signal, or sanitizer report fails the gate. abort_on_error turns
# sanitizer findings into SIGABRT so they can't masquerade as a clean
# "all datasets failed" exit.
FAULT_SCRATCH="${SCRATCH_ROOT}/fault_storm"
mkdir -p "${FAULT_SCRATCH}"
for seed in 1 2 3 4 5 6 7 8; do
  spec="seed=${seed};data/file/*=any:0.25;data/csv/*=any:0.15"
  spec="${spec};core/build_benchmark=any:0.3"
  status=0
  (
    cd "${FAULT_SCRATCH}"
    UBSAN_OPTIONS="halt_on_error=1:abort_on_error=1:print_stacktrace=1" \
    ASAN_OPTIONS="detect_leaks=1:abort_on_error=1" \
    RLBENCH_FAULTS="${spec}" \
      "${BUILD_DIR}/bench/table5_newbench" --datasets=Dn1,Dn3 --scale=0.05 \
      > "storm_${seed}.log" 2>&1
  ) || status=$?
  if [[ "${status}" -gt 1 ]]; then
    echo "fault storm seed ${seed}: bench died (exit ${status})" >&2
    tail -20 "${FAULT_SCRATCH}/storm_${seed}.log" >&2
    exit 1
  fi
  if grep -qE "AddressSanitizer|LeakSanitizer|runtime error:" \
      "${FAULT_SCRATCH}/storm_${seed}.log"; then
    echo "fault storm seed ${seed}: sanitizer report" >&2
    tail -20 "${FAULT_SCRATCH}/storm_${seed}.log" >&2
    exit 1
  fi
done
echo "fault storm: clean (8 seeds, no crashes, no sanitizer reports)"

echo "== [10/12] repo lint + self-test + negative compilation =="
python3 "${REPO_ROOT}/tools/rlbench_lint.py" --root "${REPO_ROOT}"
python3 "${REPO_ROOT}/tools/rlbench_lint.py" --self-test
# The negative-compilation fixtures also run as a ctest in stage 1; run
# them here with the best compiler available so the Clang-only
# thread-safety fixtures are exercised whenever clang++ is installed.
CFT_CXX="$(command -v clang++ || true)"
CFT_ID="Clang"
if [[ -z "${CFT_CXX}" ]]; then
  CFT_CXX="$(command -v g++ || true)"
  CFT_ID="GNU"
fi
python3 "${REPO_ROOT}/tests/static/compile_fail_test.py" \
  --compiler "${CFT_CXX}" --compiler-id "${CFT_ID}" \
  --include "${REPO_ROOT}/src"
echo "repo lint: clean"

echo "== [11/12] Clang thread-safety analysis =="
TS_CLANG="$(command -v clang++ || true)"
if [[ -z "${TS_CLANG}" ]]; then
  for v in 18 17 16 15 14; do
    if command -v "clang++-${v}" >/dev/null; then
      TS_CLANG="clang++-${v}"
      break
    fi
  done
fi
if [[ -z "${TS_CLANG}" ]]; then
  echo "WARNING: clang++ not installed; skipping thread-safety analysis" \
    "(annotations compile as no-ops under GCC)" >&2
else
  TS_DIR="${REPO_ROOT}/build-threadsafety"
  cmake -B "${TS_DIR}" -S "${REPO_ROOT}" \
    -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_COMPILER="${TS_CLANG}" \
    -DRLBENCH_THREAD_SAFETY=ON
  cmake --build "${TS_DIR}" -j "${JOBS}"
  echo "thread-safety analysis: clean"
fi

echo "== [12/12] clang-tidy =="
TIDY_BIN="$(command -v clang-tidy || true)"
if [[ -z "${TIDY_BIN}" ]]; then
  for v in 18 17 16 15 14; do
    if command -v "clang-tidy-${v}" >/dev/null; then
      TIDY_BIN="clang-tidy-${v}"
      break
    fi
  done
fi
if [[ -z "${TIDY_BIN}" ]]; then
  echo "WARNING: clang-tidy not installed; skipping tidy stage" >&2
else
  TIDY_DIR="${REPO_ROOT}/build-tidy"
  cmake -B "${TIDY_DIR}" -S "${REPO_ROOT}" \
    -DCMAKE_BUILD_TYPE=Release -DRLBENCH_TIDY=ON
  # Building with CMAKE_CXX_CLANG_TIDY runs tidy on every translation unit;
  # RLBENCH_WERROR stays off so only tidy diagnostics surface here.
  cmake --build "${TIDY_DIR}" -j "${JOBS}" --target \
    rlbench_obs rlbench_common rlbench_text rlbench_data rlbench_embed \
    rlbench_ml rlbench_datagen rlbench_block rlbench_matchers rlbench_core \
    rlbench_serve
  echo "clang-tidy: clean"
fi

echo "== all gates passed =="
