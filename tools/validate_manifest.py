#!/usr/bin/env python3
"""Validate rlbench run manifests (and their Chrome trace files).

Two modes:

  validate_manifest.py <manifest.json> [<manifest.json> ...]
      Validate already-written manifests against the schema documented in
      src/obs/manifest.h. When a manifest names a trace_file, the trace is
      validated too (path resolved relative to the manifest's directory,
      then as given). Manifests carrying drift_* result keys (drift-enabled
      runs, bench/micro_drift) additionally get their window size,
      controller state, and measure ranges checked. The committed
      bench_results/BENCH_*.json summaries are manifests too; the
      `bench_results_validate` ctest runs this mode over all of them.

  validate_manifest.py --run <bench_binary> [bench args...]
      Run a bench binary in a scratch directory with RLBENCH_METRICS=1 and
      RLBENCH_TRACE set, then validate every manifest it wrote (including
      a BENCH_*.json summary) plus the trace. This is what the `obs_manifest_validate` ctest and the obs
      stage of scripts/check.sh execute.

Exit status: 0 when everything validates, 1 with one "path: message" per
problem on stderr.
"""

import argparse
import json
import numbers
import os
import pathlib
import subprocess
import sys
import tempfile

SCHEMA_VERSION = 3


def fail(errors, path, message):
    errors.append(f"{path}: {message}")


def expect_type(errors, path, manifest, key, kind, required=True):
    if key not in manifest:
        if required:
            fail(errors, path, f"missing required key '{key}'")
        return None
    value = manifest[key]
    # bool is an int subclass in Python; never accept it for numeric keys.
    if isinstance(value, bool) or not isinstance(value, kind):
        fail(errors, path, f"key '{key}' has type {type(value).__name__}, "
                           f"expected {kind}")
        return None
    return value


def validate_histogram_summary(errors, path, name, summary):
    if not isinstance(summary, dict):
        fail(errors, path, f"histogram '{name}' is not an object")
        return
    for key in ("count", "sum", "min", "max", "p50", "p90", "p99"):
        value = summary.get(key)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            fail(errors, path, f"histogram '{name}' key '{key}' is not a "
                               f"number (got {value!r})")


# Drift-monitor manifests (bench/micro_drift) record the window size as a
# config input and the controller's outcome as results keys. Values
# arrive as JSON numbers, so integral keys are checked as whole-valued
# reals rather than ints.
DRIFT_COUNT_KEYS = ("drift_windows", "drift_windows_to_trigger",
                    "drift_triggers", "drift_transitions",
                    "drift_swap_recovery_requests")
DRIFT_UNIT_KEYS = ("drift_best_linear_f1", "drift_complexity_avg",
                   "drift_lbm")
DRIFT_STATES = ("stable", "watch", "triggered")


def validate_drift(errors, path, config, results):
    drift_keys = [key for key in list(config) + list(results)
                  if key.startswith("drift_")]
    if not drift_keys:
        return
    # A manifest that reports anything about drift must pin down the
    # window size (an input), the controller's final state, and how often
    # it moved (outcomes).
    for key, section, block in (("drift_window_pairs", "config", config),
                                ("drift_state", "results", results),
                                ("drift_transitions", "results", results)):
        if key not in block:
            fail(errors, path, f"drift keys present ({sorted(drift_keys)}) "
                               f"but required {section} key '{key}' is "
                               f"missing")
    window = config.get("drift_window_pairs")
    state = results.get("drift_state")
    if state is not None and state not in DRIFT_STATES:
        fail(errors, path, f"drift_state {state!r} not in {DRIFT_STATES}")
    if window is not None:
        if isinstance(window, bool) or not isinstance(window, numbers.Real) \
                or window != int(window) or window <= 0:
            fail(errors, path, f"drift_window_pairs must be a positive "
                               f"integer (got {window!r})")
    for key in DRIFT_COUNT_KEYS:
        value = results.get(key)
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                or value != int(value) or value < 0:
            fail(errors, path, f"'{key}' must be a non-negative integer "
                               f"(got {value!r})")
    for key in DRIFT_UNIT_KEYS:
        value = results.get(key)
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                or not 0.0 <= value <= 1.0:
            fail(errors, path, f"'{key}' must be in [0, 1] (got {value!r})")
    # NLB is a difference of F1 scores and may legitimately be negative;
    # the overhead ratio only has to be a non-negative number.
    for key, low in (("drift_nlb", -1.0), ("drift_sampling_overhead_ratio",
                                           0.0)):
        value = results.get(key)
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                or value < low:
            fail(errors, path, f"'{key}' must be a number >= {low} "
                               f"(got {value!r})")


def validate_manifest(errors, path, manifest):
    if not isinstance(manifest, dict):
        fail(errors, path, "top level is not a JSON object")
        return

    version = expect_type(errors, path, manifest, "schema_version", int)
    if version is not None and version != SCHEMA_VERSION:
        fail(errors, path, f"schema_version {version} != {SCHEMA_VERSION}")

    bench = expect_type(errors, path, manifest, "bench", str)
    if bench == "":
        fail(errors, path, "bench name is empty")
    expect_type(errors, path, manifest, "git", str)
    expect_type(errors, path, manifest, "build_type", str)
    for key in ("threads", "hardware_concurrency", "peak_rss_bytes"):
        value = expect_type(errors, path, manifest, key, int)
        if value is not None and value < 0:
            fail(errors, path, f"key '{key}' is negative")
    expect_type(errors, path, manifest, "seed", int, required=False)

    datasets = expect_type(errors, path, manifest, "datasets", list)
    if datasets is not None:
        for entry in datasets:
            if not isinstance(entry, str):
                fail(errors, path, f"dataset id {entry!r} is not a string")

    config = expect_type(errors, path, manifest, "config", dict)
    results = expect_type(errors, path, manifest, "results", dict,
                          required=False)
    if config is not None:
        validate_drift(errors, path, config, results or {})

    phases = expect_type(errors, path, manifest, "phases", list)
    if phases is not None:
        for phase in phases:
            if not isinstance(phase, dict) or \
                    not isinstance(phase.get("name"), str) or \
                    isinstance(phase.get("seconds"), bool) or \
                    not isinstance(phase.get("seconds"), numbers.Real):
                fail(errors, path, f"malformed phase entry {phase!r}")
                continue
            if phase["seconds"] < 0:
                fail(errors, path, f"phase '{phase['name']}' has negative "
                                   f"seconds")
            status = phase.get("status")
            if status not in ("ok", "failed"):
                fail(errors, path, f"phase '{phase['name']}' has status "
                                   f"{status!r}, expected 'ok' or 'failed'")
            error = phase.get("error")
            if status == "failed":
                if not isinstance(error, str) or not error:
                    fail(errors, path, f"failed phase '{phase['name']}' "
                                       f"must carry a non-empty 'error'")
            elif error is not None:
                fail(errors, path, f"ok phase '{phase['name']}' must not "
                                   f"carry 'error'")

    total = expect_type(errors, path, manifest, "total_seconds", numbers.Real)
    if total is not None and total < 0:
        fail(errors, path, "total_seconds is negative")

    expect_type(errors, path, manifest, "trace_file", str, required=False)

    # The metrics sections travel together: all present or all absent.
    metric_keys = ("counters", "gauges", "histograms")
    present = [key for key in metric_keys if key in manifest]
    if present and len(present) != len(metric_keys):
        fail(errors, path, f"partial metrics sections: {present}")
    counters = manifest.get("counters")
    if counters is not None and isinstance(counters, dict):
        for name, value in counters.items():
            if isinstance(value, bool) or not isinstance(value, int) \
                    or value < 0:
                fail(errors, path, f"counter '{name}' is not a non-negative "
                                   f"integer (got {value!r})")
    gauges = manifest.get("gauges")
    if gauges is not None and isinstance(gauges, dict):
        for name, value in gauges.items():
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                fail(errors, path, f"gauge '{name}' is not a number")
    histograms = manifest.get("histograms")
    if histograms is not None and isinstance(histograms, dict):
        for name, summary in histograms.items():
            validate_histogram_summary(errors, path, name, summary)


def validate_trace(errors, path, trace):
    if not isinstance(trace, dict):
        fail(errors, path, "top level is not a JSON object")
        return
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(errors, path, "traceEvents missing or empty")
        return
    saw_thread_name = False
    for event in events:
        if not isinstance(event, dict):
            fail(errors, path, f"event is not an object: {event!r}")
            continue
        phase = event.get("ph")
        if phase not in ("X", "M"):
            fail(errors, path, f"unexpected event phase {phase!r}")
            continue
        if phase == "M" and event.get("name") == "thread_name":
            saw_thread_name = True
        if phase == "X":
            for key in ("ts", "dur"):
                value = event.get(key)
                if isinstance(value, bool) or \
                        not isinstance(value, numbers.Real):
                    fail(errors, path,
                         f"complete event missing numeric '{key}': {event!r}")
            if not isinstance(event.get("name"), str):
                fail(errors, path, f"complete event has no name: {event!r}")
    if not saw_thread_name:
        fail(errors, path, "no thread_name metadata event")


def load_json(errors, path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        fail(errors, path, f"cannot parse: {exc}")
        return None


def validate_manifest_file(errors, manifest_path):
    manifest = load_json(errors, manifest_path)
    if manifest is None:
        return
    validate_manifest(errors, manifest_path, manifest)
    trace_file = manifest.get("trace_file")
    if isinstance(trace_file, str) and trace_file:
        # Benches resolve RLBENCH_TRACE against their cwd, which is the
        # parent of bench_results/ — try that first, then the manifest's
        # own directory, then the path as given.
        parent = pathlib.Path(manifest_path).parent
        candidates = [parent.parent / trace_file, parent / trace_file,
                      pathlib.Path(trace_file)]
        for candidate in candidates:
            if candidate.is_file():
                trace = load_json(errors, candidate)
                if trace is not None:
                    validate_trace(errors, str(candidate), trace)
                break
        else:
            fail(errors, manifest_path,
                 f"trace_file '{trace_file}' does not exist")


def run_and_validate(errors, command):
    with tempfile.TemporaryDirectory(prefix="rlbench_obs_") as scratch:
        env = dict(os.environ)
        env["RLBENCH_METRICS"] = "1"
        env["RLBENCH_TRACE"] = "validate_trace.json"
        binary = pathlib.Path(command[0]).resolve()
        result = subprocess.run([str(binary)] + command[1:], cwd=scratch,
                                env=env, capture_output=True, text=True)
        if result.returncode != 0:
            fail(errors, binary.name,
                 f"bench exited {result.returncode}: {result.stderr[-500:]}")
            return
        results_dir = pathlib.Path(scratch) / "bench_results"
        manifests = sorted(list(results_dir.glob("*.manifest.json")) +
                           list(results_dir.glob("BENCH_*.json")))
        if not manifests:
            fail(errors, binary.name, "bench wrote no manifest under "
                                      "bench_results/")
            return
        for manifest_path in manifests:
            validate_manifest_file(errors, str(manifest_path))
        trace = pathlib.Path(scratch) / "validate_trace.json"
        if not trace.is_file():
            fail(errors, binary.name, "bench wrote no trace despite "
                                      "RLBENCH_TRACE being set")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--run", action="store_true",
                        help="treat the first path as a bench binary to "
                             "execute in a scratch dir with obs enabled")
    # REMAINDER so bench flags like --datasets=Ds1 pass through untouched
    # ( --run must precede the binary).
    parser.add_argument("paths", nargs=argparse.REMAINDER,
                        help="manifest files, or with --run a bench binary "
                             "followed by its arguments")
    args = parser.parse_args()
    if not args.paths:
        parser.error("nothing to validate")

    errors = []
    if args.run:
        run_and_validate(errors, args.paths)
    else:
        for path in args.paths:
            validate_manifest_file(errors, path)

    for error in errors:
        print(error, file=sys.stderr)
    if errors:
        print(f"validate_manifest: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    print("validate_manifest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
