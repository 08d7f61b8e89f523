#!/usr/bin/env python3
"""The rlbench benchmark: four workloads against the built program.

  python3 perfbench/run.py --workload assess|lineup|bulk|serve --seed N \\
      --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

Run from the repository root. The first run builds the library and the
harness (perfbench/CMakeLists.txt) into .bench_build/perfbench. Every run
then prints its run details and, with --trace 1, the per-layer attribution
table, and ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics of the workload,
--trace 1 the per-layer metrics of a separate traced run. Everything the
run writes stays under .bench_build/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import pathlib
import platform
import select
import signal
import socket
import struct
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import measure  # noqa: E402
from measure import MeasurementError  # noqa: E402

BENCH_DIR = pathlib.Path("perfbench")
BUILD_DIR = pathlib.Path(".bench_build") / "perfbench"
WORK_DIR = pathlib.Path(".bench_build") / "work"
HARNESS = BUILD_DIR / "rlbench_perfbench"
SERVER = BUILD_DIR / "rlbench" / "serve" / "rlbench_serve"

DEFAULT_SEED = 1
SETUP_REPEATS = 3
RUN_TIMEOUT_S = 150

NPROC = os.cpu_count() or 1


def pinned_threads(want):
    return max(1, min(want, NPROC))


# RLBENCH_THREADS per batch workload. Their inputs are constants of the
# harness (harness/batch.cc), reported back as "input" in the run details.
# On a host whose cores are shared with other tenants a pass that fans out
# over every core waits for whichever core is stolen at the time, so the
# batch workloads run single-threaded; lineup keeps 2 threads because its
# DL matchers run serially anyway (its wall time is the same at 1, 2 or 4).
BATCH_THREADS = {"assess": pinned_threads(1), "lineup": pinned_threads(2),
                 "bulk": pinned_threads(1)}

# Seconds one pass (serve: one burst) takes on the 4-vCPU host the benchmark
# was tuned on. --seconds becomes a fixed pass count through these, so a run
# does the same work however fast the host is at the moment: a first pass
# pays cold-allocator costs the later ones do not, and letting the count
# follow host speed would change that mix from run to run.
NOMINAL_PASS_S = {"assess": 16.4, "lineup": 7.2, "bulk": 3.6, "serve": 1.1}


def pass_count(workload, seconds):
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))

# Serve parameters, shared by the server command line and the generator.
# Changing any of them changes the benchmark. The admission queue (pairs)
# holds about a second of high-rate traffic, so a host stall delays the
# fixed-rate phases instead of rejecting requests; overload still shows as
# latency and backlog in the max_rate search.
SERVE = {
    "server_threads": pinned_threads(2),
    "generator_threads": pinned_threads(2),
    "dataset": "Ds1", "scale": 0.5, "matcher": "Magellan-RF", "queue": 8192,
    "connections": 4, "pairs_per_request": 4,
    "low_rate": 1000.0, "high_rate": 2000.0,
    "limit_ms": 100.0, "search_lo": 500.0, "search_hi": 16000.0,
    "search_steps": 7, "step_requests": 1500,
    "burst_requests": 4000, "burst_depth": 32,
}

# Per-layer metrics, in BENCHMARK.json order. A layer a workload does not
# exercise reads 0 on that workload.
PER_LAYER = [
    ("datagen.build_s", "s"), ("datagen.stream_s", "s"),
    ("context.build_s", "s"), ("context.magellan_s", "s"),
    ("linearity.s", "s"), ("complexity.points_s", "s"), ("complexity.s", "s"),
    ("lineup.dl_s", "s"), ("lineup.classic_s", "s"), ("lineup.linear_s", "s"),
    ("lineup.zeroshot_s", "s"), ("lineup.critical_s", "s"),
    ("parallel.cpu_util", "ratio"), ("bulk.resolve_s", "s"),
    ("bulk.candidates", "count"), ("bulk.match_ratio", "ratio"),
    ("bulk.spilled_mb", "MiB"), ("bulk.shards_failed", "count"),
    ("open.p50_ms.low", "ms"), ("open.p99_ms.low", "ms"),
    ("open.p50_ms.high", "ms"), ("open.p99_ms.high", "ms"),
    ("open.max_rate", "1/s"),
    ("serve.train_s", "s"), ("serve.service_ms.p50", "ms"),
    ("serve.service_ms.p99", "ms"), ("serve.score_ms", "ms"),
    ("serve.transport_ms", "ms"), ("serve.rejected", "count"),
    ("gen.late_ms", "ms"), ("drift.windows", "count"),
    ("drift.triggers", "count"), ("drift.recompute_ms", "ms"),
    ("host.calib_ms", "ms"), ("trace.overhead", "ratio"),
]

# Layer timers that run beside the ops rather than inside them (reported,
# not summed into the attributed share).
OVERLAPPING = ("lineup.critical_s", "datagen.stream_s")


class RunError(Exception):
    """The run could not produce a measurement."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# --- build ------------------------------------------------------------------


def build():
    if not (pathlib.Path("src") / "CMakeLists.txt").is_file():
        raise RunError("no library sources (src/CMakeLists.txt) in this directory; "
                       "run from the repository root")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    build_log = BUILD_DIR.parent / "build.log"
    with open(build_log, "a") as out:
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(configure, stdout=out, stderr=out).returncode != 0:
                raise RunError(f"configure failed, see {build_log}")
        compile_cmd = ["cmake", "--build", str(BUILD_DIR), "-j", str(NPROC)]
        if subprocess.run(compile_cmd, stdout=out, stderr=out).returncode != 0:
            raise RunError(f"build failed, see {build_log}")


def source_digest():
    """sha1 over the library and benchmark sources: the revision measured
    when the checkout carries no git metadata."""
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for path in sorted(pathlib.Path(top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def host_details():
    cpu = "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    revision = "unknown"
    try:
        # Only this directory's own repository; a checkout nested in another
        # repository must not report the outer revision.
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True,
                             text=True, timeout=10).stdout.strip()
        if top and pathlib.Path(top).resolve() == pathlib.Path.cwd().resolve():
            revision = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                      text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    build_type = "unknown"
    try:
        for line in open(BUILD_DIR / "CMakeCache.txt"):
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    except OSError:
        pass
    return {"nproc": NPROC, "cpu": cpu, "machine": platform.machine(),
            "build_type": build_type, "git_revision": revision,
            "source_sha1": source_digest()}


# --- processes --------------------------------------------------------------


def base_env(threads, trace_file=None):
    env = {k: v for k, v in os.environ.items()
           if k not in ("RLBENCH_TRACE", "RLBENCH_METRICS", "RLBENCH_THREADS",
                        "RLBENCH_DRIFT", "RLBENCH_FAULTS")}
    env["RLBENCH_THREADS"] = str(threads)
    if trace_file is not None:
        env["RLBENCH_TRACE"] = str(trace_file)
        env["RLBENCH_METRICS"] = "1"
    return env


def read_line_until(proc, marker, timeout_s):
    """Read proc's stdout lines until one contains `marker`; returns it."""
    deadline = time.monotonic() + timeout_s
    buf = b""
    fd = proc.stdout.fileno()
    while True:
        while b"\n" in buf:
            line, buf = buf.split(b"\n", 1)
            text = line.decode(errors="replace")
            if marker in text:
                return text
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RunError(f"no '{marker}' within {timeout_s}s")
        ready, _, _ = select.select([fd], [], [], remaining)
        if ready:
            chunk = os.read(fd, 65536)
            if not chunk:
                raise RunError(f"process exited before printing '{marker}' "
                               f"(code {proc.wait()})")
            buf += chunk


def stop(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGKILL)
    proc.wait()


def run_harness(args, env, timeout_s=RUN_TIMEOUT_S):
    """Start the harness, time spawn-to-ready, wait for it to finish."""
    start = time.perf_counter()
    proc = subprocess.Popen([str(HARNESS)] + args, stdout=subprocess.PIPE, env=env)
    try:
        read_line_until(proc, "perfbench ready", timeout_s)
        ready_s = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=timeout_s)
    except (RunError, subprocess.TimeoutExpired) as err:
        stop(proc)
        raise RunError(f"harness {' '.join(args[:2])}: {err}") from err
    finally:
        proc.stdout.close()
    if code != 0:
        raise RunError(f"harness {' '.join(args[:2])} exited with code {code}")
    return ready_s


# --- wire (serve) -----------------------------------------------------------


def call(sock, payload):
    data = json.dumps(payload).encode()
    sock.sendall(struct.pack(">I", len(data)) + data)

    def read_exact(n):
        out = b""
        while len(out) < n:
            chunk = sock.recv(n - len(out))
            if not chunk:
                raise RunError("server closed the connection")
            out += chunk
        return out

    (length,) = struct.unpack(">I", read_exact(4))
    return json.loads(read_exact(length))


class Server:
    """One rlbench_serve process, up to listening plus one warm-up op."""

    WARMUP = {"op": "match_batch", "pairs": [[0, 0], [1, 1], [2, 2], [3, 3]]}

    def __init__(self, env, log_path):
        args = [str(SERVER), f"--dataset={SERVE['dataset']}",
                f"--scale={SERVE['scale']}", f"--matcher={SERVE['matcher']}",
                f"--queue={SERVE['queue']}", "--drift", "--port=0"]
        self.log = open(log_path, "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=self.log, env=env)
        try:
            line = read_line_until(self.proc, "listening on port", RUN_TIMEOUT_S)
            self.port = int(line.rsplit(" ", 1)[1])
            self.sock = socket.create_connection(("127.0.0.1", self.port), timeout=30)
            reply = call(self.sock, self.WARMUP)
            if not reply.get("ok"):
                raise RunError(f"warm-up op failed: {reply}")
        except (RunError, OSError, ValueError) as err:
            self.close()
            raise RunError(f"server start: {err}") from err
        self.setup_s = time.perf_counter() - start

    def peak_rss_mb(self):
        for line in open(f"/proc/{self.proc.pid}/status"):
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RunError("server VmHWM unavailable")

    def close(self):
        try:
            if getattr(self, "sock", None) is not None:
                call(self.sock, {"op": "shutdown"})
                self.sock.close()
                self.proc.wait(timeout=20)
        except (OSError, RunError, ValueError, subprocess.TimeoutExpired):
            pass
        stop(self.proc)
        self.proc.stdout.close()
        self.log.close()


# --- batch workloads --------------------------------------------------------


def batch_args(workload, seed, seconds, trace, out):
    return ["batch", f"--workload={workload}", f"--seed={seed}",
            f"--passes={pass_count(workload, seconds)}", f"--trace={int(trace)}",
            f"--out={out}", f"--spill_dir={WORK_DIR / 'spill'}"]


def load_digests():
    path = BENCH_DIR / "digests.json"
    return json.loads(path.read_text())


def run_batch(workload, seed, seconds, trace, details):
    threads = BATCH_THREADS[workload]
    tag = f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    out = WORK_DIR / f"{tag}.json"
    trace_file = WORK_DIR / f"{tag}.trace.json" if trace else None
    env = base_env(threads, trace_file)
    details["threads"] = threads

    # Set-up samples: SETUP_REPEATS spawns, each to the end of its warm-up
    # op; the last one goes on to the timed phase.
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        ready = run_harness(batch_args(workload, seed, seconds, trace, out) + ["--setup_only"],
                            base_env(threads))
        setups.append({"seconds": ready, "warmup": True})
    ready = run_harness(batch_args(workload, seed, seconds, trace, out), env)
    setups.append({"seconds": ready, "warmup": True})
    raw = json.loads(out.read_text())
    out.unlink()

    # Output checks.
    problems = []
    if not raw["warmup_valid"]:
        problems.append(f"warm-up op: {raw['warmup_note']}")
    reference = load_digests()
    expected = reference.get(workload, {}) if seed == reference["seed"] else {}
    first_digest = {}
    ok_ops = 0
    for op in raw["ops"]:
        good = op["valid"]
        if not op["valid"]:
            problems.append(f"{op['unit']}: {op['note']}")
        seen = first_digest.setdefault(op["unit"], op["digest"])
        if op["digest"] != seen:
            good = False
            problems.append(f"{op['unit']}: digest {op['digest']} differs from the "
                            f"same op earlier in the run ({seen})"
                            + (" [traced vs untraced]" if op["traced"] else ""))
        if op["unit"] in expected and op["digest"] != expected[op["unit"]]:
            good = False
            problems.append(f"{op['unit']}: digest {op['digest']} != committed "
                            f"{expected[op['unit']]}")
        ok_ops += good
    if expected and set(expected) != {op["unit"] for op in raw["ops"]}:
        problems.append("ops differ from the committed digest set")

    untraced = [p for p in raw["passes"] if not p["traced"]]
    untraced_ops = [o for o in raw["ops"] if not o["traced"]]
    items_per_pass = sum(o["items"] for o in untraced_ops) / len(untraced)
    details.update({
        "input": raw["input"], "items_per_pass": items_per_pass,
        "passes": len(untraced), "pass_seconds": [p["seconds"] for p in untraced],
        "setup_samples_s": [s["seconds"] for s in setups],
        "calib_ms": raw["calib_ms"],
        "digests": {o["unit"]: o["digest"] for o in raw["ops"]},
    })
    result = {"correct": not problems, "attempted": len(raw["ops"]),
              "failed": len(raw["ops"]) - ok_ops, "problems": problems}

    if not trace:
        wall = measure.median([p["seconds"] for p in untraced])
        result["metrics"] = {
            "setup_s": (measure.setup_seconds(setups), "s"),
            "wall_s": (wall, "s"),
            "throughput": (sum(o["items"] for o in untraced_ops) / raw["untraced_wall_s"], "1/s"),
            "peak_rss_mb": (raw["peak_rss_mb"], "MiB"),
            "ok_frac": (ok_ops / len(raw["ops"]), "ratio"),
        }
        return result

    traced = [p for p in raw["passes"] if p["traced"]]
    traced_ops = [o for o in raw["ops"] if o["traced"]]
    op_seconds = sum(o["seconds"] for o in traced_ops)
    layers = dict(raw["layers"])
    shares, attributed = measure.attribution(layers, op_seconds, OVERLAPPING)
    try:
        measure.check_attribution(attributed)
    except MeasurementError as err:
        result["correct"] = False
        problems.append(str(err))
    per_pass = {k: v / len(traced) for k, v in layers.items()}
    counts = {k: v / len(untraced_ops) for k, v in raw["counts"].items()}
    values = {name: 0.0 for name, _ in PER_LAYER}
    values.update({k: v for k, v in per_pass.items() if k in values})
    values["parallel.cpu_util"] = raw["untraced_cpu_s"] / (raw["untraced_wall_s"] * raw["threads"])
    if workload == "bulk":
        values["bulk.candidates"] = counts["bulk.candidates"]
        values["bulk.match_ratio"] = counts["bulk.matched"] / counts["bulk.candidates"]
        values["bulk.spilled_mb"] = counts["bulk.spilled_mb"]
        values["bulk.shards_failed"] = counts["bulk.shards_failed"]
        details["bulk_streamed_mb"] = counts["bulk.streamed_mb"]
    values["host.calib_ms"] = sum(raw["calib_ms"]) / 2
    values["trace.overhead"] = raw["traced_wall_s"] / raw["untraced_wall_s"] - 1.0
    details["attribution"] = {
        "op_seconds_per_pass": op_seconds / len(traced),
        "layers": {k: {"seconds_per_pass": per_pass[k], "share": shares[k]} for k in layers},
        "attributed_share": attributed,
        "trace_overhead": values["trace.overhead"],
        "src_spans": summarize_trace(trace_file),
    }
    result["metrics"] = {name: (values[name], unit) for name, unit in PER_LAYER}
    return result


def summarize_trace(trace_file, top=12):
    """Total time of the library's own spans in the traced run (chrome trace
    events, summed over threads), largest first; benchmark-side spans are
    named perfbench/*. The trace file is deleted once read."""
    if trace_file is None or not pathlib.Path(trace_file).is_file():
        return []
    try:
        events = json.loads(pathlib.Path(trace_file).read_text()).get("traceEvents", [])
    except (OSError, ValueError):
        return []
    totals = {}
    for e in events:
        if e.get("ph") == "X" and not str(e.get("name", "")).startswith("perfbench/"):
            totals[e["name"]] = totals.get(e["name"], 0.0) + e.get("dur", 0.0) / 1e6
    pathlib.Path(trace_file).unlink()
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])[:top]
    return [{"span": name, "seconds": s} for name, s in ranked]


# --- serve ------------------------------------------------------------------


def phase_requests(seconds):
    """Requests per fixed-rate phase: the low phase takes 40% of the run,
    the high phase as many requests at its higher rate, and the search the
    rest; never fewer than three 1000-request percentile windows."""
    return max(3000, round(0.4 * seconds * SERVE["low_rate"] / 1000) * 1000)


def run_serve(seed, seconds, trace, details):
    tag = f"serve-s{seed}-t{int(trace)}-{os.getpid()}"
    out = WORK_DIR / f"{tag}.json"
    trace_file = WORK_DIR / f"{tag}.trace.json" if trace else None
    server_env = base_env(SERVE["server_threads"], trace_file)
    server_log = WORK_DIR / f"{tag}.server.log"
    details.update({"threads": {"server": SERVE["server_threads"],
                                "generator": SERVE["generator_threads"]},
                    "workload_params": SERVE})

    setups = []
    for _ in range(SETUP_REPEATS - 1):
        server = Server(base_env(SERVE["server_threads"]), server_log)
        setups.append({"seconds": server.setup_s, "warmup": True})
        server.close()
    server = Server(server_env, server_log)
    setups.append({"seconds": server.setup_s, "warmup": True})
    try:
        args = ["loadgen", f"--port={server.port}", f"--seed={seed}",
                f"--trace={int(trace)}", f"--out={out}"]
        args += [f"--{k}={v}" for k, v in SERVE.items()
                 if k not in ("server_threads", "generator_threads", "queue")]
        args += [f"--phase_requests={phase_requests(seconds)}",
                 f"--bursts={pass_count('serve', seconds)}"]
        gen_env = base_env(SERVE["generator_threads"],
                           trace_file.with_suffix(".gen.json") if trace else None)
        proc = subprocess.run([str(HARNESS)] + args, env=gen_env, timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            raise RunError(f"load generator exited with code {proc.returncode}")
        server_rss = server.peak_rss_mb()
    finally:
        server.close()
    raw = json.loads(out.read_text())
    out.unlink()
    server_log.unlink(missing_ok=True)

    phases = raw["phases"]
    stats = raw["stats"] or {}
    drift = stats.get("drift", {})
    problems = []
    wrong = sum(p["wrong"] for p in phases)
    if wrong:
        problems.append(f"{wrong} responses differ from TrainedModel::ScoreBatch")
    if drift.get("triggers", 1) != 0:
        problems.append(f"drift triggered {drift.get('triggers')} times on stationary traffic")
    details.update({
        "setup_samples_s": [s["seconds"] for s in setups],
        "calib_ms": raw["calib_ms"], "test_pairs": raw["test_pairs"], "stats": stats,
    })

    if not trace:
        bursts = [p for p in phases if p["name"] == "burst"]
        attempted = sum(p["attempted"] for p in bursts)
        verified = sum(p["verified"] for p in bursts)
        errors = [p["first_error"] for p in bursts if p["first_error"]]
        details.update({"input": f"bursts of {SERVE['burst_requests']} requests, "
                                 f"{SERVE['burst_depth']} outstanding",
                        "passes": len(bursts),
                        "pass_seconds": [p["seconds"] for p in bursts],
                        "error_responses": sum(p["rejected"] for p in bursts),
                        "first_errors": errors[:3]})
        return {"correct": not problems, "attempted": attempted,
                "failed": attempted - verified, "problems": problems,
                "metrics": {
                    "setup_s": (measure.setup_seconds(setups), "s"),
                    "wall_s": (measure.median([p["seconds"] for p in bursts]), "s"),
                    "throughput": (attempted / sum(p["seconds"] for p in bursts), "1/s"),
                    "peak_rss_mb": (server_rss, "MiB"),
                    "ok_frac": (verified / attempted, "ratio"),
                }}

    fixed = [p for p in phases if p["name"] in ("low", "high")]
    search = [p for p in phases if p["name"] == "search"]
    attempted = sum(p["attempted"] for p in fixed)
    verified = sum(p["verified"] for p in fixed)
    late = [x for p in fixed for x in p["late_ms"]]
    late_p99, late_n = measure.percentile(late, 0.99)
    behind = measure.generator_behind(late)
    if behind:
        log(f"warning: generator p99 lateness {late_p99:.2f} ms exceeds "
            f"{measure.MAX_GENERATOR_LATE_MS} ms; latencies may be the generator's")
    steps = [{"rate": p["rate"], "pass": p["pass"], "good_frac": p["good_frac"],
              "attempted": p["attempted"], "verified": p["verified"]} for p in search]
    rate, resolution = measure.max_rate(steps, SERVE["search_lo"], SERVE["search_hi"])
    low, high = fixed
    p50_low, n_low = measure.windowed_percentile(low["latency_ms"], 0.50)
    p99_low, _ = measure.windowed_percentile(low["latency_ms"], 0.99)
    p50_high, n_high = measure.windowed_percentile(high["latency_ms"], 0.50)
    p99_high, _ = measure.windowed_percentile(high["latency_ms"], 0.99)
    details.update({
        "rates": {"low": SERVE["low_rate"], "high": SERVE["high_rate"],
                  "phase_requests": phase_requests(seconds),
                  "limit_ms": SERVE["limit_ms"],
                  "search": [SERVE["search_lo"], SERVE["search_hi"]]},
        "samples": {"low": n_low, "high": n_high, "late": late_n},
        "max_rate_resolution": resolution,
        "search_steps": steps,
        "generator_late_p99_ms": late_p99, "generator_behind": behind,
    })
    result = {"correct": not problems, "attempted": attempted,
              "failed": attempted - verified, "problems": problems}
    replay = raw["replay"]
    if replay["replay_errors"] or replay["score_mismatches"]:
        result["correct"] = False
        problems.append("in-process replay disagrees with the reference scores")
    service_p50, _ = measure.percentile(replay["service_ms"], 0.50)
    service_p99, _ = measure.percentile(replay["service_ms"], 0.99)
    score_p50, _ = measure.percentile(replay["score_ms"], 0.50)
    values = {name: 0.0 for name, _ in PER_LAYER}
    values.update({
        "open.p50_ms.low": p50_low, "open.p99_ms.low": p99_low,
        "open.p50_ms.high": p50_high, "open.p99_ms.high": p99_high,
        "open.max_rate": rate,
        "serve.train_s": raw["train_s"],
        "serve.service_ms.p50": service_p50,
        "serve.service_ms.p99": service_p99,
        "serve.score_ms": score_p50,
        "serve.transport_ms": p50_low - service_p50,
        "serve.rejected": float(sum(p["rejected"] for p in phases)),
        "gen.late_ms": late_p99,
        "drift.windows": float(drift.get("windows", 0)),
        "drift.triggers": float(drift.get("triggers", 0)),
        "drift.recompute_ms": measure.median(replay["recompute_ms"]),
        "host.calib_ms": sum(raw["calib_ms"]) / 2,
        "trace.overhead": replay["traced_wall_s"] / replay["untraced_wall_s"] - 1.0,
    })
    details["attribution"] = {
        "client_p50_low_ms": p50_low,
        "service_p50_ms": service_p50, "score_p50_ms": score_p50,
        "transport_ms": values["serve.transport_ms"],
        "recompute_ms": values["drift.recompute_ms"],
        "replay_requests": len(replay["service_ms"]),
        "trace_overhead": values["trace.overhead"],
        "src_spans": summarize_trace(trace_file.with_suffix(".gen.json")),
    }
    result["metrics"] = {name: (values[name], unit) for name, unit in PER_LAYER}
    return result


# --- main -------------------------------------------------------------------


def print_attribution(workload, attribution):
    print(f"attribution ({workload}, traced run):")
    if "layers" in attribution:
        print(f"  op time per pass {attribution['op_seconds_per_pass']:.3f} s, "
              f"attributed {attribution['attributed_share']:.1%}, "
              f"trace overhead {attribution['trace_overhead']:+.1%}")
        for name, row in sorted(attribution["layers"].items(), key=lambda kv: -kv[1]["share"]):
            mark = " (beside ops)" if name in OVERLAPPING else ""
            print(f"  {name:<22} {row['seconds_per_pass']:9.3f} s  {row['share']:6.1%}{mark}")
    else:
        for key, value in attribution.items():
            if key != "src_spans":
                print(f"  {key:<22} {value}")
    for span in attribution.get("src_spans", []):
        print(f"  src span {span['span']:<30} {span['seconds']:9.3f} s (all threads)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["assess", "lineup", "bulk", "serve"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the measurement-rule self-tests and exit")
    args = parser.parse_args()

    if args.self_test:
        import unittest
        suite = unittest.defaultTestLoader.loadTestsFromName("test_measure")
        ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        build()
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        details = {"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "host": host_details()}
        if args.workload == "serve":
            result = run_serve(args.seed, args.seconds, bool(args.trace), details)
        else:
            result = run_batch(args.workload, args.seed, args.seconds, bool(args.trace), details)
    except (RunError, MeasurementError, subprocess.TimeoutExpired, OSError) as err:
        log(f"perfbench: {type(err).__name__}: {err}")
        return 1

    details["problems"] = result["problems"]
    for problem in result["problems"]:
        log(f"perfbench: check failed: {problem}")
    runs = WORK_DIR.parent / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(details, indent=1, sort_keys=True))
    print("run details: " + json.dumps({k: v for k, v in details.items()
                                        if k not in ("attribution", "stats", "digests")},
                                       sort_keys=True))
    if "attribution" in details:
        print_attribution(args.workload, details["attribution"])
    line = {"correct": result["correct"], "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in result["metrics"].items()}}
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
