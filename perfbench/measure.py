"""Measurement rules of the benchmark, kept apart from the process plumbing
so that test_measure.py can check each rule on its own.

Every function here is pure. A rule that a measurement breaks raises
MeasurementError: the benchmark then reports no number at all rather than
a number it cannot stand behind.
"""

import math
import statistics

# A percentile is printed only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10

# Open-loop generator guard: the p99 of (send time - due time) above which
# the generator, not the server, may have set the latencies.
MAX_GENERATOR_LATE_MS = 5.0

# The traced run must attribute at least this share of op time to layers.
MIN_ATTRIBUTED_SHARE = 0.90


class MeasurementError(Exception):
    """A measurement that breaks one of the rules in this module."""


def median(values):
    if not values:
        raise MeasurementError("median of no samples")
    return statistics.median(values)


def percentile(values, q):
    """Nearest-rank percentile (q in (0, 1)) with its sample count.

    Refuses a percentile with fewer than MIN_TAIL_SAMPLES samples beyond it:
    p50 needs 20 samples, p99 needs 1000.
    """
    n = len(values)
    beyond = math.floor(n * (1.0 - q) + 1e-9)
    if beyond < MIN_TAIL_SAMPLES:
        raise MeasurementError(
            f"p{q * 100:g} of {n} samples has only {beyond} beyond it "
            f"(need {MIN_TAIL_SAMPLES})")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * n))
    return ordered[rank - 1], n


def windowed_percentile(values, q, window=1000, min_windows=3):
    """Median over consecutive `window`-sample windows of each window's
    percentile, with the number of samples used.

    One host stall inflates the tail of the window it falls in and leaves
    the median window alone, while a slower server moves every window.
    Each window obeys the MIN_TAIL_SAMPLES rule on its own.
    """
    count = len(values) // window
    if count < min_windows:
        raise MeasurementError(
            f"{len(values)} samples make {count} windows of {window} "
            f"(need {min_windows})")
    per_window = [percentile(values[i * window:(i + 1) * window], q)[0]
                  for i in range(count)]
    return median(per_window), count * window


def generator_behind(late_ms):
    """True when the generator sent its p99 request later than the guard."""
    value, _ = percentile(late_ms, 0.99)
    return value > MAX_GENERATOR_LATE_MS


def max_rate(steps, search_lo, search_hi, good_target=0.99):
    """Highest offered rate that meets the latency limit.

    `steps` are the search's probes, dicts with `rate`, `pass` and
    `good_frac` (share of requests answered correctly within the limit).
    The floor must pass and the ceiling must fail, otherwise the knee lies
    outside the range and there is no measurement. Between the highest
    passing rate and the lowest failing rate above it, the rate is
    interpolated where good_frac crosses `good_target`, in log-rate.
    A rate probed more than once passes if any probe passed, and keeps the
    best good_frac of its probes.
    Returns (rate, resolution), resolution being fail/pass - 1.
    """
    by_rate = {}
    for s in steps:
        seen = by_rate.setdefault(s["rate"], {"rate": s["rate"], "pass": False,
                                              "good_frac": 0.0})
        seen["pass"] = seen["pass"] or s["pass"]
        seen["good_frac"] = max(seen["good_frac"], s["good_frac"])
    steps = list(by_rate.values())
    floor = [s for s in steps if s["rate"] == search_lo]
    ceiling = [s for s in steps if s["rate"] == search_hi]
    if not floor or not floor[0]["pass"]:
        raise MeasurementError(f"max_rate: the search floor {search_lo:g}/s fails")
    if not ceiling or ceiling[0]["pass"]:
        raise MeasurementError(f"max_rate: the search ceiling {search_hi:g}/s passes")
    passing = max((s for s in steps if s["pass"]), key=lambda s: s["rate"])
    failing = [s for s in steps if not s["pass"] and s["rate"] > passing["rate"]]
    if not failing:
        raise MeasurementError("max_rate: no failing step above the best passing one")
    fail = min(failing, key=lambda s: s["rate"])
    lo, hi = passing["rate"], fail["rate"]
    g_lo, g_hi = passing["good_frac"], fail["good_frac"]
    if g_lo > g_hi and g_hi < good_target <= g_lo:
        frac = (g_lo - good_target) / (g_lo - g_hi)
    else:
        # The failing step failed on backlog, not on good_frac.
        frac = 0.5
    rate = math.exp(math.log(lo) + frac * (math.log(hi) - math.log(lo)))
    if not search_lo < rate < search_hi:
        raise MeasurementError(f"max_rate {rate:g} not strictly inside the search range")
    return rate, hi / lo - 1.0


def attribution(layer_seconds, op_seconds, overlapping=()):
    """Share of op time each layer took, and the share attributed in total.

    `overlapping` names layers measured beside the ops (not inside them),
    which are reported but not summed.
    """
    if op_seconds <= 0:
        raise MeasurementError("attribution over no op time")
    shares = {name: value / op_seconds for name, value in layer_seconds.items()}
    total = sum(v for name, v in shares.items() if name not in overlapping)
    return shares, total


def check_attribution(total_share):
    if total_share < MIN_ATTRIBUTED_SHARE:
        raise MeasurementError(
            f"traced run attributes {total_share:.1%} of op time to layers "
            f"(need {MIN_ATTRIBUTED_SHARE:.0%})")


def setup_seconds(samples):
    """Median set-up time. Every sample must cover a warm-up op, which the
    caller marks with `warmup=True`."""
    if not samples:
        raise MeasurementError("no set-up samples")
    for s in samples:
        if not s.get("warmup"):
            raise MeasurementError("a set-up sample does not include the warm-up op")
    return median([s["seconds"] for s in samples])


def spread(values):
    """IQR as a share of the median, as the acceptance check computes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
