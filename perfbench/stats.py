"""Statistics and naming rules shared by the perfbench runner and its tests."""

import math
import re
import statistics

# Metric names and units, as BENCHMARK.json admits them.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

# Tail percentiles a workload may report, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
MIN_BEYOND = 10
MIN_BEYOND_SHARE = 0.05


def median(values):
    return statistics.median(values)


def percentile(values, p):
    """The p-th percentile, linear between the closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n_samples, min_beyond=MIN_BEYOND, min_share=MIN_BEYOND_SHARE):
    """The highest ladder percentile that leaves at least `min_beyond` of
    `n_samples`, and at least `min_share` of them, beyond it. The share keeps
    a long phase's tail off the rungs that a few host preemptions decide:
    p95, not p99.9, for 50k samples; below 200 samples it changes nothing."""
    need = max(min_beyond, min_share * n_samples)
    for p in TAIL_LADDER:
        if n_samples * (100.0 - p) / 100.0 >= need - 1e-9:
            return p
    raise ValueError(f"{n_samples} samples cannot leave {min_beyond} beyond "
                     f"a percentile of at least {TAIL_LADDER[-1]}")


def check_metrics(metrics):
    """Raises ValueError unless every metric has a valid name, a unit and a
    finite value."""
    for name, entry in metrics.items():
        if not NAME_RE.match(name):
            raise ValueError(f"bad metric name {name!r}")
        unit = entry.get("unit")
        if not isinstance(unit, str) or not UNIT_RE.match(unit):
            raise ValueError(f"metric {name} has no valid unit: {unit!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"metric {name} has no finite value: {value!r}")
