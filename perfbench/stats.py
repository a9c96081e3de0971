"""Statistics of the serving benchmark, kept apart so they can be tested.

Every timing is reported as a median and a high percentile; a percentile
is only trusted when at least ten samples lie beyond it.
"""

import math
import re

MIN_BEYOND = 10
PERCENTILE_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
_UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def _rank(n, q):
    """1-based nearest rank of the q-th percentile among n samples (rounded
    first so that 99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least q% of
    the samples at or below it. `values` need not be sorted."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def median(values):
    return percentile(values, 50.0)


def samples_beyond(n, q):
    """Samples strictly above the nearest-rank q-th percentile of n."""
    return n - _rank(n, q)


def highest_supported_percentile(n, ladder=PERCENTILE_LADDER,
                                 min_beyond=MIN_BEYOND):
    """The highest percentile of the ladder with at least `min_beyond`
    samples beyond it, or None when even the lowest has too few."""
    for q in ladder:
        if samples_beyond(n, q) >= min_beyond:
            return q
    return None


def due_time_latencies(rtt_us, arrivals, lateness_us):
    """Latency of each request from its due time.

    In a paced (open-loop) drive the arrival `i` was due at a fixed time
    but started `lateness_us[i]` late, because earlier requests held the
    single driver; every request of that arrival is charged that lateness
    on top of its round trip. Without pacing (empty lateness) the latency
    is the round trip.
    """
    if not lateness_us:
        return list(rtt_us)
    return [rtt + lateness_us[a] for rtt, a in zip(rtt_us, arrivals)]


def valid_metric_name(name):
    return isinstance(name, str) and bool(_NAME_RE.match(name))


def valid_unit(unit):
    return isinstance(unit, str) and bool(_UNIT_RE.match(unit))
