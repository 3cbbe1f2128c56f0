"""Pure helpers of perfbench/run.py: percentiles, span self time,
failure counting and the composition check. Kept free of I/O so
perfbench/test_perfbench.py can test them directly."""

import math

# Percentiles considered for the tail, highest first.
TAIL_QUANTILES = (0.9999, 0.999, 0.99, 0.9, 0.5)
# A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def _rank(q, n):
    """1-based nearest rank of quantile q among n samples (the epsilon
    keeps 0.9 * 100 = 90.00000000000001 at rank 90)."""
    return max(1, math.ceil(q * n - 1e-9))


def percentile(samples, q):
    """Nearest-rank percentile (0 < q <= 1) of a non-empty sample."""
    ordered = sorted(samples)
    return ordered[_rank(q, len(ordered)) - 1]


def tail(samples):
    """(q, value, n): the highest percentile in TAIL_QUANTILES with at
    least MIN_SAMPLES_BEYOND samples beyond it, its value and the sample
    count. (None, None, n) when even the median is not supported."""
    n = len(samples)
    for q in TAIL_QUANTILES:
        if n - _rank(q, n) >= MIN_SAMPLES_BEYOND:
            return q, percentile(samples, q), n
    return None, None, n


def self_time(span, children):
    """A span's duration minus the part of it its children cover. Child
    intervals may overlap each other and stick out of the parent; only
    their union inside the parent counts."""
    start, end = span["start"], span["end"]
    covered = 0.0
    cursor = start
    for c in sorted(children, key=lambda c: c["start"]):
        lo, hi = max(c["start"], cursor), min(c["end"], end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (end - start) - covered


def count_cli_failures(runs):
    """(attempted, failed) over CLI runs. Each run is one operation plus
    one per mini-batch; a failed process fails all of them, and a
    dropped batch fails one. `runs` holds dicts with `exit`, `batches`
    and `dropped`."""
    attempted = failed = 0
    for run in runs:
        attempted += 1 + run["batches"]
        if run["exit"] != 0:
            failed += 1 + run["batches"]
        else:
            failed += run["dropped"]
    return attempted, failed


def composition_mismatches(traced, report):
    """Differences between a traced pass and the end-to-end report it
    was composed from: H@1, MRR and the pseudo-seed count must be equal.
    Both sides print floats with 9 significant digits."""
    expected = {
        "hits_at_1": report["eval"]["hits_at_1"],
        "mrr": report["eval"]["mrr"],
        "pseudo_seeds": report["metrics"]["gauges"].get("name.pseudo_seeds", 0),
    }
    return [f"{key}: traced {traced[key]} != cli {want}"
            for key, want in expected.items()
            if float(traced[key]) != float(want)]
