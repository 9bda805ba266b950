"""Summary statistics shared by the runner, the spread tool and the tests."""

import statistics
from typing import Dict, List, Sequence

# A tail percentile needs this many samples strictly beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(samples: Sequence[float]) -> Dict[str, float]:
    """Highest percentile of the samples that has at least TAIL_BEYOND
    samples beyond it.

    With n sorted samples, the value at 0-based index n - TAIL_BEYOND - 1
    has exactly TAIL_BEYOND samples after it, so it sits at percentile
    100 * (n - TAIL_BEYOND) / n.  With too few samples no such percentile
    reaches the median; the median is reported instead, together with the
    number of samples that lie beyond it, so a reader sees how thin the
    tail is.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return {"value": 0.0, "percentile": 0.0, "beyond": 0, "n": 0}
    percentile = 100.0 * (n - TAIL_BEYOND) / n
    if percentile >= 50.0:
        return {"value": xs[n - TAIL_BEYOND - 1], "percentile": percentile,
                "beyond": TAIL_BEYOND, "n": n}
    value = statistics.median(xs)
    return {"value": value, "percentile": 50.0,
            "beyond": sum(1 for x in xs if x > value), "n": n}


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median, as the acceptance rule for repeat runs computes it."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def quartiles(values: Sequence[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else [0.0] * 3
    return statistics.quantiles(values, n=4)
