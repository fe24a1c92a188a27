"""Honest summary statistics and the parent-vs-change verdict rules.

Every timing is reported as a median with its quartiles, an
order-statistic confidence interval of the median and the sample
count (Hoefler & Belli, "Scientific Benchmarking of Parallel Computing
Systems").  Nothing here takes a best-of-N.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

#: Level of the order-statistic confidence interval of the median.
CI_LEVEL = 0.95

#: Fewest parent/change pairs :func:`verdict` judges: the 9/10-wins
#: rule means nothing on fewer.
MIN_PAIRS = 10


@dataclass(frozen=True)
class Summary:
    n: int
    median: float
    q1: float
    q3: float
    #: Order-statistic interval around the median and its exact
    #: binomial coverage (below the requested level when n <= 5).
    ci_lo: float
    ci_hi: float
    ci_coverage: float

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1

    @property
    def spread(self) -> float:
        """Interquartile distance as a share of the median."""
        return self.iqr / abs(self.median) if self.median else math.inf


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` by :func:`statistics.quantiles` (``n=4``)."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def median_ci(values: Sequence[float]) -> tuple[float, float, float]:
    """Distribution-free CI of the median from order statistics.

    Returns ``(lo, hi, coverage)``: the interval ``[x_(j), x_(n-j+1)]``
    with the largest rank ``j`` whose exact coverage under
    ``Binomial(n, 1/2)`` is at least :data:`CI_LEVEL`.  With too few
    samples to reach it the full range is returned with its true coverage.
    """
    xs = sorted(float(v) for v in values)
    n = len(xs)
    if n == 0:
        raise ValueError("median_ci needs at least one sample")
    best_j, best_cov = 1, 1.0 - 2.0 * 0.5 ** n
    tail = 0.0
    for j in range(1, n // 2 + 1):
        # tail = P(Bin(n, 1/2) <= j - 1)
        tail += math.comb(n, j - 1) * 0.5 ** n
        coverage = 1.0 - 2.0 * tail
        if coverage < CI_LEVEL:
            break
        best_j, best_cov = j, coverage
    return xs[best_j - 1], xs[n - best_j], best_cov


def summarize(values: Sequence[float]) -> Summary:
    if not values:
        raise ValueError("summarize needs at least one sample")
    q1, med, q3 = quartiles(values)
    lo, hi, cov = median_ci(values)
    return Summary(len(values), med, q1, q3, lo, hi, cov)


# ---------------------------------------------------------------------------
# Parent vs change
# ---------------------------------------------------------------------------

IMPROVED = "improved"
UNCHANGED = "unchanged"
REGRESSED = "regressed"
UNRESOLVED = "unresolved"


def _better(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
) -> tuple[str, dict]:
    """Judge one metric on one workload from paired runs.

    ``parent[i]`` and ``change[i]`` are the i-th pair; at least
    :data:`MIN_PAIRS` pairs are needed.  A gain needs the
    change to win at least nine tenths of all pairs (ties count for
    neither) *and* the medians to differ by more than the parent's own
    interquartile distance.  Otherwise, when either side's spread
    exceeds *bound* the metric is ``unresolved`` (unless every change
    run beats every parent run); a change median worse than the
    parent's by more than *bound* is a regression.
    """
    if len(parent) != len(change) or len(parent) < MIN_PAIRS:
        raise ValueError(f"verdict needs the same number of runs per side, at least {MIN_PAIRS}")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    p, c = summarize(parent), summarize(change)
    wins = sum(1 for a, b in zip(change, parent) if _better(a, b, better))
    n = len(parent)
    detail = {
        "pairs": n,
        "wins": wins,
        "parent": p,
        "change": c,
        "delta": (c.median - p.median) / p.median if p.median else math.inf,
    }
    if (
        wins >= 0.9 * n
        and _better(c.median, p.median, better)
        and abs(c.median - p.median) > p.iqr
    ):
        return IMPROVED, detail
    all_better = all(_better(a, b, better) for a in change for b in parent)
    if max(p.spread, c.spread) > bound and not all_better:
        return UNRESOLVED, detail
    worse_by = (c.median - p.median) if better == "lower" else (p.median - c.median)
    if worse_by > bound * abs(p.median):
        return REGRESSED, detail
    return UNCHANGED, detail
