"""Inequality and association statistics: Gini, rank correlation, concentration ratios.

All functions are pure and safe to call concurrently. scipy is imported at
the first t-approximation p-value (`spearman` with more than
`EXACT_PERMUTATION_MAX_N` pairs), not with this module: most of its cost is
memory, and a run that never needs such a p-value never pays it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import UndefinedStatisticError, ValidationError

# Exhaustive permutation p-values stay under a second up to 9!.
EXACT_PERMUTATION_MAX_N = 9
BOTTOM_TOP_MIN_VALUES = 5  # the fewest values `bottom_top_ratio` takes


@dataclass(frozen=True)
class SpearmanResult:
    rho: float
    p_value: float
    n: int


@dataclass(frozen=True)
class ConcentrationRatio:
    value: float
    bottom_n: int
    top_n: int


def ordered_sum(values):
    """Sum left to right in plain float arithmetic, as built-in `sum` does before Python 3.12.

    From 3.12 on, `sum` compensates float rounding, so scores and output
    bytes would depend on the Python version; numpy's `bincount` adds in
    this same order.
    """
    total = 0
    for value in values:
        total += value
    return total


def round_half_up(x: float) -> int:
    """Round to the nearest integer with halves rounding up (2.5 -> 3)."""
    return int(math.floor(x + 0.5))


def gini(values: Sequence[float]) -> float:
    """Population Gini coefficient of a non-negative vector.

    Equals sum_ij |x_i - x_j| / (2 n^2 mean), computed here in the
    equivalent O(n log n) sorted form. A constant vector scores 0; a vector
    where one observation holds everything scores (n - 1) / n. An all-zero
    vector is defined as 0 (no variation to measure).
    """
    x = np.asarray(values, dtype=float)
    n = int(x.size)
    if n < 2:
        raise UndefinedStatisticError(f"gini needs at least 2 values, got {n}")
    if np.any(x < 0):
        raise ValidationError("gini is defined for non-negative values only")
    total = float(x.sum())
    if total == 0.0:
        return 0.0
    xs = np.sort(x)
    i = np.arange(1, n + 1)
    return float(((2 * i - n - 1) * xs).sum() / (n * total))


def average_ranks(x, groups: np.ndarray | None = None) -> np.ndarray:
    """Ranks 1..n within each group (all of `x` is one group when `groups` is None).

    Tied values of a group share the mean of the ranks they span: a run of
    equal values at sorted positions i..j of its group ranks 0.5 * (i + j) + 1.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n == 0:
        return np.empty(0)
    g = np.zeros(n, dtype=np.int64) if groups is None else np.asarray(groups)
    order = np.lexsort((x, g))
    sx, sg = x[order], g[order]
    run_first = np.flatnonzero(np.r_[True, (sg[1:] != sg[:-1]) | (sx[1:] != sx[:-1])])
    run_last = np.r_[run_first[1:], n] - 1
    group_first = np.searchsorted(sg, sg[run_first])
    ranks = np.empty(n)
    ranks[order] = np.repeat(0.5 * (run_first + run_last - 2 * group_first) + 1.0, run_last - run_first + 1)
    return ranks


@lru_cache(maxsize=None)
def _permutation_matrix(n: int) -> np.ndarray:
    """All n! permutations of 0..n-1 as int8 rows, built without a list of n! tuples; cached, treat as read-only."""
    permutations = itertools.chain.from_iterable(itertools.permutations(range(n)))
    return np.fromiter(permutations, dtype=np.int8).reshape(-1, n)


def _exact_permutation_p(dx: np.ndarray, ry: np.ndarray, denom: float, rho_obs: float) -> float:
    """Two-sided p over all n! pairings of the centred x ranks `dx` with the y ranks `ry`; `denom` is rho's."""
    n = int(dx.size)
    # sum(dx) == 0, so permuted-ry dot dx already equals the centered product. The pairings that put
    # ry[n - 1] against dx[i] pair the other ranks by one of the (n - 1)! permutations P, so their sums
    # are dx[i] * ry[n - 1] + ry[P] @ (dx without entry i). Ranks and centred ranks are multiples of
    # 0.5, so every partial sum is exact and the split leaves each rho unchanged.
    others = ry[_permutation_matrix(n - 1)]
    hits = 0
    for i in range(n):
        rhos = (dx[i] * ry[n - 1] + others @ np.delete(dx, i)) / denom
        hits += int(np.count_nonzero(np.abs(rhos) >= abs(rho_obs) - 1e-12))
    return hits / math.factorial(n)


def _t_approximation_p(rho: float, n: int) -> float:
    if abs(rho) >= 1.0:
        return 0.0
    from scipy.special import stdtr

    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    return float(2.0 * stdtr(n - 2, -abs(t)))


def spearman(x: Sequence[float], y: Sequence[float]) -> SpearmanResult:
    """Tie-aware Spearman rank correlation with a two-sided p-value.

    rho is the Pearson correlation of the average-rank transforms. The
    p-value is exact (all n! pairings enumerated) for n <= 9 and uses the
    t approximation t = rho * sqrt((n - 2) / (1 - rho^2)) above that.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.size != ya.size:
        raise ValidationError(f"spearman needs equal lengths, got {xa.size} vs {ya.size}")
    n = int(xa.size)
    if n < 3:
        raise UndefinedStatisticError(f"spearman needs at least 3 pairs, got {n}")
    rx = average_ranks(xa)
    ry = average_ranks(ya)
    if np.all(xa == xa[0]) or np.all(ya == ya[0]):
        raise UndefinedStatisticError("spearman is undefined for a zero-variance vector")
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    denom = math.sqrt(float((dx * dx).sum() * (dy * dy).sum()))
    rho = max(-1.0, min(1.0, float((dx * dy).sum() / denom)))
    if n <= EXACT_PERMUTATION_MAX_N:
        p = _exact_permutation_p(dx, ry, denom, rho)
    else:
        p = _t_approximation_p(rho, n)
    return SpearmanResult(rho, p, n)


def top_count(share: float, n: int) -> int:
    """Head count of the top `share` of n members: half up, at least one, none at share 0.

    Share 0 selects nobody so a top-removal scenario collapses to the observed one.
    """
    if share == 0:
        return 0
    return max(1, round_half_up(share * n))


def bottom_top_ratio(values: Sequence[float]) -> ConcentrationRatio:
    """Cumulative value of the bottom 40% over the cumulative top 20%.

    Both group sizes round down. Near zero means the bottom group contributes
    almost nothing relative to the top performers; degenerate near-equal data
    can push it above 1.
    """
    x = np.asarray(values, dtype=float)
    n = int(x.size)
    if n < BOTTOM_TOP_MIN_VALUES:
        raise UndefinedStatisticError(f"bottom/top ratio needs at least {BOTTOM_TOP_MIN_VALUES} values, got {n}")
    n_bottom = int(math.floor(0.40 * n + 1e-9))
    n_top = int(math.floor(0.20 * n + 1e-9))
    xs = np.sort(x)
    bottom = float(xs[:n_bottom].sum())
    top = float(xs[n - n_top :].sum())
    if top == 0.0:
        raise UndefinedStatisticError("top group has zero cumulative value")
    return ConcentrationRatio(bottom / top, n_bottom, n_top)


def top20_impact_share(values: Sequence[float]) -> float:
    """Share of the total held by the top `top_count(0.2, n)` values; 0 for a zero total.

    Sums run over the values in descending order, so equal inputs give
    bit-identical shares.
    """
    ranked = sorted(values, reverse=True)
    total = ordered_sum(ranked)
    if not total:
        return 0.0
    return ordered_sum(ranked[: top_count(0.2, len(ranked))]) / total


def quantile_class_sizes(n: int, k: int) -> list[int]:
    """Class sizes differing by at most one, remainder going to the extremes first.

    The r = n mod k extra units are assigned one at a time alternating from
    the outside inward: first class, last class, second class, second-to-last...
    """
    if k < 1:
        raise ValidationError(f"need at least one quantile class, got {k}")
    if n < k:
        raise UndefinedStatisticError(f"cannot split {n} units into {k} classes")
    base, extra = divmod(n, k)
    sizes = [base] * k
    order = []
    lo, hi = 0, k - 1
    while lo <= hi:
        order.append(lo)
        if hi != lo:
            order.append(hi)
        lo += 1
        hi -= 1
    for pos in order[:extra]:
        sizes[pos] += 1
    return sizes


def classify_quantiles(n: int, k: int) -> list[int]:
    """A 0-based class (0 = best) for each of n ranks, best rank first."""
    sizes = quantile_class_sizes(n, k)
    classes: list[int] = []
    for class_index, size in enumerate(sizes):
        classes.extend([class_index] * size)
    return classes
