"""Run summaries and nonparametric significance machinery.

The two-sample rank-sum test and the paired signed-rank test are
implemented from scratch because the evaluation protocol needs exact
p-values in the presence of ties (final fitnesses are often identical
zeros), which off-the-shelf exact methods refuse.  Both tests share one
kernel: ``_tie_groups`` (also behind the competition ranks) groups equal
values, ``_exact_p`` counts small samples exactly over doubled mid-ranks,
and ``_normal_p`` is the tie-corrected normal approximation beyond that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

# Exact-count limits: pooled size 20 for the rank-sum test, 25 non-zero
# differences for the signed-rank.
RANK_SUM_EXACT_LIMIT = 20
SIGNED_RANK_EXACT_LIMIT = 25

ALPHA = 0.05   # significance level of the rank-sum verdicts
FINNER_MODES = ("step_down", "single_step")

SYMBOL_MINUS = "minus"    # peer performs worse than the reference
SYMBOL_PLUS = "plus"      # peer performs better
SYMBOL_APPROX = "approx"  # no significant difference


@dataclass(frozen=True)
class FunctionSummary:
    mean: float
    std: float
    success_rate: float
    mean_nfe_to_success: Optional[float]
    rank: int = 1


@dataclass(frozen=True)
class PairwiseVerdict:
    symbol: str
    p_value: float


def summarize(final_fitnesses: Sequence[float],
              nfe_successes: Sequence[Optional[int]]) -> FunctionSummary:
    """Per-function statistics over independent runs.

    ``nfe_successes[i]`` is run i's evaluations-to-success, or None for a
    failed run; the NFE average covers successful runs only.  Std uses the
    sample divisor (n-1); a single run reports std 0.
    """
    if len(final_fitnesses) == 0:
        raise ValueError("summarize needs at least one run")
    if len(final_fitnesses) != len(nfe_successes):
        raise ValueError("fitness and NFE lists must align run-for-run")
    values = np.asarray(final_fitnesses, dtype=float)
    if np.isnan(values).any():
        raise ValueError("final fitnesses must not be NaN")
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    hits = [int(v) for v in nfe_successes if v is not None]
    sr = len(hits) / len(values)
    nfe = float(np.mean(hits)) if hits else None
    return FunctionSummary(mean=mean, std=std, success_rate=sr, mean_nfe_to_success=nfe)


def _tie_groups(values: Sequence[float]) -> Iterator[Tuple[int, List[int]]]:
    """Each group of equal values in ascending order: its first position
    (from 0) and its members' indices.  A NaN has no place in the order."""
    if any(v != v for v in values):
        raise ValueError("ranked values must not be NaN")
    order = sorted(range(len(values)), key=lambda i: values[i])
    start = 0
    for _, grp in groupby(order, key=lambda i: values[i]):
        idx = list(grp)
        yield start, idx
        start += len(idx)


def rank_algorithms(means: Sequence[float]) -> List[int]:
    """Competition ranking of mean results: smaller is better, exact ties
    share the smallest rank of their group (0, 0, 5 -> 1, 1, 3)."""
    if len(means) == 0:
        raise ValueError("rank_algorithms needs at least one entry")
    rank = {i: start + 1 for start, idx in _tie_groups(means) for i in idx}
    return [rank[i] for i in range(len(means))]


def _doubled_midranks(values: Sequence[float]) -> Tuple[List[int], int]:
    """Mid-ranks of the pooled sample, doubled so they are exact integers,
    and the tie term sum(t^3 - t) over its groups of t equal values."""
    doubled = [0] * len(values)
    tie_term = 0
    for start, idx in _tie_groups(values):
        t = len(idx)
        for i in idx:
            doubled[i] = 2 * start + t + 1  # 2 * average of start+1 .. start+t
        tie_term += t ** 3 - t
    return doubled, tie_term


def _exact_p(doubled: Sequence[int], observed2: int, size: Optional[int] = None) -> float:
    """Share of the subsets of ``doubled`` (of ``size`` ranks, or of any
    size) whose rank sum is at least as far from its null mean as
    ``observed2``, counted by dynamic programming in exact integers."""
    n, total2 = len(doubled), sum(doubled)   # total2 = n(n+1): both means are integers
    # ways[k, s] = size-k position subsets (ties count fully) of doubled sum s.
    ways = np.zeros(((n if size is None else size) + 1, total2 + 1), dtype=np.uint64)
    ways[0, 0] = 1
    for r in doubled:  # doubled mid-ranks are always >= 2
        ways[1:, r:] += ways[:-1, :-r].copy()
    counts = ways.sum(axis=0) if size is None else ways[size]
    mean2 = total2 // 2 if size is None else size * total2 // n
    sums2 = np.arange(total2 + 1)
    hits = int(counts[np.abs(sums2 - mean2) >= abs(observed2 - mean2)].sum())
    return hits / int(counts.sum())


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _normal_p(deviation: float, var: float) -> float:
    """Two-sided normal p-value of a deviation from the null mean."""
    if var <= 0:
        return 1.0
    z = deviation / math.sqrt(var)
    return min(1.0, 2.0 * _normal_sf(abs(z)))


def rank_sum_p_value(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided Wilcoxon rank-sum (Mann-Whitney) p-value.

    Exact when the pooled size is at most RANK_SUM_EXACT_LIMIT: the p-value
    is the fraction of all C(n1+n2, n1) rank assignments whose rank sum is
    at least as far from its null mean as the observed one.  Larger samples
    use the tie-corrected normal approximation (no continuity correction).
    """
    n1, n2 = len(a), len(b)
    if n1 < 2 or n2 < 2:
        raise ValueError("rank-sum test needs at least 2 observations per sample")
    doubled, tie_term = _doubled_midranks(list(a) + list(b))
    total = n1 + n2
    observed2 = sum(doubled[:n1])          # doubled rank sum of sample a
    if total <= RANK_SUM_EXACT_LIMIT:
        return _exact_p(doubled, observed2, n1)
    mean2 = n1 * (total + 1)               # doubled null mean
    var = n1 * n2 / 12.0 * ((total + 1) - tie_term / (total * (total - 1)))
    return _normal_p((observed2 - mean2) / 2.0, var)


def wilcoxon_rank_sum(a: Sequence[float], b: Sequence[float]) -> PairwiseVerdict:
    """Verdict on peer sample ``b`` against reference sample ``a``.

    A p-value at or above ``ALPHA`` reports "approx".  One below it is
    directed by the sample medians (minimization: the smaller median is the
    better performer); equal medians fall back to means, and a still-unbroken
    tie reports "approx".
    """
    p = rank_sum_p_value(a, b)
    if p >= ALPHA:
        return PairwiseVerdict(SYMBOL_APPROX, p)
    med_a, med_b = float(np.median(a)), float(np.median(b))
    if med_a == med_b:
        med_a, med_b = float(np.mean(a)), float(np.mean(b))
    if med_b > med_a:
        return PairwiseVerdict(SYMBOL_MINUS, p)
    if med_b < med_a:
        return PairwiseVerdict(SYMBOL_PLUS, p)
    return PairwiseVerdict(SYMBOL_APPROX, p)


def wilcoxon_signed_rank(paired_diffs: Sequence[float]) -> float:
    """Two-sided paired signed-rank p-value.

    Zero differences are dropped; tied magnitudes get mid-ranks.  With up
    to SIGNED_RANK_EXACT_LIMIT non-zero differences the exact two-sided
    p-value is computed by counting sign patterns (subset-sum dynamic
    programming over doubled ranks); beyond that the tie-corrected normal
    approximation is used.  All differences zero gives p = 1.
    """
    diffs = [d for d in paired_diffs if d != 0]
    n = len(diffs)
    if n == 0:
        return 1.0
    doubled, tie_term = _doubled_midranks([abs(d) for d in diffs])
    w2 = sum(r for d, r in zip(diffs, doubled) if d > 0)
    if n <= SIGNED_RANK_EXACT_LIMIT:
        return _exact_p(doubled, w2)
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term / 48.0
    return _normal_p(w2 / 2.0 - mean, var)


def finner_adjust(p_values: Sequence[float], mode: str = "step_down") -> List[float]:
    """Adjusted p-values for a family of k simultaneous comparisons.

    ``step_down``: sort p ascending and take the running maximum of
    1 - (1 - p_(j))^(k/j), the usual step-down procedure (APVs are
    monotone and never below the raw p).  ``single_step``: the closed
    form 1 - (1 - p)^k applied to every entry independently.
    Results are clipped to [0, 1] and returned in the input order.
    """
    if mode not in FINNER_MODES:
        raise ValueError(f"unknown finner mode {mode!r}")
    k = len(p_values)
    if k == 0:
        raise ValueError("finner_adjust needs at least one p-value")
    for p in p_values:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p-value {p} outside [0, 1]")
    if mode == "single_step":
        return [min(1.0, 1.0 - (1.0 - p) ** k) for p in p_values]
    order = sorted(range(k), key=lambda i: p_values[i])
    adjusted = [0.0] * k
    running = 0.0
    for j, i in enumerate(order, start=1):
        running = max(running, 1.0 - (1.0 - p_values[i]) ** (k / j))
        adjusted[i] = min(1.0, running)
    return adjusted
