import hashlib
import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ansearch.stats import (FunctionSummary, finner_adjust, rank_algorithms,
                            rank_sum_p_value, summarize, wilcoxon_rank_sum,
                            wilcoxon_signed_rank)


# ---------------------------------------------------------------------------
# Independent brute-force oracles (Fraction arithmetic, counting mid-ranks).
# ---------------------------------------------------------------------------

def oracle_midranks(values):
    ranks = []
    for v in values:
        less = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        ranks.append(Fraction(2 * less + equal + 1, 2))
    return ranks


def oracle_rank_sum_p(a, b):
    pooled = list(a) + list(b)
    ranks = oracle_midranks(pooled)
    n1 = len(a)
    total = len(pooled)
    mu = Fraction(n1 * (total + 1), 2)
    observed = abs(sum(ranks[:n1]) - mu)
    hits = 0
    cases = 0
    for subset in combinations(range(total), n1):
        cases += 1
        if abs(sum(ranks[i] for i in subset) - mu) >= observed:
            hits += 1
    return hits / cases


def oracle_signed_rank_p(diffs):
    nonzero = [d for d in diffs if d != 0]
    if not nonzero:
        return 1.0
    ranks = oracle_midranks([abs(d) for d in nonzero])
    half = Fraction(sum(ranks), 2)
    observed = abs(sum(r for d, r in zip(nonzero, ranks) if d > 0) - half)
    hits = 0
    for signs in product((1, -1), repeat=len(nonzero)):
        w = sum(r for s, r in zip(signs, ranks) if s > 0)
        if abs(w - half) >= observed:
            hits += 1
    return hits / 2 ** len(nonzero)


# ---------------------------------------------------------------------------
# Summaries and ranking
# ---------------------------------------------------------------------------

def test_summarize_constant_runs():
    s = summarize([0.0, 0.0, 0.0], [100, 120, 80])
    assert (s.mean, s.std, s.success_rate, s.mean_nfe_to_success) == (0.0, 0.0, 1.0, 100.0)


def test_summarize_no_successes():
    s = summarize([3.0, 4.0], [None, None])
    assert s.success_rate == 0.0
    assert s.mean_nfe_to_success is None


def test_summarize_sample_std():
    s = summarize([1.0, 3.0], [None, 5])
    assert s.mean == 2.0
    assert abs(s.std - math.sqrt(2.0)) < 1e-15
    assert s.success_rate == 0.5
    assert s.mean_nfe_to_success == 5.0


def test_summarize_single_run_and_errors():
    assert summarize([2.0], [None]).std == 0.0
    with pytest.raises(ValueError):
        summarize([], [])
    with pytest.raises(ValueError):
        summarize([1.0], [None, None])


@pytest.mark.filterwarnings("error")
def test_summarize_infinite_runs():
    # A run whose every evaluation was NaN ends at +inf.  numpy's std warned
    # and gave NaN here, and the summary row read INF,NAN.
    inf = math.inf
    assert summarize([inf, 1.0], [None, None]).std == inf
    assert summarize([1.0, 2.0, inf], [None, None, None]).std == inf
    s = summarize([inf, inf], [None, None])
    assert (s.mean, s.std) == (inf, 0.0)
    # Equal values have std 0, as a single run does, with no rounding residue.
    assert summarize([0.1] * 3, [None] * 3).std == 0.0


def test_rank_algorithms_cases():
    assert rank_algorithms([0.0] * 8) == [1] * 8
    assert rank_algorithms([3.0, 1.0, 2.0]) == [3, 1, 2]
    assert rank_algorithms([0.0, 0.0, 5.0]) == [1, 1, 3]
    assert rank_algorithms([5.0]) == [1]


@given(st.lists(st.integers(0, 3), min_size=1, max_size=8))
def test_rank_algorithms_tie_groups_share_min_rank(means):
    ranks = rank_algorithms(means)
    for i, j in combinations(range(len(means)), 2):
        if means[i] == means[j]:
            assert ranks[i] == ranks[j]
        elif means[i] < means[j]:
            assert ranks[i] < ranks[j]
    assert min(ranks) == 1


# ---------------------------------------------------------------------------
# Rank-sum test
# ---------------------------------------------------------------------------

def test_rank_sum_separated_samples_exact_p():
    assert rank_sum_p_value([1, 2, 3, 4, 5], [10, 11, 12, 13, 14]) == 2 / 252


def test_rank_sum_identical_lists_is_approx():
    v = wilcoxon_rank_sum([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert v.symbol == "approx"
    assert v.p_value == 1.0


def test_rank_sum_constant_samples_verdict_direction():
    worse_peer = wilcoxon_rank_sum([0.0] * 5, [1.0] * 5)
    assert worse_peer.symbol == "minus"
    better_peer = wilcoxon_rank_sum([1.0] * 5, [0.0] * 5)
    assert better_peer.symbol == "plus"
    all_tied = wilcoxon_rank_sum([2.0] * 5, [2.0] * 5)
    assert all_tied.symbol == "approx" and all_tied.p_value == 1.0


def test_rank_sum_requires_two_observations():
    with pytest.raises(ValueError):
        rank_sum_p_value([1.0], [2.0, 3.0])


def test_rank_sum_matches_oracle_on_random_tied_cases():
    rng = np.random.default_rng(42)
    for _ in range(120):
        n1 = int(rng.integers(2, 9))
        n2 = int(rng.integers(2, 9))
        a = rng.integers(0, 5, n1).astype(float).tolist()
        b = rng.integers(0, 5, n2).astype(float).tolist()
        assert rank_sum_p_value(a, b) == oracle_rank_sum_p(a, b), (a, b)
    # One case at the largest exact size, 10 + 10 pooled.
    a = rng.integers(0, 5, 10).astype(float).tolist()
    b = rng.integers(0, 5, 10).astype(float).tolist()
    assert rank_sum_p_value(a, b) == oracle_rank_sum_p(a, b), (a, b)


@given(st.lists(st.integers(0, 6), min_size=2, max_size=7),
       st.lists(st.integers(0, 6), min_size=2, max_size=7))
def test_rank_sum_symmetry(a, b):
    pa = rank_sum_p_value(a, b)
    pb = rank_sum_p_value(b, a)
    assert pa == pb
    va = wilcoxon_rank_sum(a, b)
    vb = wilcoxon_rank_sum(b, a)
    flip = {"minus": "plus", "plus": "minus", "approx": "approx"}
    assert vb.symbol == flip[va.symbol]


def test_rank_sum_normal_approximation_large_samples():
    rng = np.random.default_rng(1)
    a = rng.normal(0.0, 1.0, 25).tolist()
    b = (rng.normal(3.0, 1.0, 25)).tolist()
    assert rank_sum_p_value(a, b) < 1e-6
    c = rng.normal(0.0, 1.0, 25).tolist()
    assert rank_sum_p_value(a, c) > 0.05
    assert rank_sum_p_value([1.0] * 25, [1.0] * 25) == 1.0


# ---------------------------------------------------------------------------
# Signed-rank test
# ---------------------------------------------------------------------------

def test_signed_rank_edge_cases():
    assert wilcoxon_signed_rank([0.0, 0.0, 0.0]) == 1.0
    assert wilcoxon_signed_rank([5.0]) == 1.0
    assert wilcoxon_signed_rank(list(range(1, 19))) == 2 / 2 ** 18


def test_signed_rank_matches_oracle_on_random_tied_cases():
    rng = np.random.default_rng(24)
    for _ in range(120):
        n = int(rng.integers(1, 9))
        diffs = rng.integers(-4, 5, n).astype(float).tolist()
        assert wilcoxon_signed_rank(diffs) == oracle_signed_rank_p(diffs), diffs


def test_signed_rank_normal_approximation_kicks_in():
    diffs = list(range(1, 31))  # 30 same-sign differences
    p = wilcoxon_signed_rank(diffs)
    assert p < 1e-5


# ---------------------------------------------------------------------------
# Finner adjustment
# ---------------------------------------------------------------------------

PUBLISHED_P = [2.9248e-04, 2.9305e-04, 2.9305e-04, 7.1601e-03, 3.5278e-02,
           3.7573e-01, 8.0078e-01]
PUBLISHED_APV = [2.0456e-03, 2.0496e-03, 2.0496e-03, 4.9057e-02, 2.2230e-01,
             9.6305e-01, 9.9999e-01]


def test_finner_single_step_reproduces_published_table():
    apv = finner_adjust(PUBLISHED_P, mode="single_step")
    for computed, published in zip(apv, PUBLISHED_APV):
        assert abs(computed - published) / published < 5e-4  # 4 significant figures


def test_finner_zero_and_validation():
    assert finner_adjust([0.0], "single_step") == [0.0]
    assert finner_adjust([0.0], "step_down") == [0.0]
    with pytest.raises(ValueError):
        finner_adjust([1.2])
    with pytest.raises(ValueError):
        finner_adjust([])
    with pytest.raises(ValueError):
        finner_adjust([0.5], mode="bonferroni")


def test_finner_step_down_hand_case():
    apv = finner_adjust([0.01, 0.02, 0.03], mode="step_down")
    direct = [1.0 - 0.99 ** 3, 1.0 - 0.98 ** 1.5, 1.0 - 0.97 ** 1.0]
    expected = [max(direct[:i + 1]) for i in range(3)]
    assert apv == pytest.approx(expected, abs=1e-15)


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10))
def test_finner_step_down_monotone_and_dominates_raw(p_values):
    apv = finner_adjust(p_values, mode="step_down")
    order = sorted(range(len(p_values)), key=lambda i: p_values[i])
    in_order = [apv[i] for i in order]
    assert all(y >= x for x, y in zip(in_order, in_order[1:]))
    for p, a in zip(p_values, apv):
        assert a >= p - 1e-12
        assert 0.0 <= a <= 1.0


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10))
def test_finner_single_step_matches_closed_form(p_values):
    k = len(p_values)
    apv = finner_adjust(p_values, mode="single_step")
    for p, a in zip(p_values, apv):
        assert a == pytest.approx(min(1.0, 1.0 - (1.0 - p) ** k), abs=1e-15)


def test_function_summary_is_immutable():
    s = FunctionSummary(1.0, 0.5, 1.0, 100.0, 2)
    with pytest.raises(Exception):
        s.mean = 2.0


# ---------------------------------------------------------------------------
# Golden digest of the exact and normal-approximation paths
# ---------------------------------------------------------------------------

# SHA-256 of the repr of every p-value and ranking below, over fixed-seed
# random cases: rank sums at n1, n2 in 2..39 (exact up to a pooled size of
# 20, normal beyond), signed ranks at 1..44 differences (exact up to 25,
# normal beyond) and competition ranks, all with ties.  The report goldens
# use at most 3 runs per function, so only this digest pins the normal
# paths bit for bit.  Update it only for an intended change of a p-value.
GOLDEN_STATS_SHA256 = "ca20dfd7ca41fe56060cde018836b49c0336c71f5116b9c02743b556f2315a5c"


def stats_cases_text():
    rng = np.random.default_rng(20140801)
    lines = []
    for _ in range(400):
        n1, n2 = (int(n) for n in rng.integers(2, 40, 2))
        levels = int(rng.integers(2, 12))
        a = (rng.integers(0, levels, n1) * 0.5).tolist()
        b = (rng.integers(0, levels, n2) * 0.5).tolist()
        lines.append(repr(rank_sum_p_value(a, b)))
    for _ in range(400):
        n = int(rng.integers(1, 45))
        levels = int(rng.integers(1, 9))
        diffs = (rng.integers(-levels, levels + 1, n) * 0.25).tolist()
        lines.append(repr(wilcoxon_signed_rank(diffs)))
    for _ in range(200):
        means = rng.integers(0, 5, int(rng.integers(1, 9))).astype(float).tolist()
        lines.append(repr(rank_algorithms(means)))
    return "\n".join(lines)


def test_golden_stats_digest():
    digest = hashlib.sha256(stats_cases_text().encode()).hexdigest()
    assert digest == GOLDEN_STATS_SHA256


def test_nan_is_rejected_wherever_values_are_ranked():
    # A NaN has no place in the order: results used to depend on where it
    # sat ([nan, 1, -2] gave 0.75, [1, nan, -2] gave 0.5).
    nan = float("nan")
    for call in (lambda: wilcoxon_signed_rank([nan, 1.0, -2.0]),
                 lambda: wilcoxon_signed_rank([1.0, nan, -2.0]),
                 lambda: rank_algorithms([nan, 1.0, 0.5]),
                 lambda: rank_algorithms([1.0, nan, 0.5]),
                 lambda: rank_sum_p_value([1.0, nan], [2.0, 3.0]),
                 lambda: rank_sum_p_value([1.0] * 15, [2.0] * 14 + [nan]),
                 # summarize gave mean NaN.
                 lambda: summarize([nan, 1.0], [None, None])):
        with pytest.raises(ValueError, match="NaN"):
            call()
