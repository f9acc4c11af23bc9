import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import ScriptedRng

from ansearch.baselines import _clamp
from ansearch.core import ObjectiveProblem, RngStream, SearchBounds, init_position
from ansearch.benchmarks import make_problem
from ansearch.engine import AnsParams, update_position


def test_bounds_validation():
    SearchBounds(-1.0, 1.0, 3)
    with pytest.raises(ValueError):
        SearchBounds(0.0, 0.0, 3)
    with pytest.raises(ValueError):
        SearchBounds(1.0, -1.0, 3)
    with pytest.raises(ValueError):
        SearchBounds(-1.0, 1.0, 0)


def test_gaussian_coverage_one_and_two_sigma():
    # P(|x| < sigma) = 0.6826 and P(|x| < 2 sigma) = 0.9544 for a zero-mean
    # Gaussian; checked empirically at sigma = 0.5.
    draws = 0.5 * RngStream(123).standard_gaussian(1_000_000)
    inside_one = np.mean(np.abs(draws) < 0.5)
    inside_two = np.mean(np.abs(draws) < 1.0)
    assert abs(inside_one - 0.6826) < 0.003
    assert abs(inside_two - 0.9544) < 0.003


def test_gaussian_empirical_cdf_matches_normal_cdf():
    sigma = 1.3
    n = 1_000_000
    draws = np.sort(sigma * RngStream(99).standard_gaussian(n))
    cdf = 0.5 * (1.0 + np.vectorize(math.erf)(draws / (sigma * math.sqrt(2.0))))
    grid = np.arange(1, n + 1) / n
    ks = max(np.max(np.abs(grid - cdf)), np.max(np.abs(cdf - (grid - 1.0 / n))))
    assert ks < 0.01


def ans_clamp(point, bounds):
    # A zero Gaussian and a single individual put the update exactly on the
    # individual's superior, so the result is that point after the box clamp.
    params = AnsParams(population_size=1, across_degree=0, max_evals=1)
    return update_position(np.zeros(bounds.dim), point[None, :], 0, params,
                           ScriptedRng(gaussian_value=0.0), bounds)


def baseline_clamp(point, bounds):
    problem = SimpleNamespace(bounds=bounds)
    return _clamp(point, problem, "clamp")


CLAMPS = [ans_clamp, baseline_clamp]


def test_clamp_examples():
    b2 = SearchBounds(-1.0, 1.0, 2)
    b1 = SearchBounds(-1.0, 1.0, 1)
    b512 = SearchBounds(-5.12, 5.12, 2)
    for clamp in CLAMPS:
        np.testing.assert_array_equal(clamp(np.array([0.3, -0.2]), b2),
                                      np.array([0.3, -0.2]))
        np.testing.assert_array_equal(clamp(np.array([2.0]), b1), np.array([1.0]))
        np.testing.assert_array_equal(clamp(np.array([-7.0, 12.0]), b512),
                                      np.array([-5.12, 5.12]))


@given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=20))
def test_clamp_keeps_inside_points_untouched(values):
    bounds = SearchBounds(-1.0, 1.0, len(values))
    pos = np.array(values)
    for clamp in CLAMPS:
        np.testing.assert_array_equal(clamp(pos, bounds), pos)


def test_init_position_uniform_mean():
    rng = RngStream(5)
    bounds = SearchBounds(-1.0, 1.0, 4)
    draws = np.array([init_position(rng, bounds) for _ in range(25_000)])
    assert draws.shape == (25_000, 4)
    assert np.all(np.abs(draws.mean(axis=0)) < 0.02)
    assert draws.min() >= -1.0 and draws.max() <= 1.0


def test_init_position_same_seed_identical():
    bounds = SearchBounds(-3.0, 3.0, 6)
    a = init_position(RngStream(42), bounds)
    b = init_position(RngStream(42), bounds)
    np.testing.assert_array_equal(a, b)


def test_rng_stream_determinism():
    a = RngStream(2024)
    b = RngStream(2024)
    np.testing.assert_array_equal(a.standard_gaussian(50), b.standard_gaussian(50))
    np.testing.assert_array_equal(a.uniform(0, 1, 50), b.uniform(0, 1, 50))
    assert [a.integer(100) for _ in range(20)] == [b.integer(100) for _ in range(20)]
    c = RngStream(2025)
    assert not np.array_equal(RngStream(2024).standard_gaussian(50), c.standard_gaussian(50))


def test_rng_tuple_seed_distinct_from_int_seed():
    assert not np.array_equal(RngStream((1, 2)).standard_gaussian(10),
                              RngStream(1).standard_gaussian(10))


def test_eval_count_increments_by_one_per_evaluation():
    problem = make_problem("f1", 3)
    rng = RngStream(0)
    for k in range(1, 26):
        problem.evaluate(init_position(rng, problem.bounds))
        assert problem.eval_count == k
    # Each run builds its own problem, whose counter starts at zero.
    assert make_problem("f1", 3).eval_count == 0


def test_problem_rejects_dimension_mismatch():
    problem = make_problem("f1", 3)
    with pytest.raises(ValueError):
        problem.evaluate(np.zeros(4))


def test_problem_rotation_consistency_checks():
    with pytest.raises(ValueError):
        ObjectiveProblem("f13", SearchBounds(-500, 500, 3), lambda x, r: 0.0, rotation=None)
    with pytest.raises(ValueError):
        ObjectiveProblem("f1", SearchBounds(-500, 500, 3), lambda x, r: 0.0,
                         rotation=np.eye(3))
    skewed = np.eye(3)
    skewed[0, 1] = 1e-3
    with pytest.raises(ValueError):
        ObjectiveProblem("f13", SearchBounds(-500, 500, 3), lambda x, r: 0.0, rotation=skewed)
