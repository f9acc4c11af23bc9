import numpy as np
import pytest

from ansearch.benchmarks import (FUNCTION_IDS, ROTATION_BASE, SPECS, _penalty_sum, ackley,
                                 griewank, load_rotation_matrix, make_problem,
                                 make_rotation_matrix, noise_quadric, optimum_point,
                                 rastrigin, rosenbrock, save_rotation_matrix,
                                 schwefel_2_21, schwefel_2_22, step, default_suite)
from ansearch.core import RngStream

# Search ranges as published, one entry per function.
EXPECTED_RANGES = {
    "f1": (-500.0, 500.0), "f2": (-2.048, 2.048), "f3": (-10.0, 10.0),
    "f4": (-10.0, 10.0), "f5": (-100.0, 100.0), "f6": (-2.048, 2.048),
    "f7": (-5.12, 5.12), "f8": (-600.0, 600.0), "f9": (-32.0, 32.0),
    "f10": (-600.0, 600.0), "f11": (-50.0, 50.0), "f12": (-50.0, 50.0),
    "f13": (-500.0, 500.0), "f14": (-2.048, 2.048), "f15": (-10.0, 10.0),
    "f16": (-5.12, 5.12), "f17": (-32.0, 32.0), "f18": (-600.0, 600.0),
}

NON_NEGATIVE_IDS = ["f1", "f3", "f4", "f5", "f7", "f8", "f9", "f10",
                    "f13", "f15", "f16", "f17", "f18"]


def build(fid, dim, seed=7, **kw):
    spec = SPECS[fid]
    if spec.is_rotated:
        return make_problem(fid, dim, rotation_seed=seed, **kw)
    return make_problem(fid, dim, **kw)


def test_suite_covers_all_18_functions_with_published_ranges():
    specs = default_suite()
    assert [s.id for s in specs] == list(FUNCTION_IDS)
    for s in specs:
        assert (s.lo, s.hi) == EXPECTED_RANGES[s.id]
        assert s.is_noisy == (s.id == "f6")
        assert s.is_rotated == (s.id in ROTATION_BASE)
        assert s.base_id == ROTATION_BASE.get(s.id)


def test_optimum_certificates_all_functions():
    for fid in FUNCTION_IDS:
        problem = build(fid, 10)
        x = optimum_point(fid, 10, problem.rotation)
        if fid == "f6":
            value = noise_quadric(x)  # deterministic part; the noise is additive
        else:
            value = problem.evaluate(x, RngStream(0))
        assert abs(value) <= 1e-12, f"{fid} at its optimum gives {value}"


def test_sphere_and_rosenbrock_hand_values():
    assert make_problem("f1", 3).evaluate(np.array([1.0, -2.0, 3.0])) == 14.0
    assert rosenbrock(np.array([1.0, 2.0, 3.0])) == 201.0
    assert rosenbrock(np.ones(5)) == 0.0


def test_schwefel_hand_values():
    assert schwefel_2_21(np.array([-3.0, 2.0])) == 3.0
    assert schwefel_2_22(np.array([-1.0, 2.0, -3.0])) == 12.0


def test_step_function_zero_plateau_and_floor():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.5, 0.4999, (200, 6))
    for p in pts:
        assert step(p) == 0.0
    assert step(np.array([-0.5])) == 0.0      # floor(0.0) = 0
    assert step(np.array([0.5])) == 1.0       # floor(1.0) = 1
    assert step(np.array([-0.51])) == 1.0     # floor(-0.01 ...) = -1


def test_rastrigin_hand_value():
    # 0.25 - 10 cos(pi) + 10 = 20.25; the zero coordinate contributes 0.
    assert abs(rastrigin(np.array([0.5, 0.0])) - 20.25) < 1e-12


def test_noncontinuous_rastrigin_snapping():
    f8 = make_problem("f8", 2)
    # |x| < 0.5 passes through; beyond that x snaps to halves, rounding
    # half-away-from-zero: 0.6 -> 0.5, -0.75 -> -1.0.
    assert f8.evaluate(np.array([0.4, 0.0])) == rastrigin(np.array([0.4, 0.0]))
    assert f8.evaluate(np.array([0.6, 0.0])) == rastrigin(np.array([0.5, 0.0]))
    assert f8.evaluate(np.array([-0.75, 0.0])) == rastrigin(np.array([-1.0, 0.0]))


def test_ackley_zero_and_symmetry():
    assert abs(ackley(np.zeros(30))) <= 1e-12
    x = np.array([1.0, -2.0, 0.5])
    assert ackley(x) == ackley(-x)


def test_griewank_matches_direct_formula():
    x = np.array([3.0, -4.0, 5.0])
    direct = (np.sum(x ** 2) / 4000.0 + 1.0
              - np.cos(3.0 / np.sqrt(1)) * np.cos(-4.0 / np.sqrt(2)) * np.cos(5.0 / np.sqrt(3)))
    assert abs(griewank(x) - direct) < 1e-14


def test_penalty_u_cases():
    assert _penalty_sum(np.array([5.0]), 10.0, 100.0, 4.0) == 0.0
    assert _penalty_sum(np.array([11.0]), 10.0, 100.0, 4.0) == 100.0
    assert _penalty_sum(np.array([-12.0]), 10.0, 100.0, 4.0) == 1600.0


def test_penalized_certificates():
    assert abs(make_problem("f11", 12).evaluate(-np.ones(12))) <= 1e-12
    assert abs(make_problem("f12", 12).evaluate(np.ones(12))) <= 1e-12
    # Outside the dead zone the boundary penalty dominates.
    assert make_problem("f11", 4).evaluate(np.full(4, 12.0)) > 100.0


def test_noise_quadric_bounds_and_determinism():
    x = np.array([0.5, -0.5, 1.0])
    base = noise_quadric(x)
    rng = RngStream(11)
    for _ in range(200):
        noisy = noise_quadric(x, rng)
        assert 0.0 <= noisy - base < 1.0
    a = noise_quadric(x, RngStream(4))
    b = noise_quadric(x, RngStream(4))
    assert a == b


def test_non_negative_functions_on_random_points():
    rng = np.random.default_rng(17)
    for fid in NON_NEGATIVE_IDS:
        problem = build(fid, 8)
        lo, hi = problem.bounds.lo, problem.bounds.hi
        for _ in range(200):
            x = rng.uniform(lo, hi, 8)
            assert problem.evaluate(x, RngStream(0)) >= 0.0, fid


def test_rotation_matrix_orthogonality_and_determinism():
    for dim in (2, 30):
        rm = make_rotation_matrix(dim, seed=5)
        err = np.max(np.abs(rm.matrix.T @ rm.matrix - np.eye(dim)))
        assert err < 1e-10
        assert abs(abs(np.linalg.det(rm.matrix)) - 1.0) < 1e-8
    again = make_rotation_matrix(30, seed=5)
    np.testing.assert_array_equal(make_rotation_matrix(30, seed=5).matrix, again.matrix)
    assert not np.array_equal(make_rotation_matrix(30, seed=6).matrix, again.matrix)


def test_rotation_matrix_one_dimensional():
    rm = make_rotation_matrix(1, seed=9)
    assert rm.matrix.shape == (1, 1)
    assert abs(abs(rm.matrix[0, 0]) - 1.0) < 1e-15


def test_rotation_matrix_round_trip(tmp_path):
    rm = make_rotation_matrix(7, seed=123)
    path = tmp_path / "rot.txt"
    save_rotation_matrix(path, rm)
    loaded = load_rotation_matrix(path)
    assert loaded.dim == 7 and loaded.seed == 123
    np.testing.assert_array_equal(loaded.matrix, rm.matrix)


def test_rotated_equals_base_at_rotated_point():
    rng = np.random.default_rng(2)
    for fid in ("f13", "f16", "f17", "f18"):
        problem = build(fid, 6, seed=31)
        base = make_problem(SPECS[fid].base_id, 6)
        for _ in range(25):
            x = rng.uniform(problem.bounds.lo, problem.bounds.hi, 6)
            assert problem.evaluate(x) == base.evaluate(problem.rotation @ x)


def test_rotated_optimum_preimage():
    for fid in ROTATION_BASE:
        problem = build(fid, 12, seed=77)
        x = optimum_point(fid, 12, problem.rotation)
        assert abs(problem.evaluate(x)) <= 1e-12


def test_make_problem_validation():
    with pytest.raises(ValueError):
        make_problem("f99", 5)
    with pytest.raises(ValueError):
        make_problem("f13", 5)  # rotation missing
    rm = make_rotation_matrix(4, seed=1)
    with pytest.raises(ValueError):
        make_problem("f13", 5, rotation=rm)  # dimension mismatch


def test_f8_range_default_and_override():
    assert make_problem("f8", 5).bounds.lo == -600.0
    narrow = make_problem("f8", 5, f8_narrow_range=True)
    assert (narrow.bounds.lo, narrow.bounds.hi) == (-5.12, 5.12)
