from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import count_evaluations, predrawn

from ansearch.baselines import DeParams, PsoParams, SwarmState, de_step, pso_step
from ansearch.benchmarks import make_problem, make_rotation_matrix
from ansearch.core import ObjectiveProblem, RngStream, SearchBounds
from ansearch import engine
from ansearch.engine import (SUCCESS_THRESHOLD, AnsParams, PopulationState, _ans_draws,
                             borrow_indices, draw_blocks, init_population, run, run_loop, step,
                             update_position)

WIDE = SearchBounds(-1e9, 1e9, 2)


def make_params(**kw):
    defaults = dict(population_size=20, across_degree=1, sigma=0.5, max_evals=10_000)
    defaults.update(kw)
    return AnsParams(**defaults)


def test_params_validation():
    with pytest.raises(ValueError):
        make_params(population_size=0)
    with pytest.raises(ValueError):
        make_params(sigma=0.0)
    # An infinite sigma would turn a zero distance into inf * 0 = NaN.
    for sigma in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            make_params(sigma=sigma)
    with pytest.raises(ValueError):
        make_params(across_degree=-1)
    # A lone individual has no peer to borrow from.
    with pytest.raises(ValueError):
        make_params(population_size=1, across_degree=1)
    make_params(population_size=1, across_degree=0)
    # The superior pool is always one memory per individual: no separate
    # superior_count parameter exists.
    with pytest.raises(TypeError):
        AnsParams(population_size=20, superior_count=10)


# ---------------------------------------------------------------------------
# Dimension and peer selection, seen through update_position
# ---------------------------------------------------------------------------

def ans_draws(rngs, size, dim, degree):
    """One ANS generation's draws of every run, individual-major."""
    return draw_blocks(rngs, lambda rng: _ans_draws(rng, size, dim, degree))


def update_drawn(positions, superiors, self_index, params, rngs, bounds):
    """Individual ``self_index``'s update in every run, with one generation's
    draws from ``rngs``."""
    runs, size, dim = superiors.shape
    dims, peers, gauss = ans_draws(rngs, size, dim, params.across_degree)
    borrow = borrow_indices(dims[self_index], peers[self_index], superiors.shape)
    return update_position(positions, superiors, self_index, borrow,
                           params.sigma * gauss[self_index], bounds)


def across_dims(rngs, dim, degree):
    """(R, D) mask of the across-search dimensions each run picks: own
    superiors and positions are 0 and every peer superior is 1, so exactly
    the borrowed coordinates come out non-zero."""
    superiors = np.zeros((len(rngs), 3, dim))
    superiors[:, 1:] = 1.0
    params = make_params(population_size=3, across_degree=degree)
    new = update_drawn(np.zeros((len(rngs), dim)), superiors, 0, params, rngs,
                       SearchBounds(-1e9, 1e9, dim))
    return new != 0.0


def streams(seed, runs):
    return [RngStream((seed, r)) for r in range(runs)]


def test_select_across_dimensions_edges():
    assert not across_dims(streams(1, 10), 5, 0).any()
    assert across_dims(streams(1, 10), 5, 5).all()
    with pytest.raises(ValueError):
        run(make_problem("f1", 5), make_params(across_degree=6), [1])


def test_select_across_dimensions_uniform_single():
    counts = np.zeros(30)
    trials = 100_000
    rngs = streams(8, 100)
    for _ in range(trials // len(rngs)):
        counts += across_dims(rngs, 30, 1).sum(axis=0)
    assert counts.sum() == trials
    assert np.all(np.abs(counts / trials - 1.0 / 30.0) < 0.005)


def test_select_across_dimensions_distinct():
    rngs = streams(9, 10)
    for _ in range(30):
        assert np.all(across_dims(rngs, 12, 5).sum(axis=1) == 5)


def test_select_peer_superior():
    # Superior j holds the value j in its one coordinate and the position
    # sits on the individual's own superior, so with a tiny sigma the new
    # position rounds to the peer that was read.
    def peers(count, self_index, rngs):
        superiors = np.tile(np.arange(count, dtype=float)[:, None], (len(rngs), 1, 1))
        params = make_params(population_size=count, across_degree=1, sigma=1e-9)
        new = update_drawn(np.full((len(rngs), 1), float(self_index)), superiors,
                           self_index, params, rngs, SearchBounds(-1e9, 1e9, 1))
        return np.rint(new[:, 0]).astype(int)

    with pytest.raises(ValueError):
        peers(1, 0, streams(3, 1))
    assert np.all(peers(2, 0, streams(3, 50)) == 1)
    trials = 100_000
    counts = np.zeros(20)
    rngs = streams(3, 100)
    for _ in range(trials // len(rngs)):
        counts += np.bincount(peers(20, 4, rngs), minlength=20)
    assert counts[4] == 0
    others = np.delete(counts, 4) / trials
    assert np.all(np.abs(others - 1.0 / 19.0) < 0.005)


@given(size=st.integers(2, 40), dim=st.integers(1, 40), degree=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
def test_ans_draws_distinct_dimensions_and_peers_past_self(size, dim, degree, seed):
    degree = min(degree, dim)
    dims, peers, gauss = _ans_draws(RngStream(seed), size, dim, degree)
    assert dims.shape == peers.shape == (size, degree) and gauss.shape == (size, dim)
    assert np.all((dims >= 0) & (dims < dim))
    assert all(len(set(row)) == degree for row in dims.tolist())
    assert np.all((peers >= 0) & (peers < size))
    assert np.all(peers != np.arange(size)[:, None])


# ---------------------------------------------------------------------------
# Position update rule
# ---------------------------------------------------------------------------

def update_one(position, superiors, self_index, params, rng, bounds):
    """One run's update: a 1-run batch of ``update_drawn``."""
    return update_drawn(position[None], superiors[None], self_index, params, [rng], bounds)[0]


NO_DIMS = np.empty((1, 0), dtype=np.intp)


def test_update_position_across_dimension_with_zero_gaussian():
    # Selected dimension reads the peer superior, the other keeps its own;
    # a zero Gaussian lands exactly on the superior values.  Two runs with
    # the same pool pick different dimensions.
    superiors = np.stack([[[2.0, 2.0], [4.0, 0.0]]] * 2)
    borrow = borrow_indices(np.array([[0], [1]]), np.array([[1], [1]]), superiors.shape)
    new = update_position(np.zeros((2, 2)), superiors, 0, borrow, np.zeros((2, 2)), WIDE)
    np.testing.assert_array_equal(new, np.array([[4.0, 2.0], [2.0, 0.0]]))


def test_update_position_own_neighbourhood_with_unit_gaussian():
    superiors = np.array([[2.0, 2.0], [9.0, 9.0]])
    new = update_position(np.zeros((1, 2)), superiors[None], 0, (NO_DIMS, NO_DIMS),
                          np.ones((1, 2)), WIDE)   # sigma 1, a unit Gaussian
    np.testing.assert_array_equal(new, np.array([[4.0, 4.0]]))


def test_update_position_fixed_point_when_position_equals_superior():
    pos = np.array([1.5, -2.5])
    superiors = np.vstack([pos, [7.0, 7.0]])
    params = make_params(population_size=2, across_degree=0, sigma=3.0)
    rng = RngStream(5)
    for _ in range(25):
        np.testing.assert_array_equal(update_one(pos, superiors, 0, params, rng, WIDE), pos)


def test_update_position_scale_fixed_point_per_dimension():
    # If a coordinate agrees across position, own superior and every peer
    # superior, no update can move it, whatever sigma.
    superiors = np.array([[3.0, 1.0], [3.0, 5.0], [3.0, -2.0]])
    pos = np.array([3.0, 0.0])
    params = make_params(population_size=3, across_degree=2, sigma=8.0)
    rng = RngStream(17)
    for _ in range(50):
        assert update_one(pos, superiors, 0, params, rng, WIDE)[0] == 3.0


def test_update_position_n0_matches_direct_rule_and_reads_no_peers():
    pos = np.array([0.5, -1.0, 2.0])
    own = np.array([1.0, 1.0, 1.0])
    superiors = np.vstack([own, np.full(3, np.nan)])  # a peer read would poison the result
    params = AnsParams(population_size=2, across_degree=0, sigma=0.5, max_evals=10)
    bounds = SearchBounds(-1e9, 1e9, 3)
    new = update_one(pos, superiors, 0, params, RngStream(21), bounds)
    gauss = RngStream(21).standard_gaussian((2, 3))[0]  # same stream replayed: row 0 of the block
    np.testing.assert_array_equal(new, own + 0.5 * gauss * np.abs(own - pos))


def test_update_position_full_degree_never_reads_own_superior():
    superiors = np.array([[np.nan, np.nan], [1.0, 2.0], [3.0, 4.0]])
    params = make_params(population_size=3, across_degree=2)
    for seed in range(40):
        new = update_one(np.zeros(2), superiors, 0, params, RngStream(seed), WIDE)
        assert np.all(np.isfinite(new))


def test_update_position_clamps_to_bounds():
    bounds = SearchBounds(-1.0, 1.0, 2)
    superiors = np.array([[0.9, -0.9], [0.5, 0.5]])
    params = make_params(population_size=2, across_degree=0, sigma=5.0)
    rng = RngStream(2)
    for _ in range(50):
        new = update_one(np.array([-0.9, 0.9]), superiors, 0, params, rng, bounds)
        assert new.min() >= -1.0 and new.max() <= 1.0


def test_update_position_search_band_coverage():
    # Pre-clamp, a coordinate lands within one position-to-superior distance
    # of the superior with probability ~0.9544 at sigma = 0.5.
    dim = 200_000
    rng = RngStream(77)
    pos = rng.uniform(-5.0, 5.0, dim)
    own = rng.uniform(-5.0, 5.0, dim)
    superiors = np.vstack([own, np.zeros(dim)])
    params = AnsParams(population_size=2, across_degree=0, sigma=0.5, max_evals=10)
    new = update_one(pos, superiors, 0, params, rng,
                     SearchBounds(-1e12, 1e12, dim, boundary="none"))
    width = np.abs(own - pos)
    inside = np.mean(np.abs(new - own) <= width)
    assert abs(inside - 0.9544) < 0.01


# ---------------------------------------------------------------------------
# Superior update
# ---------------------------------------------------------------------------

def test_update_superior_improvement_tie_and_worse(monkeypatch):
    # 1-D sphere, no peer borrowing, sigma 1 and a Gaussian of -1: each
    # individual moves to s - |s - x|.  Individual 0 improves (1.75 -> 0.25,
    # fitness 0.0625 < 1), individual 1 ties (3 -> -1, fitness 1 == 1) and
    # individual 2 gets worse (2 -> -1, fitness 1 > 0.25).
    problem = make_problem("f1", 1)
    params = AnsParams(population_size=3, across_degree=0, sigma=1.0, max_evals=100)
    state = PopulationState(
        positions=np.array([[[1.75], [3.0], [2.0]]]),
        superiors=np.array([[[1.0], [1.0], [0.5]]]),
        superior_fitness=np.array([[1.0, 1.0, 0.25]]),
        best=np.array([[0.5]]), best_fitness=np.array([0.25]))
    none = np.empty((3, 1, 0), dtype=np.intp)   # individual-major: (m, R, k)
    predrawn(monkeypatch, engine, none, none, np.full((3, 1, 1), -1.0))
    step(state, problem, params, [RngStream(0)])

    # The position always follows the new point.
    np.testing.assert_array_equal(state.positions[0], [[0.25], [-1.0], [-1.0]])
    # Improvement adopts the new point; a tie or a worse point keeps the incumbent.
    np.testing.assert_array_equal(state.superiors[0], [[0.25], [1.0], [0.5]])
    np.testing.assert_array_equal(state.superior_fitness[0], [0.0625, 1.0, 0.25])
    np.testing.assert_array_equal(state.best, [[0.25]])
    np.testing.assert_array_equal(state.best_fitness, [0.0625])


# ---------------------------------------------------------------------------
# Generation step and full runs
# ---------------------------------------------------------------------------

def manual_state(positions, fitnesses):
    """A 1-run state whose superiors are its positions."""
    positions = np.array([positions], dtype=float)
    fitnesses = np.array([fitnesses], dtype=float)
    best = int(np.argmin(fitnesses[0]))
    return PopulationState(
        positions=positions.copy(),
        superiors=positions.copy(), superior_fitness=fitnesses.copy(),
        best=positions[:, best].copy(), best_fitness=fitnesses[:, best].copy())


def test_step_live_superior_reads_within_sweep(monkeypatch):
    # Individual 1 updates after individual 0 and immediately sees 0's
    # refreshed superior; freezing the pool reproduces the sweep-start value.
    problem = make_problem("f1", 1)
    # Individual-major blocks of one run: dimension 0, the other individual
    # as peer, a Gaussian of -1.
    predrawn(monkeypatch, engine, [[[0]], [[0]]], [[[1]], [[0]]], np.full((2, 1, 1), -1.0))
    params = AnsParams(population_size=2, across_degree=1, sigma=0.5, max_evals=100)

    state = manual_state([[4.0], [1.0]], [16.0, 1.0])
    step(state, problem, params, [RngStream(0)])
    # indiv 0: peer=1 -> 1 + (-0.5)*|1-4| = -0.5, fitness 0.25, becomes its superior
    # indiv 1: peer=0 live -> -0.5 + (-0.5)*|-0.5-1| = -1.25
    np.testing.assert_allclose(state.positions[0], [[-0.5], [-1.25]])
    np.testing.assert_allclose(state.superiors[0], [[-0.5], [1.0]])
    assert state.best_fitness[0] == 0.25

    frozen_params = AnsParams(population_size=2, across_degree=1, sigma=0.5,
                              max_evals=100, frozen_superiors=True)
    state = manual_state([[4.0], [1.0]], [16.0, 1.0])
    step(state, make_problem("f1", 1), frozen_params, [RngStream(0)])
    # indiv 1 now reads 0's sweep-start superior: 4 + (-0.5)*|4-1| = 2.5
    np.testing.assert_allclose(state.positions[0], [[-0.5], [2.5]])


def test_step_consumes_population_size_evaluations():
    # Two runs: each run's sweep is one evaluation per individual, and the
    # problem counts the points of both.
    problem = make_problem("f7", 3)
    counter = count_evaluations(problem)
    params = make_params(max_evals=10_000)
    state = run_initial(problem, params, seeds=[3, 5])
    before = counter.rows
    step(state, problem, params, [RngStream(4), RngStream(6)])
    assert counter.rows - before == 2 * params.population_size
    assert 2 * state.evals_used == counter.rows


def run_initial(problem, params, seeds):
    return init_population(problem, PopulationState, params.population_size,
                           params.max_evals, [RngStream(seed) for seed in seeds])


def test_step_global_best_monotone_and_consistent():
    problem = make_problem("f7", 5)
    params = make_params(max_evals=50_000)
    state = run_initial(problem, params, seeds=[11, 13])
    rngs = [RngStream(12), RngStream(14)]
    last = state.best_fitness.copy()
    for _ in range(60):
        step(state, problem, params, rngs)
        assert np.all(state.best_fitness <= last)
        np.testing.assert_array_equal(state.best_fitness, state.superior_fitness.min(axis=1))
        last = state.best_fitness.copy()
        assert np.all(state.superior_fitness <= np.inf)


def test_step_superior_fitness_never_increases():
    problem = make_problem("f9", 4)
    params = make_params(max_evals=50_000)
    state = run_initial(problem, params, seeds=[21, 23])
    rngs = [RngStream(22), RngStream(24)]
    for _ in range(40):
        before = state.superior_fitness.copy()
        step(state, problem, params, rngs)
        assert np.all(state.superior_fitness <= before)


def test_step_stops_cleanly_on_budget():
    problem = make_problem("f1", 3)
    counter = count_evaluations(problem)
    params = make_params(max_evals=50)  # 20 init + 20 + 10: second sweep is partial
    state = run_initial(problem, params, seeds=[2, 4])
    rngs = [RngStream(3), RngStream(5)]
    step(state, problem, params, rngs)
    assert state.evals_used == 40
    step(state, problem, params, rngs)
    assert state.evals_used == 50
    assert counter.rows == 2 * 50


def test_improvement_liveness_on_sphere():
    # Seeded 2-D sphere runs should strictly improve the global best within
    # five generations nearly always.
    params = make_params(max_evals=20 * 6)
    results = run(make_problem("f1", 2), params, list(range(100))).runs
    improved = sum(any(fit < result.history[0][1] for _, fit in result.history[1:6])
                   for result in results)
    assert improved >= 95


def run_one(problem, params, seed, **kw):
    """One run: a 1-seed batch."""
    return run(problem, params, [seed], **kw).runs[0]


def test_run_budget_of_initial_population_only():
    params = make_params(max_evals=20)
    problem = make_problem("f1", 4)
    result = run_one(problem, params, seed=91)
    # Replay the initialization block: the result is the best initial sample.
    points = RngStream(91).uniform(problem.bounds.lo, problem.bounds.hi, (20, 4))
    assert result.best_fitness == problem.evaluate(points).min()
    assert result.evals_used == 20
    assert result.generations == 0


def test_run_is_deterministic():
    params = make_params(max_evals=2_000)
    a = run_one(make_problem("f7", 4), params, seed=500)
    b = run_one(make_problem("f7", 4), params, seed=500)
    assert a.best_fitness == b.best_fitness
    np.testing.assert_array_equal(a.best_position, b.best_position)
    assert a.history == b.history
    assert a.evals_to_success == b.evals_to_success
    c = run_one(make_problem("f7", 4), params, seed=501)
    assert c.history != a.history


def test_run_history_monotone_and_budget_honest():
    params = make_params(max_evals=3_000)
    result = run_one(make_problem("f9", 6), params, seed=13)
    fits = [fit for _, fit in result.history]
    assert all(b <= a for a, b in zip(fits, fits[1:]))
    assert result.evals_used <= params.max_evals
    evals = [e for e, _ in result.history]
    assert evals == sorted(evals)
    if result.evals_to_success is not None:
        assert result.evals_to_success <= result.evals_used


def test_run_max_generations_termination():
    params = make_params(max_evals=20 * 8)
    result = run_one(make_problem("f1", 3), params, seed=1)
    assert result.generations == 7
    assert result.evals_used == 20 * 8  # init + 7 sweeps


def test_run_snapshots_captured_at_requested_generations():
    params = make_params(max_evals=20 * 11)
    wanted = {0, 3, 10, 99}
    snapshots = []

    def capture(state):
        if state.generation in wanted:
            snapshots.append((state.generation, state.positions[0].copy(),
                              state.superiors[0].copy()))

    result = run_one(make_problem("f7", 2), params, seed=6, on_generation=capture)
    gens = [gen for gen, _, _ in snapshots]
    assert gens == [0, 3, 10]  # 99 is beyond termination
    for _, positions, superiors in snapshots:
        assert positions.shape == (20, 2)
        assert superiors.shape == (20, 2)
    init_best = result.history[0][1]
    assert np.min([result.history[g][1] for g in (3, 10)]) <= init_best


def test_run_rejects_bad_inputs():
    params = make_params(across_degree=10)
    with pytest.raises(ValueError):
        run_one(make_problem("f1", 4), params, seed=0)
    with pytest.raises(ValueError):
        run(make_problem("f1", 4), make_params(), [])  # no runs
    # The boundary policy is part of the problem.
    with pytest.raises(ValueError):
        make_problem("f1", 4, boundary="reflect")


def test_run_success_bookkeeping_matches_threshold():
    params = make_params(max_evals=6_000)
    problem = make_problem("f1", 2)
    result = run_one(problem, params, seed=40)
    assert result.evals_to_success is not None
    # The best fitness at the success point was already below the threshold.
    crossing = [fit for evals, fit in result.history if evals >= result.evals_to_success]
    assert crossing and crossing[0] < 1e-5


# ---------------------------------------------------------------------------
# NaN fitness: never adopted by any memory
# ---------------------------------------------------------------------------

def sphere_with_nans(nan_calls, dim=3):
    """A sphere whose evaluation calls numbered in ``nan_calls`` (from 1)
    return NaN for every row; ``None`` makes every call NaN."""
    calls = []

    def evaluator(x):
        calls.append(x)
        fit = np.sum(x * x, axis=-1)
        return np.full_like(fit, np.nan) if nan_calls is None or len(calls) in nan_calls else fit

    return ObjectiveProblem("nan_sphere", SearchBounds(-5.0, 5.0, dim), evaluator)


def watch_superiors(problem, params, size, state_cls, step_fn, seeds=(7,)):
    """The batch of a run_loop call, and a copy of the superior fitness it
    had at each generation."""
    seen = []
    batch = run_loop(problem, params, list(seeds), size, state_cls, step_fn,
                     on_generation=lambda state: seen.append(state.superior_fitness.copy()))
    return batch, seen


def test_nan_first_evaluation_does_not_pin_the_best():
    # This run's first evaluation used to become its best: best_fitness and
    # every history entry were NaN for all 200 evaluations.
    params = make_params(population_size=5, max_evals=200)
    batch, seen = watch_superiors(sphere_with_nans({1}), params, 5, PopulationState, step)
    result = batch.runs[0]
    assert np.isfinite(result.best_fitness)
    assert all(np.isfinite(fit) for _, fit in result.history)
    # Individual 0's NaN left its superior fitness at +inf; the others were adopted.
    assert seen[0][0, 0] == np.inf and np.all(np.isfinite(seen[0][0, 1:]))
    assert result.history[0][1] == seen[0][0, 1:].min()


def test_nan_initial_evaluation_does_not_pin_a_superior():
    # Individual 1's superior fitness used to stay NaN for the whole run.
    params = make_params(population_size=5, max_evals=2_000)
    _, seen = watch_superiors(sphere_with_nans({2}), params, 5, PopulationState, step)
    assert seen[0][0, 1] == np.inf
    assert np.all(np.isfinite(seen[-1]))


@pytest.mark.parametrize("alg", ["ans", "pso", "de"])
def test_all_nan_objective_adopts_nothing(alg):
    state_cls, step_fn, params = {
        "ans": (PopulationState, step, make_params(population_size=5, max_evals=60)),
        "pso": (SwarmState, pso_step, PsoParams(swarm_size=5, max_evals=60)),
        "de": (PopulationState, de_step, DeParams(pop_size=5, max_evals=60)),
    }[alg]
    batch, seen = watch_superiors(sphere_with_nans(None), params, 5, state_cls, step_fn,
                              seeds=(1, 2))
    for result in batch.runs:
        assert result.best_fitness == np.inf
        assert np.all(np.isnan(result.best_position))
        assert result.evals_to_success is None
        assert [fit for _, fit in result.history] == [np.inf] * len(result.history)
    assert all(np.all(fitness == np.inf) for fitness in seen)


# ---------------------------------------------------------------------------
# Initialization is generation 0 of the sweep
# ---------------------------------------------------------------------------

def loop_initializer(problem, size, max_evals, rngs):
    """Oracle: the initializer as its own loop, in stream version 2's order.
    Each run draws all its points first, as one block, also past the
    budget; evaluation (and f6's noise draw) stops once ``max_evals`` is
    used; each evaluated fitness is written as its individual's superior
    fitness, and a run's first evaluation is its best."""
    runs, dim = len(rngs), problem.bounds.dim
    positions = np.array([rng.uniform(problem.bounds.lo, problem.bounds.hi, (size, dim))
                          for rng in rngs])
    superior_fitness = np.full((runs, size), np.inf)
    best = best_fitness = None
    evals_to_success = np.zeros(runs, dtype=np.int64)
    evals_used = 0
    for i in range(size):
        if evals_used < max_evals:
            x = positions[:, i]
            fit = problem.evaluate(x)
            if problem.noisy:   # f6: one scalar draw per run per evaluation
                fit = fit + np.array([rng.uniform(0.0, 1.0) for rng in rngs])
            evals_used += 1
            np.copyto(evals_to_success, evals_used,
                      where=(fit < SUCCESS_THRESHOLD) & (evals_to_success == 0))
            if best is None:
                best, best_fitness = x.copy(), fit.copy()
            else:
                better = fit < best_fitness
                np.copyto(best, x, where=better[:, None])
                np.copyto(best_fitness, fit, where=better)
            superior_fitness[:, i] = fit
    return dict(positions=positions, superiors=positions.copy(),
                superior_fitness=superior_fitness, best=best, best_fitness=best_fitness,
                evals_to_success=evals_to_success, evals_used=evals_used)


def bits(array):
    return np.ascontiguousarray(array).tobytes()


@given(fid=st.sampled_from(["f1", "f6", "f11", "f13"]), runs=st.sampled_from([1, 3]),
       size=st.integers(1, 12), dim=st.integers(1, 6), budget=st.integers(1, 30),
       seed=st.integers(0, 2**32 - 1))
def test_init_population_matches_loop_oracle(fid, runs, size, dim, budget, seed):
    rotation = make_rotation_matrix(dim, seed) if fid == "f13" else None
    problem = make_problem(fid, dim, rotation=rotation)
    oracle_rngs = [RngStream((seed, r)) for r in range(runs)]
    rngs = [RngStream((seed, r)) for r in range(runs)]
    want = loop_initializer(problem, size, budget, oracle_rngs)
    state = init_population(problem, PopulationState, size, budget, rngs)

    assert state.evals_used == want["evals_used"] == min(budget, size)
    assert state.generation == 0
    for name in ("best", "best_fitness", "evals_to_success"):
        assert bits(getattr(state, name)) == bits(want[name]), name
    done = min(budget, size)
    for name in ("positions", "superiors", "superior_fitness"):
        assert bits(getattr(state, name)[:, :done]) == bits(want[name][:, :done]), name
    # The streams are where the oracle left them.
    for rng, oracle_rng in zip(rngs, oracle_rngs):
        assert rng.generator.bit_generator.state == oracle_rng.generator.bit_generator.state
    if budget < size:
        # Individuals the budget never reaches never try their point.
        assert np.all(np.isnan(state.positions[:, done:]))
        assert np.all(np.isnan(state.superiors[:, done:]))
        assert np.all(state.superior_fitness[:, done:] == np.inf)
    assert state.superiors is not state.positions


def per_evaluation_noise(problem, rngs):
    """Oracle: f6 with its noise drawn inside the evaluation, one scalar per
    run per evaluation from ``rngs``, after the generation's blocks."""
    def function(x):
        return problem.evaluate(x) + np.array([rng.uniform(0.0, 1.0) for rng in rngs])
    return replace(problem, function=function, noisy=False)


@pytest.mark.parametrize("alg", ["ans", "pso", "de"])
def test_f6_step_noise_matches_per_evaluation_draws(alg):
    # Initialization, one full step and the first 3 individuals of the next:
    # the budget ends mid-sweep, so a sweep that drew noise for all m
    # individuals would leave its streams past the oracle's.
    size = 6
    state_cls, step_fn, params = {
        "ans": (PopulationState, step, make_params(population_size=size, max_evals=2 * size + 3)),
        "pso": (SwarmState, pso_step, PsoParams(swarm_size=size, max_evals=2 * size + 3)),
        "de": (PopulationState, de_step, DeParams(pop_size=size, max_evals=2 * size + 3)),
    }[alg]
    problem = make_problem("f6", 4)
    rngs = [RngStream((61, r)) for r in range(3)]
    oracle_rngs = [RngStream((61, r)) for r in range(3)]
    oracle = per_evaluation_noise(problem, oracle_rngs)
    state = init_population(problem, state_cls, size, params.max_evals, rngs)
    want = init_population(oracle, state_cls, size, params.max_evals, oracle_rngs)
    for _ in range(2):
        step_fn(state, problem, params, rngs)
        step_fn(want, oracle, params, oracle_rngs)

    assert state.evals_used == want.evals_used == params.max_evals
    for name in ("positions", "superiors", "superior_fitness", "best", "best_fitness",
                 "evals_to_success") + (("velocities",) if alg == "pso" else ()):
        assert bits(getattr(state, name)) == bits(getattr(want, name)), name
    for rng, oracle_rng in zip(rngs, oracle_rngs):
        assert rng.generator.bit_generator.state == oracle_rng.generator.bit_generator.state
