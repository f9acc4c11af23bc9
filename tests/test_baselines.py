import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import count_evaluations, predrawn, sequential_sweeps

from ansearch import baselines
from ansearch.baselines import (DeParams, PsoParams, SwarmState, _de_draws, _distinct_peers,
                                de_run, de_step, pso_run, pso_step)
from ansearch.benchmarks import make_problem
from ansearch.core import ObjectiveProblem, RngStream, SearchBounds
from ansearch.engine import PopulationState, init_population


def test_param_validation():
    with pytest.raises(ValueError):
        PsoParams(swarm_size=1)
    with pytest.raises(ValueError):
        PsoParams(inertia=float("nan"))
    # A negative cap made np.clip(v, 1, -1) pin every velocity to -1.
    for v_max in (-1.0, 0.0, float("nan")):
        with pytest.raises(ValueError):
            PsoParams(v_max=v_max)
    with pytest.raises(ValueError):
        DeParams(pop_size=3)
    with pytest.raises(ValueError):
        DeParams(crossover=1.5)
    with pytest.raises(ValueError):
        DeParams(weight=float("nan"))


def swarm(positions, velocities, pbest, pbest_fit, gbest, gbest_fit):
    """A 1-run swarm state; pbest is the individuals' superiors."""
    return SwarmState(positions=np.array([positions], dtype=float),
                      velocities=np.array([velocities], dtype=float),
                      superiors=np.array([pbest], dtype=float),
                      superior_fitness=np.array([pbest_fit], dtype=float),
                      best=np.array([gbest], dtype=float),
                      best_fitness=np.array([gbest_fit], dtype=float))


def de_init(problem, params, rngs):
    return init_population(problem, PopulationState, params.pop_size, params.max_evals, rngs)


def test_pso_null_update_keeps_positions():
    problem = make_problem("f1", 2)
    params = PsoParams(swarm_size=2, inertia=0.0, c1=0.0, c2=0.0, max_evals=100)
    state = swarm([[1.0, 2.0], [3.0, 4.0]], np.zeros((2, 2)),
                  [[1.0, 2.0], [3.0, 4.0]], [5.0, 25.0], [1.0, 2.0], 5.0)
    pso_step(state, problem, params, [RngStream(1)])
    np.testing.assert_array_equal(state.positions[0], [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(state.velocities[0], np.zeros((2, 2)))


def test_pso_velocity_rule_hand_case(monkeypatch):
    # v = 0*v + 1*1*(pbest - x) + 1*1*(gbest - x) = (2-0) + (4-0) = 6; x' = 6.
    problem = make_problem("f1", 1)
    params = PsoParams(swarm_size=2, inertia=0.0, c1=1.0, c2=1.0, v_max=100.0,
                       max_evals=100)
    state = swarm([[0.0], [4.0]], [[0.0], [0.0]], [[2.0], [4.0]], [-1.0, -1.0],
                  [4.0], -1.0)  # sentinel fitnesses keep memory fixed
    predrawn(monkeypatch, baselines, np.ones((2, 1, 1)), np.ones((2, 1, 1)))   # r1, r2
    pso_step(state, problem, params, [RngStream(0)])
    assert state.positions[0, 0, 0] == 6.0
    assert state.velocities[0, 0, 0] == 6.0


def test_pso_velocity_clamp_default_is_half_range(monkeypatch):
    problem = make_problem("f1", 1)  # range [-500, 500], half width 500
    params = PsoParams(swarm_size=2, inertia=0.0, c1=400.0, c2=400.0, max_evals=100)
    state = swarm([[-400.0], [0.0]], [[0.0], [0.0]], [[400.0], [0.0]], [-1.0, -1.0],
                  [400.0], -1.0)
    predrawn(monkeypatch, baselines, np.ones((2, 1, 1)), np.ones((2, 1, 1)))
    pso_step(state, problem, params, [RngStream(0)])
    assert state.velocities[0, 0, 0] == 500.0


def test_pso_run_monotone_deterministic_and_counted():
    params = PsoParams(max_evals=3_000)
    a = pso_run(make_problem("f7", 4), params, [5]).runs[0]
    fits = [f for _, f in a.history]
    assert all(y <= x for x, y in zip(fits, fits[1:]))
    # The sequential oracle evaluates each point once: the problem counts
    # the budget there, and the windowed sweep gives the same run.
    problem = make_problem("f7", 4)
    counter = count_evaluations(problem)
    with sequential_sweeps():
        want = pso_run(problem, params, [5]).runs[0]
    assert a.evals_used == want.evals_used == 3_000 == counter.rows
    assert a.history == want.history and a.best_position.tobytes() == want.best_position.tobytes()
    b = pso_run(make_problem("f7", 4), params, [5]).runs[0]
    assert a.history == b.history
    # full generations consume exactly swarm_size evaluations
    assert a.history[1][0] - a.history[0][0] == params.swarm_size


def test_pso_recovers_from_a_non_finite_initial_swarm():
    # The whole initial swarm evaluates to NaN, so the run has no best when
    # its first step starts; a NaN best used to make every velocity NaN and
    # the run ended at best_fitness inf with a NaN best_position.  The
    # objective is NaN until the initialization hands over generation 0 (its
    # points are tried again in generation 1, where velocities are still 0).
    initializing = [True]

    def evaluator(x):
        fit = np.sum(x * x, axis=-1)
        return np.full_like(fit, np.nan) if initializing[0] else fit

    def on_generation(state):
        assert state.generation > 0 or np.all(state.superior_fitness == np.inf)
        initializing[0] = False

    problem = ObjectiveProblem("nan_sphere", SearchBounds(-5.0, 5.0, 3), evaluator)
    result = pso_run(problem, PsoParams(max_evals=3_000), [7], on_generation).runs[0]
    assert np.isfinite(result.best_fitness)
    assert np.all(np.isfinite(result.best_position))


def test_de_three_distinct_indices():
    rng = RngStream(14)
    for _ in range(250):
        peers, _ = _de_draws(rng, 8, 2, 0.9)
        for exclude, (r1, r2, r3) in enumerate(peers):
            assert len({r1, r2, r3, exclude}) == 4


def distinct_triples(size, exclude):
    return {t for t in itertools.permutations(range(size), 3) if exclude not in t}


@pytest.mark.parametrize("size", [4, 5, 6, 7])
def test_de_peer_shift_is_a_bijection_onto_distinct_triples(size):
    # Every raw pick (column t on [0, m - 1 - t)) in every row: each row's
    # picks map one-to-one onto the ordered triples of distinct indices other
    # than the row's own, so uniform picks give uniform triples.
    seen = [[] for _ in range(size)]
    for pick in itertools.product(range(size - 1), range(size - 2), range(size - 3)):
        for i, triple in enumerate(_distinct_peers(np.tile(pick, (size, 1)))):
            seen[i].append(tuple(triple.tolist()))
    for i, triples in enumerate(seen):
        assert len(set(triples)) == len(triples) == len(distinct_triples(size, i))
        assert set(triples) == distinct_triples(size, i)


# Chi-square critical values at p = 0.001 for (m-1)(m-2)(m-3) - 1 degrees of freedom.
CHI2_CRITICAL = {4: 20.52, 5: 49.73, 6: 98.32, 7: 172.42}


@pytest.mark.parametrize("size", [4, 5, 6, 7])
def test_de_peers_are_uniform_over_distinct_triples(size):
    rng = RngStream((15, size))
    draws = 200 * len(distinct_triples(size, 0))
    counts = [dict.fromkeys(distinct_triples(size, i), 0) for i in range(size)]
    for _ in range(draws):
        for i, triple in enumerate(_de_draws(rng, size, 1, 0.5)[0].tolist()):
            counts[i][tuple(triple)] += 1
    for row in counts:
        observed = np.array(list(row.values()))
        expected = draws / len(row)
        assert np.sum((observed - expected) ** 2 / expected) < CHI2_CRITICAL[size]


@given(size=st.integers(4, 120), seed=st.integers(0, 2**32 - 1))
def test_de_peers_distinct_and_exclude_the_target(size, seed):
    peers, _ = _de_draws(RngStream(seed), size, 3, 0.9)
    assert peers.shape == (size, 3)
    assert np.all((peers >= 0) & (peers < size))
    with_target = np.column_stack([np.arange(size), peers])
    assert all(len(set(row)) == 4 for row in with_target.tolist())


def test_de_crossover_forces_one_dimension_per_row():
    # At crossover rate 0 only the forced dimension crosses.
    for seed in range(20):
        _, cross = _de_draws(RngStream(seed), 6, 5, 0.0)
        assert np.all(cross.sum(axis=1) == 1)
    _, cross = _de_draws(RngStream(1), 6, 5, 1.0)
    assert cross.all()


def test_de_mutation_crossover_selection_hand_case(monkeypatch):
    problem = make_problem("f1", 1)
    params = DeParams(pop_size=4, weight=0.5, crossover=0.9, max_evals=100)
    population = np.array([[3.0], [1.0], [2.0], [4.0]])
    fitness = np.array([9.0, 1.0, 4.0, 16.0])
    # The population is the individuals' superiors.
    state = PopulationState(positions=np.stack([population, population]),
                            superiors=np.stack([population, population]),
                            superior_fitness=np.stack([fitness, fitness]),
                            best=np.array([[1.0], [1.0]]), best_fitness=np.array([1.0, 1.0]))
    # Run 0, target 0: r1,r2,r3 = 1,2,3 -> donor = 1 + 0.5*(2-4) = 0; the
    # one dimension crosses; 0 < 9 so the trial replaces the target.  Run 1,
    # target 0: r1,r2,r3 = 3,1,2 -> donor = 4 + 0.5*(1-2) = 3.5, and
    # 12.25 > 9 keeps the target.  Remaining targets keep their vectors by
    # taking donors from unchanged rows.
    peers = np.array([[[1, 2, 3], [3, 1, 2]],   # individual-major: (m, R, 3)
                      [[0, 2, 3], [0, 2, 3]],
                      [[0, 1, 3], [0, 1, 3]],
                      [[0, 1, 2], [0, 1, 2]]])
    predrawn(monkeypatch, baselines, peers, np.ones((4, 2, 1), dtype=bool))
    de_step(state, problem, params, [RngStream(0), RngStream(1)])
    assert state.superiors[0, 0, 0] == 0.0
    assert state.superior_fitness[0, 0] == 0.0
    assert state.superiors[1, 0, 0] == 3.0
    assert state.superior_fitness[1, 0] == 9.0
    # A slot's position is its last trial, kept or not.
    assert state.positions[1, 0, 0] == 3.5
    np.testing.assert_array_equal(state.best_fitness, [0.0, 1.0])


def test_de_zero_weight_full_crossover_copies_base_vector():
    problem = make_problem("f1", 3)
    params = DeParams(pop_size=6, weight=0.0, crossover=1.0, max_evals=1_000)
    rngs = [RngStream(3)]
    state = de_init(problem, params, rngs)
    before = state.superiors[0].copy()
    de_step(state, problem, params, rngs)
    rows = {tuple(r) for r in np.round(before, 12)}
    # With F=0 and CR=1 every trial is exactly some pre-existing vector, so
    # any accepted replacement must coincide with a sweep-start row.
    for row in state.superiors[0]:
        assert tuple(np.round(row, 12)) in rows or any(
            np.allclose(row, b) for b in before)


def test_de_selection_is_greedy_per_target():
    problem = make_problem("f9", 4)
    params = DeParams(pop_size=10, max_evals=5_000)
    rngs = [RngStream(8), RngStream(9)]
    state = de_init(problem, params, rngs)
    for _ in range(15):
        before = state.superior_fitness.copy()
        de_step(state, problem, params, rngs)
        assert np.all(state.superior_fitness <= before)


def test_de_run_monotone_and_deterministic():
    params = DeParams(pop_size=20, max_evals=2_000)
    a = de_run(make_problem("f5", 4), params, [77]).runs[0]
    fits = [f for _, f in a.history]
    assert all(y <= x for x, y in zip(fits, fits[1:]))
    b = de_run(make_problem("f5", 4), params, [77]).runs[0]
    assert a.history == b.history
    assert a.evals_used <= params.max_evals
