import numpy as np
import pytest

from conftest import ScriptedRng, count_evaluations

from ansearch.baselines import (DeParams, PsoParams, SwarmState, _three_distinct, de_run,
                                de_step, pso_run, pso_step)
from ansearch.benchmarks import make_problem
from ansearch.core import RngStream
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
    # A cap of 0 would stop every run after initialization.
    with pytest.raises(ValueError):
        PsoParams(max_generations=0)
    with pytest.raises(ValueError):
        DeParams(max_generations=0)


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


def test_pso_velocity_rule_hand_case():
    # v = 0*v + 1*1*(pbest - x) + 1*1*(gbest - x) = (2-0) + (4-0) = 6; x' = 6.
    problem = make_problem("f1", 1)
    params = PsoParams(swarm_size=2, inertia=0.0, c1=1.0, c2=1.0, v_max=100.0,
                       max_evals=100)
    state = swarm([[0.0], [4.0]], [[0.0], [0.0]], [[2.0], [4.0]], [-1.0, -1.0],
                  [4.0], -1.0)  # sentinel fitnesses keep memory fixed
    rng = ScriptedRng(uniform_value=1.0)
    pso_step(state, problem, params, [rng])
    assert state.positions[0, 0, 0] == 6.0
    assert state.velocities[0, 0, 0] == 6.0


def test_pso_velocity_clamp_default_is_half_range():
    problem = make_problem("f1", 1)  # range [-500, 500], half width 500
    params = PsoParams(swarm_size=2, inertia=0.0, c1=400.0, c2=400.0, max_evals=100)
    state = swarm([[-400.0], [0.0]], [[0.0], [0.0]], [[400.0], [0.0]], [-1.0, -1.0],
                  [400.0], -1.0)
    rng = ScriptedRng(uniform_value=1.0)
    pso_step(state, problem, params, [rng])
    assert state.velocities[0, 0, 0] == 500.0


def test_pso_run_monotone_deterministic_and_counted():
    problem = make_problem("f7", 4)
    counter = count_evaluations(problem)
    params = PsoParams(max_evals=3_000)
    a = pso_run(problem, params, [5]).runs[0]
    fits = [f for _, f in a.history]
    assert all(y <= x for x, y in zip(fits, fits[1:]))
    assert a.evals_used == 3_000 == counter.rows
    b = pso_run(make_problem("f7", 4), params, [5]).runs[0]
    assert a.history == b.history
    # full generations consume exactly swarm_size evaluations
    assert a.history[1][0] - a.history[0][0] == params.swarm_size


def test_de_three_distinct_indices():
    rng = RngStream(14)
    for exclude in (0, 3, 7):
        for _ in range(2_000):
            r1, r2, r3 = _three_distinct(rng, 8, exclude)
            assert len({r1, r2, r3, exclude}) == 4


def test_de_mutation_crossover_selection_hand_case():
    problem = make_problem("f1", 1)
    params = DeParams(pop_size=4, weight=0.5, crossover=0.9, max_evals=100)
    population = np.array([[3.0], [1.0], [2.0], [4.0]])
    fitness = np.array([9.0, 1.0, 4.0, 16.0])
    # The population is the individuals' superiors.
    state = PopulationState(positions=np.stack([population, population]),
                            superiors=np.stack([population, population]),
                            superior_fitness=np.stack([fitness, fitness]),
                            best=np.array([[1.0], [1.0]]), best_fitness=np.array([1.0, 1.0]))
    # Run 0, target 0: r1,r2,r3 = 1,2,3 -> donor = 1 + 0.5*(2-4) = 0; forced
    # dim 0; 0 < 9 so the trial replaces the target.  Run 1, target 0:
    # r1,r2,r3 = 3,1,2 -> donor = 4 + 0.5*(1-2) = 3.5, and 12.25 > 9 keeps
    # the target.  Remaining targets keep their vectors by scripting donors
    # from unchanged rows.
    script = [0, 1, 2, 0,   # target 0: three index draws then forced-dim draw
              0, 1, 2, 0,
              0, 1, 2, 0,
              0, 1, 2, 0]
    rngs = [ScriptedRng(integer_draws=list(script), uniform_value=0.0),  # 0.0 < CR: all cross
            ScriptedRng(integer_draws=[2, 0, 1, 0] + script[4:], uniform_value=0.0)]
    de_step(state, problem, params, rngs)
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
