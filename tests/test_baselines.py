import numpy as np
import pytest

from conftest import ScriptedRng

from ansearch.baselines import (DeParams, DeState, PsoParams, SwarmState, _three_distinct,
                                de_run, de_step, pso_run, pso_step)
from ansearch.benchmarks import make_problem
from ansearch.core import RngStream
from ansearch.engine import init_population


def test_param_validation():
    with pytest.raises(ValueError):
        PsoParams(swarm_size=1)
    with pytest.raises(ValueError):
        PsoParams(inertia=float("nan"))
    with pytest.raises(ValueError):
        DeParams(pop_size=3)
    with pytest.raises(ValueError):
        DeParams(crossover=1.5)


def swarm(positions, velocities, pbest, pbest_fit, gbest, gbest_fit):
    return SwarmState(positions=np.array(positions, dtype=float),
                      velocities=np.array(velocities, dtype=float),
                      pbest=np.array(pbest, dtype=float),
                      pbest_fitness=np.array(pbest_fit, dtype=float),
                      best=np.array(gbest, dtype=float),
                      best_fitness=float(gbest_fit))


def de_init(problem, params, rng):
    return init_population(problem, DeState, params.pop_size, params.max_evals, rng)


def test_pso_null_update_keeps_positions():
    problem = make_problem("f1", 2)
    params = PsoParams(swarm_size=2, inertia=0.0, c1=0.0, c2=0.0, max_evals=100)
    state = swarm([[1.0, 2.0], [3.0, 4.0]], np.zeros((2, 2)),
                  [[1.0, 2.0], [3.0, 4.0]], [5.0, 25.0], [1.0, 2.0], 5.0)
    pso_step(state, problem, params, RngStream(1))
    np.testing.assert_array_equal(state.positions, [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(state.velocities, np.zeros((2, 2)))


def test_pso_velocity_rule_hand_case():
    # v = 0*v + 1*1*(pbest - x) + 1*1*(gbest - x) = (2-0) + (4-0) = 6; x' = 6.
    problem = make_problem("f1", 1)
    params = PsoParams(swarm_size=2, inertia=0.0, c1=1.0, c2=1.0, v_max=100.0,
                       max_evals=100)
    state = swarm([[0.0], [4.0]], [[0.0], [0.0]], [[2.0], [4.0]], [-1.0, -1.0],
                  [4.0], -1.0)  # sentinel fitnesses keep memory fixed
    rng = ScriptedRng(uniform_value=1.0)
    pso_step(state, problem, params, rng)
    assert state.positions[0, 0] == 6.0
    assert state.velocities[0, 0] == 6.0


def test_pso_velocity_clamp_default_is_half_range():
    problem = make_problem("f1", 1)  # range [-500, 500], half width 500
    params = PsoParams(swarm_size=2, inertia=0.0, c1=400.0, c2=400.0, max_evals=100)
    state = swarm([[-400.0], [0.0]], [[0.0], [0.0]], [[400.0], [0.0]], [-1.0, -1.0],
                  [400.0], -1.0)
    rng = ScriptedRng(uniform_value=1.0)
    pso_step(state, problem, params, rng)
    assert state.velocities[0, 0] == 500.0


def test_pso_run_monotone_deterministic_and_counted():
    problem = make_problem("f7", 4)
    params = PsoParams(max_evals=3_000)
    a = pso_run(problem, params, seed=5)
    fits = [f for _, f in a.history]
    assert all(y <= x for x, y in zip(fits, fits[1:]))
    assert a.evals_used == 3_000 == problem.eval_count
    b = pso_run(make_problem("f7", 4), params, seed=5)
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
    state = DeState(population=np.array([[3.0], [1.0], [2.0], [4.0]]),
                    fitness=np.array([9.0, 1.0, 4.0, 16.0]),
                    best=np.array([1.0]), best_fitness=1.0)
    # target 0: r1,r2,r3 = 1,2,3 -> donor = 1 + 0.5*(2-4) = 0; forced dim 0;
    # 0 < 9 so the trial replaces the target. Remaining targets keep their
    # vectors by scripting donors from unchanged rows.
    script = [0, 1, 2, 0,   # target 0: three index draws then forced-dim draw
              0, 1, 2, 0,
              0, 1, 2, 0,
              0, 1, 2, 0]
    rng = ScriptedRng(integer_draws=script, uniform_value=0.0)  # 0.0 < CR: all cross
    de_step(state, problem, params, rng)
    assert state.population[0, 0] == 0.0
    assert state.fitness[0] == 0.0
    assert state.best_fitness == 0.0


def test_de_zero_weight_full_crossover_copies_base_vector():
    problem = make_problem("f1", 3)
    params = DeParams(pop_size=6, weight=0.0, crossover=1.0, max_evals=1_000)
    rng = RngStream(3)
    state = de_init(problem, params, rng)
    before = state.population.copy()
    de_step(state, problem, params, rng)
    rows = {tuple(r) for r in np.round(before, 12)}
    # With F=0 and CR=1 every trial is exactly some pre-existing vector, so
    # any accepted replacement must coincide with a sweep-start row.
    for row in state.population:
        assert tuple(np.round(row, 12)) in rows or any(
            np.allclose(row, b) for b in before)


def test_de_selection_is_greedy_per_target():
    problem = make_problem("f9", 4)
    params = DeParams(pop_size=10, max_evals=5_000)
    rng = RngStream(8)
    state = de_init(problem, params, rng)
    for _ in range(15):
        before = state.fitness.copy()
        de_step(state, problem, params, rng)
        assert np.all(state.fitness <= before)


def test_de_run_monotone_and_deterministic():
    params = DeParams(pop_size=20, max_evals=2_000)
    a = de_run(make_problem("f5", 4), params, seed=77)
    fits = [f for _, f in a.history]
    assert all(y <= x for x, y in zip(fits, fits[1:]))
    b = de_run(make_problem("f5", 4), params, seed=77)
    assert a.history == b.history
    assert a.evals_used <= params.max_evals
