import numpy as np
import pytest

from conftest import ScriptedRng

from ansearch.benchmarks import make_problem
from ansearch.core import RngStream, SearchBounds, init_position
from ansearch.engine import (AnsParams, PopulationState, init_population, run,
                             select_across_dimensions, select_peer_superior, step,
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
    with pytest.raises(ValueError):
        make_params(across_degree=-1)
    # The superior pool is always one memory per individual: no separate
    # superior_count parameter exists.
    with pytest.raises(TypeError):
        AnsParams(population_size=20, superior_count=10)


# ---------------------------------------------------------------------------
# Dimension and peer selection
# ---------------------------------------------------------------------------

def test_select_across_dimensions_edges():
    rng = RngStream(1)
    assert select_across_dimensions(rng, 5, 0).size == 0
    full = select_across_dimensions(rng, 5, 5)
    assert sorted(full.tolist()) == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        select_across_dimensions(rng, 5, 6)


def test_select_across_dimensions_uniform_single():
    rng = RngStream(8)
    counts = np.zeros(30)
    trials = 100_000
    for _ in range(trials):
        counts[select_across_dimensions(rng, 30, 1)[0]] += 1
    assert np.all(np.abs(counts / trials - 1.0 / 30.0) < 0.005)


def test_select_across_dimensions_distinct():
    rng = RngStream(9)
    for _ in range(300):
        picked = select_across_dimensions(rng, 12, 5)
        assert len(set(picked.tolist())) == 5


def test_select_peer_superior():
    rng = RngStream(3)
    with pytest.raises(ValueError):
        select_peer_superior(rng, 1, 0)
    assert all(select_peer_superior(rng, 2, 0) == 1 for _ in range(50))
    trials = 100_000
    counts = np.zeros(20)
    for _ in range(trials):
        counts[select_peer_superior(rng, 20, 4)] += 1
    assert counts[4] == 0
    others = np.delete(counts, 4) / trials
    assert np.all(np.abs(others - 1.0 / 19.0) < 0.005)


# ---------------------------------------------------------------------------
# Position update rule
# ---------------------------------------------------------------------------

def test_update_position_across_dimension_with_zero_gaussian():
    # Selected dimension reads the peer superior, the other keeps its own;
    # a zero Gaussian lands exactly on the superior values.
    superiors = np.array([[2.0, 2.0], [4.0, 0.0]])
    rng = ScriptedRng(integer_draws=[0, 0], gaussian_value=0.0)  # dim 0; peer -> index 1
    new = update_position(np.zeros(2), superiors, 0, make_params(population_size=2), rng, WIDE)
    np.testing.assert_array_equal(new, np.array([4.0, 2.0]))


def test_update_position_own_neighbourhood_with_unit_gaussian():
    superiors = np.array([[2.0, 2.0], [9.0, 9.0]])
    rng = ScriptedRng(gaussian_value=1.0)
    params = make_params(population_size=2, across_degree=0, sigma=1.0)
    new = update_position(np.zeros(2), superiors, 0, params, rng, WIDE)
    np.testing.assert_array_equal(new, np.array([4.0, 4.0]))


def test_update_position_fixed_point_when_position_equals_superior():
    pos = np.array([1.5, -2.5])
    superiors = np.vstack([pos, [7.0, 7.0]])
    params = make_params(population_size=2, across_degree=0, sigma=3.0)
    rng = RngStream(5)
    for _ in range(25):
        np.testing.assert_array_equal(
            update_position(pos, superiors, 0, params, rng, WIDE), pos)


def test_update_position_scale_fixed_point_per_dimension():
    # If a coordinate agrees across position, own superior and every peer
    # superior, no update can move it, whatever sigma.
    superiors = np.array([[3.0, 1.0], [3.0, 5.0], [3.0, -2.0]])
    pos = np.array([3.0, 0.0])
    params = make_params(population_size=3, across_degree=2, sigma=8.0)
    rng = RngStream(17)
    for _ in range(50):
        assert update_position(pos, superiors, 0, params, rng, WIDE)[0] == 3.0


def test_update_position_n0_matches_direct_rule_and_reads_no_peers():
    pos = np.array([0.5, -1.0, 2.0])
    own = np.array([1.0, 1.0, 1.0])
    superiors = np.vstack([own, np.full(3, np.nan)])  # a peer read would poison the result
    params = AnsParams(population_size=2, across_degree=0, sigma=0.5, max_evals=10)
    bounds = SearchBounds(-1e9, 1e9, 3)
    new = update_position(pos, superiors, 0, params, RngStream(21), bounds)
    gauss = RngStream(21).standard_gaussian(3)  # same stream replayed
    np.testing.assert_array_equal(new, own + 0.5 * gauss * np.abs(own - pos))


def test_update_position_full_degree_never_reads_own_superior():
    superiors = np.array([[np.nan, np.nan], [1.0, 2.0], [3.0, 4.0]])
    params = make_params(population_size=3, across_degree=2)
    for seed in range(40):
        new = update_position(np.zeros(2), superiors, 0, params, RngStream(seed), WIDE)
        assert np.all(np.isfinite(new))


def test_update_position_clamps_to_bounds():
    bounds = SearchBounds(-1.0, 1.0, 2)
    superiors = np.array([[0.9, -0.9], [0.5, 0.5]])
    params = make_params(population_size=2, across_degree=0, sigma=5.0)
    rng = RngStream(2)
    for _ in range(50):
        new = update_position(np.array([-0.9, 0.9]), superiors, 0, params, rng, bounds)
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
    new = update_position(pos, superiors, 0, params, rng,
                          SearchBounds(-1e12, 1e12, dim), boundary="none")
    width = np.abs(own - pos)
    inside = np.mean(np.abs(new - own) <= width)
    assert abs(inside - 0.9544) < 0.01


# ---------------------------------------------------------------------------
# Superior update
# ---------------------------------------------------------------------------

def test_update_superior_improvement_tie_and_worse():
    # 1-D sphere, no peer borrowing, sigma 1 and a Gaussian of -1: each
    # individual moves to s - |s - x|.  Individual 0 improves (1.75 -> 0.25,
    # fitness 0.0625 < 1), individual 1 ties (3 -> -1, fitness 1 == 1) and
    # individual 2 gets worse (2 -> -1, fitness 1 > 0.25).
    problem = make_problem("f1", 1)
    params = AnsParams(population_size=3, across_degree=0, sigma=1.0, max_evals=100)
    state = PopulationState(
        positions=np.array([[1.75], [3.0], [2.0]]), position_fitness=np.full(3, 9.0),
        superiors=np.array([[1.0], [1.0], [0.5]]), superior_fitness=np.array([1.0, 1.0, 0.25]),
        best=np.array([0.5]), best_fitness=0.25)
    step(state, problem, params, ScriptedRng(gaussian_value=-1.0))

    # The position always follows the new point.
    np.testing.assert_array_equal(state.positions, [[0.25], [-1.0], [-1.0]])
    np.testing.assert_array_equal(state.position_fitness, [0.0625, 1.0, 1.0])
    # Improvement adopts the new point; a tie or a worse point keeps the incumbent.
    np.testing.assert_array_equal(state.superiors, [[0.25], [1.0], [0.5]])
    np.testing.assert_array_equal(state.superior_fitness, [0.0625, 1.0, 0.25])
    np.testing.assert_array_equal(state.best, [0.25])
    assert state.best_fitness == 0.0625


# ---------------------------------------------------------------------------
# Generation step and full runs
# ---------------------------------------------------------------------------

def manual_state(positions, fitnesses):
    positions = np.array(positions, dtype=float)
    fitnesses = np.array(fitnesses, dtype=float)
    best = int(np.argmin(fitnesses))
    return PopulationState(
        positions=positions.copy(), position_fitness=fitnesses.copy(),
        superiors=positions.copy(), superior_fitness=fitnesses.copy(),
        best=positions[best].copy(), best_fitness=float(fitnesses[best]))


def test_step_live_superior_reads_within_sweep():
    # Individual 1 updates after individual 0 and immediately sees 0's
    # refreshed superior; freezing the pool reproduces the sweep-start value.
    problem = make_problem("f1", 1)
    script = [0, 0, 0, 0]  # per individual: dimension pick, then peer pick
    params = AnsParams(population_size=2, across_degree=1, sigma=0.5, max_evals=100)

    state = manual_state([[4.0], [1.0]], [16.0, 1.0])
    rng = ScriptedRng(integer_draws=list(script), gaussian_value=-1.0)
    step(state, problem, params, rng)
    # indiv 0: peer=1 -> 1 + (-0.5)*|1-4| = -0.5, fitness 0.25, becomes its superior
    # indiv 1: peer=0 live -> -0.5 + (-0.5)*|-0.5-1| = -1.25
    np.testing.assert_allclose(state.positions, [[-0.5], [-1.25]])
    np.testing.assert_allclose(state.superiors, [[-0.5], [1.0]])
    assert state.best_fitness == 0.25

    frozen_params = AnsParams(population_size=2, across_degree=1, sigma=0.5,
                              max_evals=100, frozen_superiors=True)
    state = manual_state([[4.0], [1.0]], [16.0, 1.0])
    rng = ScriptedRng(integer_draws=list(script), gaussian_value=-1.0)
    step(state, make_problem("f1", 1), frozen_params, rng)
    # indiv 1 now reads 0's sweep-start superior: 4 + (-0.5)*|4-1| = 2.5
    np.testing.assert_allclose(state.positions, [[-0.5], [2.5]])


def test_step_consumes_population_size_evaluations():
    problem = make_problem("f7", 3)
    params = make_params(max_evals=10_000)
    state = run_initial(problem, params, seed=3)
    before = problem.eval_count
    step(state, problem, params, RngStream(4))
    assert problem.eval_count - before == params.population_size
    assert state.evals_used == problem.eval_count


def run_initial(problem, params, seed):
    return init_population(problem, PopulationState.from_population, params.population_size,
                           params.max_evals, RngStream(seed))


def test_step_global_best_monotone_and_consistent():
    problem = make_problem("f7", 5)
    params = make_params(max_evals=50_000)
    state = run_initial(problem, params, seed=11)
    rng = RngStream(12)
    last = state.best_fitness
    for _ in range(60):
        step(state, problem, params, rng)
        assert state.best_fitness <= last
        assert state.best_fitness == state.superior_fitness.min()
        last = state.best_fitness
        assert np.all(state.superior_fitness <= np.inf)


def test_step_superior_fitness_never_increases():
    problem = make_problem("f9", 4)
    params = make_params(max_evals=50_000)
    state = run_initial(problem, params, seed=21)
    rng = RngStream(22)
    for _ in range(40):
        before = state.superior_fitness.copy()
        step(state, problem, params, rng)
        assert np.all(state.superior_fitness <= before)


def test_step_stops_cleanly_on_budget():
    problem = make_problem("f1", 3)
    params = make_params(max_evals=50)  # 20 init + 20 + 10: second sweep is partial
    state = run_initial(problem, params, seed=2)
    rng = RngStream(3)
    step(state, problem, params, rng)
    assert state.evals_used == 40
    step(state, problem, params, rng)
    assert state.evals_used == 50
    assert problem.eval_count == 50


def test_improvement_liveness_on_sphere():
    # Seeded 2-D sphere runs should strictly improve the global best within
    # five generations nearly always.
    improved = 0
    params = make_params(max_evals=20 * 6)
    for seed in range(100):
        problem = make_problem("f1", 2)
        result = run(problem, params, seed)
        start = result.history[0][1]
        if any(fit < start for _, fit in result.history[1:6]):
            improved += 1
    assert improved >= 95


def test_run_budget_of_initial_population_only():
    params = make_params(max_evals=20)
    problem = make_problem("f1", 4)
    result = run(problem, params, seed=91)
    # Replay the initialization draws: the result is the best initial sample.
    rng = RngStream(91)
    fits = [problem.evaluator(init_position(rng, problem.bounds), None) for _ in range(20)]
    assert result.best_fitness == min(fits)
    assert result.evals_used == 20
    assert result.generations == 0


def test_run_is_deterministic():
    params = make_params(max_evals=2_000)
    a = run(make_problem("f7", 4), params, seed=500)
    b = run(make_problem("f7", 4), params, seed=500)
    assert a.best_fitness == b.best_fitness
    np.testing.assert_array_equal(a.best_position, b.best_position)
    assert a.history == b.history
    assert a.evals_to_success == b.evals_to_success
    c = run(make_problem("f7", 4), params, seed=501)
    assert c.history != a.history


def test_run_history_monotone_and_budget_honest():
    params = make_params(max_evals=3_000)
    result = run(make_problem("f9", 6), params, seed=13)
    fits = [fit for _, fit in result.history]
    assert all(b <= a for a, b in zip(fits, fits[1:]))
    assert result.evals_used <= params.max_evals
    evals = [e for e, _ in result.history]
    assert evals == sorted(evals)
    if result.evals_to_success is not None:
        assert result.evals_to_success <= result.evals_used


def test_run_max_generations_termination():
    params = make_params(max_evals=10_000, max_generations=7)
    result = run(make_problem("f1", 3), params, seed=1)
    assert result.generations == 7
    assert result.evals_used == 20 * 8  # init + 7 sweeps


def test_run_snapshots_captured_at_requested_generations():
    params = make_params(max_evals=20 * 11, max_generations=10)
    wanted = {0, 3, 10, 99}
    snapshots = []

    def capture(state):
        if state.generation in wanted:
            snapshots.append((state.generation, state.positions.copy(), state.superiors.copy()))

    result = run(make_problem("f7", 2), params, seed=6, on_generation=capture)
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
        run(make_problem("f1", 4), params, seed=0)
    with pytest.raises(ValueError):
        run(make_problem("f1", 4), make_params(), seed=0, boundary="reflect")


def test_run_success_bookkeeping_matches_threshold():
    params = make_params(max_evals=6_000)
    problem = make_problem("f1", 2)
    result = run(problem, params, seed=40)
    assert result.evals_to_success is not None
    # The best fitness at the success point was already below the threshold.
    crossing = [fit for evals, fit in result.history if evals >= result.evals_to_success]
    assert crossing and crossing[0] < 1e-5
