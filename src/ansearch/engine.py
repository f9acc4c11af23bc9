"""Across-neighbourhood search: population loop, superior-solution memory,
and the Gaussian position update.

Each individual keeps the best point it has found (its "superior" solution);
an update samples every coordinate from a Gaussian centred on a superior
value and scaled by the distance between that value and the current
position.  On a randomly chosen subset of dimensions (the across-search
degree) the individual borrows a random peer's superior instead of its own,
mixing good components from several memories at once.

The run bookkeeping (:class:`RunState`), the population initializer and
the run loop are shared with the PSO and DE baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import RngStream, SearchBounds, ObjectiveProblem, init_position

SUCCESS_THRESHOLD = 1e-5

_EMPTY_DIMS = np.empty(0, dtype=np.intp)


@dataclass(frozen=True)
class AnsParams:
    """Tunable parameters plus budget controls.

    Each individual contributes exactly one superior solution to the shared
    pool, so the pool size is ``population_size``.  ``across_degree`` of 0
    disables peer borrowing entirely (accepted, though defaults never use
    it); it may not exceed the problem dimensionality.
    """

    population_size: int = 20
    across_degree: int = 1
    sigma: float = 0.5
    max_evals: int = 300_000
    max_generations: Optional[int] = None
    frozen_superiors: bool = False

    def __post_init__(self):
        if self.population_size < 1:
            raise ValueError("population_size must be >= 1")
        if self.across_degree < 0:
            raise ValueError("across_degree must be >= 0")
        if not self.sigma > 0:
            raise ValueError("sigma must be > 0")
        if self.max_evals < 1:
            raise ValueError("max_evals must be >= 1")
        if self.max_generations is not None and self.max_generations < 1:
            raise ValueError("max_generations must be >= 1 when given")


@dataclass(kw_only=True)
class RunState:
    """Run bookkeeping shared by the ANS, PSO and DE states.

    :meth:`evaluate` is the one place an optimizer evaluates a point, so
    evaluation counting, the first-success record and the best-so-far follow
    one rule for all three algorithms.
    """

    best: Optional[np.ndarray] = None
    best_fitness: float = np.inf
    generation: int = 0
    evals_used: int = 0
    evals_to_success: Optional[int] = None

    def evaluate(self, problem: ObjectiveProblem, x: np.ndarray, rng: RngStream) -> float:
        """Evaluate ``x``, count it, note the first fitness below
        SUCCESS_THRESHOLD and adopt ``x`` as best on strict improvement (the
        first evaluation of a run always becomes the best)."""
        fit = problem.evaluate(x, rng)
        self.evals_used += 1
        if self.evals_to_success is None and fit < SUCCESS_THRESHOLD:
            self.evals_to_success = self.evals_used
        if fit < self.best_fitness or self.best is None:
            self.best = x.copy()
            self.best_fitness = fit
        return fit


@dataclass
class PopulationState(RunState):
    """Population arrays; row i of ``superiors`` is individual i's memory."""

    positions: np.ndarray          # (m, D)
    position_fitness: np.ndarray   # (m,)
    superiors: np.ndarray          # (m, D)
    superior_fitness: np.ndarray   # (m,)

    @classmethod
    def from_population(cls, positions: np.ndarray, fitness: np.ndarray,
                        **run) -> "PopulationState":
        """Superiors start as copies of the initial positions."""
        return cls(positions, fitness, positions.copy(), fitness.copy(), **run)


@dataclass
class RunResult:
    best_fitness: float
    best_position: np.ndarray
    evals_to_success: Optional[int]
    history: List[Tuple[int, float]]   # (evals_used, global best) per generation
    seed: Union[int, Sequence[int]]
    evals_used: int
    generations: int


def select_across_dimensions(rng: RngStream, dim: int, degree: int) -> np.ndarray:
    """Distinct dimension indices, uniform without replacement."""
    if not 0 <= degree <= dim:
        raise ValueError(f"across-search degree {degree} outside [0, {dim}]")
    if degree == 0:
        return _EMPTY_DIMS
    if degree == 1:
        return np.array([rng.integer(dim)], dtype=np.intp)
    return rng.permutation(dim)[:degree]


def select_peer_superior(rng: RngStream, count: int, self_index: int) -> int:
    """Uniform index into the superior pool, excluding the caller's own."""
    if count < 2:
        raise ValueError("peer selection needs at least 2 superiors")
    j = rng.integer(count - 1)
    return j + 1 if j >= self_index else j


def _peer_indices(rng: RngStream, count: int, self_index: int, k: int) -> np.ndarray:
    # One independent peer per selected dimension.
    if k == 1:
        return np.array([select_peer_superior(rng, count, self_index)], dtype=np.intp)
    if count < 2:
        raise ValueError("peer selection needs at least 2 superiors")
    idx = rng.integers(count - 1, size=k)
    idx[idx >= self_index] += 1
    return idx


def update_position(position: np.ndarray, superiors: np.ndarray, self_index: int,
                    params: AnsParams, rng: RngStream, bounds: SearchBounds) -> np.ndarray:
    """One position update, under the boundary policy of ``bounds``.

    Per-dimension rule: new value = s_d + G(0, sigma^2) * |s_d - current_d|
    where s_d is the individual's own superior except on the across-search
    dimensions, which each read an independently chosen peer superior.

    Draw order (fixed for reproducibility): dimension subset, then one peer
    index per selected dimension, then one standard Gaussian per dimension.
    """
    dim = position.shape[0]
    base = superiors[self_index].copy()
    if params.across_degree:
        dims = select_across_dimensions(rng, dim, params.across_degree)
        peers = _peer_indices(rng, superiors.shape[0], self_index, dims.shape[0])
        base[dims] = superiors[peers, dims]
    gauss = rng.standard_gaussian(dim)
    return bounds.clip(base + (params.sigma * gauss) * np.abs(base - position))


def step(state: PopulationState, problem: ObjectiveProblem, params: AnsParams,
         rng: RngStream) -> PopulationState:
    """One generation: every individual moves, is evaluated, and may refresh
    its superior (the global best is kept by :meth:`RunState.evaluate`).

    Individuals are processed in index order and read the superior pool
    live, so updates earlier in the sweep are visible to later individuals
    (set ``frozen_superiors`` to give the whole sweep a fixed pool instead).
    Stops cleanly mid-sweep when the evaluation budget runs out.
    """
    superiors = state.superiors
    sup_fitness = state.superior_fitness
    positions = state.positions
    pos_fitness = state.position_fitness
    bounds = problem.bounds
    max_evals = params.max_evals
    peer_pool = superiors.copy() if params.frozen_superiors else superiors

    for i in range(params.population_size):
        if state.evals_used >= max_evals:
            break
        new_pos = update_position(positions[i], peer_pool, i, params, rng, bounds)
        fit = state.evaluate(problem, new_pos, rng)
        positions[i] = new_pos
        pos_fitness[i] = fit
        # Strict improvement only: ties keep the incumbent superior, so
        # plateaus cause no memory churn.
        if fit < sup_fitness[i]:
            superiors[i] = new_pos
            sup_fitness[i] = fit
    state.generation += 1
    return state


# ---------------------------------------------------------------------------
# Shared population initializer and run loop (ANS, PSO and DE)
# ---------------------------------------------------------------------------

def init_population(problem: ObjectiveProblem, new_state: Callable, size: int, max_evals: int,
                    rng: RngStream):
    """Draw and evaluate an initial population of ``size`` uniform points.

    Every point is drawn, even past the budget, so the stream does not
    depend on it; evaluation stops once ``max_evals`` is used and the rows
    left unevaluated keep +inf fitness.  ``new_state(positions, fitness,
    **run)`` wraps the arrays in the optimizer's state, carrying over the
    :class:`RunState` bookkeeping of the evaluations made here.
    """
    positions = np.empty((size, problem.bounds.dim))
    fitness = np.full(size, np.inf)
    run = RunState()
    for i in range(size):
        positions[i] = init_position(rng, problem.bounds)
        if run.evals_used < max_evals:
            fitness[i] = run.evaluate(problem, positions[i], rng)
    return new_state(positions, fitness, **vars(run))


def run_loop(problem: ObjectiveProblem, params, seed: Union[int, Sequence[int]],
             size: int, new_state: Callable, step_fn: Callable,
             on_generation: Optional[Callable] = None) -> RunResult:
    """Initialize, then step until whichever budget hits first
    (``params.max_evals`` is always enforced; ``params.max_generations``
    counts update sweeps after initialization when given).

    ``step_fn(state, problem, params, rng)`` advances one generation.
    ``on_generation(state)``, when given, sees the state after
    initialization (generation 0) and after every step.
    """
    rng = RngStream(seed)
    state = init_population(problem, new_state, size, params.max_evals, rng)
    history: List[Tuple[int, float]] = [(state.evals_used, state.best_fitness)]
    if on_generation is not None:
        on_generation(state)
    while state.evals_used < params.max_evals and (
            params.max_generations is None or state.generation < params.max_generations):
        step_fn(state, problem, params, rng)
        history.append((state.evals_used, state.best_fitness))
        if on_generation is not None:
            on_generation(state)

    return RunResult(
        best_fitness=state.best_fitness,
        best_position=state.best.copy(),
        evals_to_success=state.evals_to_success,
        history=history,
        seed=seed,
        evals_used=state.evals_used,
        generations=state.generation,
    )


def run(problem: ObjectiveProblem, params: AnsParams, seed: Union[int, Sequence[int]],
        on_generation: Optional[Callable[[PopulationState], None]] = None) -> RunResult:
    """Full across-neighbourhood search run (see :func:`run_loop`)."""
    if params.across_degree > problem.bounds.dim:
        raise ValueError(f"across_degree {params.across_degree} exceeds dimensionality "
                         f"{problem.bounds.dim}")
    return run_loop(problem, params, seed, params.population_size,
                    PopulationState.from_population, step, on_generation)
