"""Across-neighbourhood search: population loop, superior-solution memory,
and the Gaussian position update.

Each individual keeps the best point it has found (its "superior" solution);
an update samples every coordinate from a Gaussian centred on a superior
value and scaled by the distance between that value and the current
position.  On a randomly chosen subset of dimensions (the across-search
degree) the individual borrows a random peer's superior instead of its own,
mixing good components from several memories at once.

The R runs of one call advance in lockstep: every state array carries a
leading run axis, ``(R, m, D)``, and the only Python loops are over the m
individuals and, once a generation for its draws, over the R streams.  Each
run draws from its own :class:`RngStream` the same values in the same order
as it would alone, so no result depends on which runs share a call.

The PSO and DE baselines share everything here but the proposal rule: one
state (:class:`PopulationState`; a PSO personal best and a DE target vector
are the same per-individual memory as an ANS superior solution), one
generation sweep (:func:`sweep`, also generation 0, with uniform proposals)
and one run loop.  An algorithm's step only builds the point each individual
tries.  Every memory starts at +inf and adopts only a strictly better point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, List, Optional, Sequence, Tuple, Type, Union, get_args, get_type_hints

import numpy as np

from .core import RngStream, SearchBounds, ObjectiveProblem

SUCCESS_THRESHOLD = 1e-5


# Per hinted type, its name in an error and the values it takes: a float field
# takes an int too, and only a bool field takes a bool.
_KINDS = {int: ("an integer", (int, np.integer)), bool: ("true/false", bool),
          float: ("a number", (int, float, np.integer, np.floating)),
          type(None): ("None", type(None))}
_type_hints = cache(get_type_hints)   # resolved once per class: uncached it is slow


@dataclass(frozen=True)
class Params:
    """The budget all algorithms share.  Checks that each field's value fits its
    type hint, then the budget; a subclass's ``__post_init__`` calls this first."""

    max_evals: int = 300_000

    def __post_init__(self):
        for name, hint in _type_hints(type(self)).items():
            value, kinds = getattr(self, name), get_args(hint) or (hint,)   # Optional[X]: X, None
            if not any(isinstance(value, _KINDS[k][1]) and isinstance(value, bool) == (k is bool)
                       for k in kinds):
                raise ValueError(f"{name}: expected {' or '.join(_KINDS[k][0] for k in kinds)}, "
                                 f"got {value!r}")
        if self.max_evals < 1:
            raise ValueError("max_evals must be >= 1")


@dataclass(frozen=True)
class AnsParams(Params):
    """Tunable parameters plus the evaluation budget (:class:`Params`).

    Each individual contributes exactly one superior solution to the shared
    pool, so the pool size is ``population_size``.  ``across_degree`` of 0
    disables peer borrowing entirely (accepted, though defaults never use
    it); it may not exceed the problem dimensionality, and a degree >= 1
    needs a peer, so ``population_size`` >= 2.
    """

    population_size: int = 20
    across_degree: int = 1
    sigma: float = 0.5
    frozen_superiors: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.population_size < 1:
            raise ValueError("population_size must be >= 1")
        if self.across_degree < 0:
            raise ValueError("across_degree must be >= 0")
        if self.across_degree and self.population_size < 2:
            raise ValueError("across_degree >= 1 needs population_size >= 2")
        if not 0 < self.sigma < np.inf:
            raise ValueError("sigma must be finite and > 0")


def _adopt(points: np.ndarray, fitness: np.ndarray, x: np.ndarray, fit: np.ndarray) -> None:
    """Adopt row r of ``x`` and ``fit`` where ``fit[r] < fitness[r]``: a tie
    keeps the incumbent and a NaN is never adopted."""
    better = fit < fitness
    np.copyto(points, x, where=better[:, None])
    np.copyto(fitness, fit, where=better)


@dataclass(kw_only=True)
class PopulationState:
    """A population of m individuals in each of R runs, plus the run
    bookkeeping.

    ``superiors[r, i]`` is the best point individual i of run r has found
    (its superior solution, a PSO personal best, a DE target vector) and
    ``positions[r, i]`` the point it tried last; ``best`` is NaN at +inf
    fitness until a run adopts a point.  :meth:`evaluate` is the one place
    an optimizer evaluates points, so evaluation counting, the first-success
    record and the best-so-far follow one rule for all three algorithms.
    The runs share population size and budget, so ``generation`` and
    ``evals_used`` are common to all of them.
    """

    positions: np.ndarray                           # (R, m, D)
    superiors: np.ndarray                           # (R, m, D)
    superior_fitness: np.ndarray                    # (R, m)
    best: np.ndarray                                # (R, D)
    best_fitness: np.ndarray                        # (R,)
    evals_to_success: Optional[np.ndarray] = None   # (R,); 0 until the run succeeds
    generation: int = 0
    evals_used: int = 0

    def __post_init__(self):
        if self.evals_to_success is None:
            self.evals_to_success = np.zeros(len(self.best_fitness), dtype=np.int64)

    def evaluate(self, problem: ObjectiveProblem, x: np.ndarray,
                 noise: Optional[np.ndarray] = None) -> np.ndarray:
        """Evaluate row r of ``x`` for run r, plus ``noise[r]`` if given, count
        one evaluation, note each run's first fitness below SUCCESS_THRESHOLD
        and adopt a row as its run's best on strict improvement."""
        fit = problem.evaluate(x)
        if noise is not None:
            fit = fit + noise
        self.evals_used += 1
        np.copyto(self.evals_to_success, self.evals_used,
                  where=(fit < SUCCESS_THRESHOLD) & (self.evals_to_success == 0))
        _adopt(self.best, self.best_fitness, x, fit)
        return fit


@dataclass
class RunResult:
    best_fitness: float
    best_position: np.ndarray
    evals_to_success: Optional[int]
    history: List[Tuple[int, float]]   # (evals_used, global best) per generation
    seed: Union[int, Sequence[int]]
    evals_used: int
    generations: int


@dataclass
class RunBatch:
    """The runs of one lockstep call, in the order of their seeds."""

    runs: List[RunResult]

    @property
    def evals_used(self) -> int:
        """Evaluations used by all the runs together."""
        return sum(result.evals_used for result in self.runs)


def update_position(positions: np.ndarray, superiors: np.ndarray, self_index: int,
                    borrow: Tuple[np.ndarray, np.ndarray], noise: np.ndarray,
                    bounds: SearchBounds) -> np.ndarray:
    """Individual ``self_index``'s next position in every run, under the
    boundary policy of ``bounds``.

    ``positions`` (R, D) is the individual's current position and
    ``superiors`` (R, m, D) the superior pool, per run.  Per-dimension rule:
    new value = s_d + G(0, sigma^2) * |s_d - current_d|, the G draws given as
    ``noise`` (R, D), where s_d is the individual's own superior except on
    the across-search dimensions, which read the peers ``borrow`` names.
    """
    base = superiors[:, self_index].copy()
    into, source = borrow
    if into.size:
        base.put(into, superiors.take(source))
    return bounds.clip(base + noise * np.abs(base - positions))


def borrow_indices(dims: np.ndarray, peers: np.ndarray, shape: Tuple[int, int, int]):
    """Flat indices of the across-search dimensions ``dims`` (..., R, k) in an
    (R, D) point, and of those dimensions of superiors ``peers`` in a ``shape`` pool."""
    runs, size, dim = shape
    rows = np.arange(runs)[:, None]
    return rows * dim + dims, (rows * size + peers) * dim + dims


def _ans_draws(rng: RngStream, size: int, dim: int, degree: int):
    """One run's ANS draws of a generation (see :class:`RngStream`): (m, k)
    dimensions, (m, k) peers and (m, D) standard Gaussians."""
    dims = peers = np.empty((size, 0), dtype=np.intp)
    if degree:
        dims = (rng.integers(dim, (size, 1)) if degree == 1
                else rng.uniform(0.0, 1.0, (size, dim)).argsort(axis=1)[:, :degree])
        peers = rng.integers(size - 1, (size, degree))
        peers += peers >= np.arange(size)[:, None]
    return dims, peers, rng.standard_gaussian((size, dim))


def step(state: PopulationState, problem: ObjectiveProblem, params: AnsParams,
         rngs: Sequence[RngStream]) -> PopulationState:
    """One ANS generation of every run: each individual moves by
    :func:`update_position` (see :func:`sweep`).

    Individuals read the superior pool live, so updates earlier in the sweep
    are visible to later individuals (set ``frozen_superiors`` to give the
    whole sweep a fixed pool instead).
    """
    shape = state.superiors.shape
    dims, peers, gauss = draw_blocks(
        rngs, lambda rng: _ans_draws(rng, *shape[1:], params.across_degree))
    into, source = borrow_indices(dims, peers, shape)
    noise = params.sigma * gauss
    pool = state.superiors.copy() if params.frozen_superiors else state.superiors
    return sweep(state, problem, params.max_evals, rngs, lambda i: update_position(
        state.positions[:, i], pool, i, (into[i], source[i]), noise[i], problem.bounds))


# ---------------------------------------------------------------------------
# Shared population initializer, generation sweep and run loop (ANS, PSO, DE)
# ---------------------------------------------------------------------------

def draw_blocks(rngs: Sequence[RngStream], draw: Callable) -> List[np.ndarray]:
    """Each run's ``draw(rng)``, a tuple of (m, ...) blocks, stacked into
    (m, R, ...) blocks: ``block[i]`` holds individual i's draws of every run."""
    return [np.stack(blocks, axis=1) for blocks in zip(*map(draw, rngs))]


def init_population(problem: ObjectiveProblem, state_cls: Type[PopulationState], size: int,
                    max_evals: int, rngs: Sequence[RngStream]) -> PopulationState:
    """A ``state_cls`` of ``size`` individuals per run after generation 0,
    one :func:`sweep` in which individual i tries the i-th of its run's
    uniform points in the box.  An individual the budget never reaches stays
    NaN at +inf fitness.
    """
    runs, bounds = len(rngs), problem.bounds
    positions = np.full((runs, size, bounds.dim), np.nan)
    state = state_cls(positions=positions, superiors=positions,  # copied after the sweep
                      superior_fitness=np.full((runs, size), np.inf),
                      best=np.full((runs, bounds.dim), np.nan), best_fitness=np.full(runs, np.inf))
    points, = draw_blocks(rngs, lambda r: (r.uniform(bounds.lo, bounds.hi, (size, bounds.dim)),))
    sweep(state, problem, max_evals, rngs, points.__getitem__)
    state.superiors = positions.copy()
    return state


def sweep(state: PopulationState, problem: ObjectiveProblem, max_evals: int,
          rngs: Sequence[RngStream], propose: Callable[[int], np.ndarray]) -> PopulationState:
    """One generation of every run: individuals in index order each try the
    (R, D) point ``propose(i)``, which becomes their position and, on strict
    improvement (:func:`_adopt`), their superior.  Ties keep the incumbent
    superior, so plateaus cause no memory churn.  Stops cleanly mid-sweep
    when ``max_evals`` is used.  For a noisy problem each run first draws the
    noise of the individuals the budget reaches, as one block.
    """
    positions, superiors, sup_fitness = state.positions, state.superiors, state.superior_fitness
    reach = max(0, min(positions.shape[1], max_evals - state.evals_used))
    noise = [None] * reach
    if problem.noisy:
        noise, = draw_blocks(rngs, lambda rng: (rng.uniform(0.0, 1.0, reach),))
    for i in range(reach):
        x = propose(i)
        fit = state.evaluate(problem, x, noise[i])
        positions[:, i] = x
        _adopt(superiors[:, i], sup_fitness[:, i], x, fit)
    return state


def run_loop(problem: ObjectiveProblem, params, seeds: Sequence[Union[int, Sequence[int]]],
             size: int, state_cls: Type[PopulationState], step_fn: Callable,
             on_generation: Optional[Callable] = None) -> RunBatch:
    """One run per seed, advanced together: initialize, then step until
    ``params.max_evals`` evaluations are used, the one budget.  Every run
    uses exactly that many, so the runs stop together.

    ``step_fn(state, problem, params, rngs)`` sweeps one generation, which
    the loop counts.  ``on_generation(state)``, when given, sees the state
    after initialization (generation 0) and after every step.
    """
    if not seeds:
        raise ValueError("at least one seed is required")
    rngs = [RngStream(seed) for seed in seeds]
    state = init_population(problem, state_cls, size, params.max_evals, rngs)
    history = [(state.evals_used, state.best_fitness.tolist())]
    if on_generation is not None:
        on_generation(state)
    while state.evals_used < params.max_evals:
        step_fn(state, problem, params, rngs)
        state.generation += 1
        history.append((state.evals_used, state.best_fitness.tolist()))
        if on_generation is not None:
            on_generation(state)

    finals = state.best_fitness.tolist()
    return RunBatch([
        RunResult(
            best_fitness=finals[r],
            best_position=state.best[r].copy(),
            evals_to_success=int(state.evals_to_success[r]) or None,
            history=[(evals, fits[r]) for evals, fits in history],
            seed=seed,
            evals_used=state.evals_used,
            generations=state.generation,
        ) for r, seed in enumerate(seeds)])


def run(problem: ObjectiveProblem, params: AnsParams,
        seeds: Sequence[Union[int, Sequence[int]]],
        on_generation: Optional[Callable[[PopulationState], None]] = None) -> RunBatch:
    """Across-neighbourhood search, one run per seed (see :func:`run_loop`)."""
    if params.across_degree > problem.bounds.dim:
        raise ValueError(f"across_degree {params.across_degree} exceeds dimensionality "
                         f"{problem.bounds.dim}")
    return run_loop(problem, params, seeds, params.population_size,
                    PopulationState, step, on_generation)
