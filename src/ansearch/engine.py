"""Across-neighbourhood search: population loop, superior-solution memory,
and the Gaussian position update.

Each individual keeps the best point it has found (its "superior" solution);
an update samples every coordinate from a Gaussian centred on a superior
value and scaled by the distance between that value and the current
position.  On a randomly chosen subset of dimensions (the across-search
degree) the individual borrows a random peer's superior instead of its own,
mixing good components from several memories at once.

The R runs of one call advance in lockstep: every state array carries a
leading run axis, ``(R, m, D)``, and the only Python loops are over windows
of individuals and, once a generation for its draws, over the R streams.
Each run draws from its own :class:`RngStream` the same values in the same
order as it would alone, so no result depends on which runs share a call.

The PSO and DE baselines share everything here but the proposal rule: one
state (:class:`PopulationState`; a PSO personal best and a DE target vector
are the same per-individual memory as an ANS superior solution), one
generation sweep (:func:`sweep`, also generation 0, with uniform proposals)
and one run loop.  An algorithm's step only builds the points a window of
individuals tries.  Every memory starts at +inf and adopts only a strictly
better point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import (Callable, List, Optional, Sequence, Tuple, Type, Union, get_args, get_origin,
                    get_type_hints)

import numpy as np

from .core import RngStream, SearchBounds, ObjectiveProblem

SUCCESS_THRESHOLD = 1e-5


def _read_bool(text: str) -> bool:
    low = text.lower()
    if low not in ("true", "yes", "1", "false", "no", "0"):
        raise ValueError(text)
    return low in ("true", "yes", "1")


# The one type table: per hinted type, its name in an error, the values it
# takes (a float field takes an int too, and only a bool field takes a bool)
# and its reader of config text, which raises ValueError on text it refuses.
# Config text is read into a tuple or a dict by the reader of its contents.
_KINDS = {int: ("an integer", (int, np.integer), int), bool: ("true/false", bool, _read_bool),
          float: ("a number", (int, float, np.integer, np.floating), float),
          str: ("a string", str, str), type(None): ("None", type(None), None),
          tuple: ("a tuple", tuple, None), dict: ("a dict", dict, None)}
_type_hints = cache(get_type_hints)   # resolved once per class: uncached it is slow


def check_field_types(obj, error: Callable[[str], Exception] = ValueError) -> None:
    """Raise ``error(message)`` unless each field of the dataclass ``obj`` holds
    a value of its hinted type (``Optional[X]``: X or None).  A ``Tuple[...]``
    or ``Dict[...]`` field must hold a tuple or a dict; its contents are
    checked by the code that reads them."""
    for name, hint in _type_hints(type(obj)).items():
        kinds = [get_origin(kind) or kind
                 for kind in (get_args(hint) if get_origin(hint) is Union else (hint,))]
        value = getattr(obj, name)
        if not any(isinstance(value, _KINDS[k][1]) and isinstance(value, bool) == (k is bool)
                   for k in kinds):
            raise error(f"{name}: expected {' or '.join(_KINDS[k][0] for k in kinds)}, "
                        f"got {value!r}")


@dataclass(frozen=True)
class Params:
    """The budget all algorithms share.  Checks that each field's value fits its
    type hint, then the budget; a subclass's ``__post_init__`` calls this first."""

    max_evals: int = 300_000

    def __post_init__(self):
        check_field_types(self)
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
    """Adopt the points ``x`` (..., D) where ``fit < fitness`` (...): a tie
    keeps the incumbent and a NaN is never adopted."""
    better = fit < fitness
    np.copyto(points, x, where=better[..., None])
    np.copyto(fitness, fit, where=better)


def _adopt_first_min(points: np.ndarray, fitness: np.ndarray, x: np.ndarray,
                     fit: np.ndarray) -> None:
    """What :func:`_adopt` leaves when run r meets its tries ``x[r]`` (n, D),
    of fitness ``fit[r]`` (n,), one after another: the first lowest of them,
    NaN read as +inf, on strict improvement.  A lone try per run may come
    as ``x`` (R, D) and ``fit`` (R,)."""
    if fit.ndim == 2:
        rows = np.arange(len(fit))
        first = np.where(np.isnan(fit), np.inf, fit).argmin(axis=1)
        x, fit = x[rows, first], fit[rows, first]
    _adopt(points, fitness, x, fit)


@dataclass(kw_only=True)
class PopulationState:
    """A population of m individuals in each of R runs, plus the run
    bookkeeping.

    ``superiors[r, i]`` is the best point individual i of run r has found
    (its superior solution, a PSO personal best, a DE target vector) and
    ``positions[r, i]`` the point it tried last; ``best`` is NaN at +inf
    fitness until a run adopts a point.  :meth:`record` is the one place a
    sweep's evaluations are counted, so evaluation counting, the
    first-success record and the best-so-far follow one rule for all three
    algorithms.
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

    def record(self, fits: np.ndarray) -> None:
        """Count the evaluations of a sweep whose n slots tried
        ``positions[:, :n]`` with fitness ``fits`` (R, n), in slot order: note
        each run's first fitness below SUCCESS_THRESHOLD, and adopt its first
        lowest try as its best on strict improvement."""
        if not fits.size:   # a sweep called with the budget used
            return
        hit = fits < SUCCESS_THRESHOLD
        np.copyto(self.evals_to_success, self.evals_used + 1 + hit.argmax(axis=1),
                  where=hit.any(axis=1) & (self.evals_to_success == 0))
        self.evals_used += fits.shape[1]
        _adopt_first_min(self.best, self.best_fitness, self.positions[:, :fits.shape[1]], fits)


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


def update_position(positions: np.ndarray, superiors: np.ndarray,
                    self_index: Union[int, slice], borrow: Tuple[np.ndarray, np.ndarray],
                    noise: np.ndarray, bounds: SearchBounds) -> np.ndarray:
    """The next positions of individuals ``self_index`` (one index, or a
    slice of W) in every run, under the boundary policy of ``bounds``.

    ``positions`` (R, D) or (R, W, D) holds their current positions and
    ``superiors`` (R, m, D) the superior pool, per run.  Per-dimension rule:
    new value = s_d + G(0, sigma^2) * |s_d - current_d|, the G draws given as
    ``noise``, shaped as ``positions``, where s_d is the individual's own
    superior except on the across-search dimensions, which read the peers
    ``borrow`` names (see :func:`borrow_indices`).
    """
    base = superiors[:, self_index].copy()
    into, source = borrow
    if into.size:
        base.put(into + _block_shift(*base.shape) if base.ndim == 3 else into,
                 superiors.take(source))
    return bounds.clip(base + noise * np.abs(base - positions))


@cache
def _block_shift(runs: int, width: int, dim: int) -> np.ndarray:
    """How far an index into an individual's (R, D) points moves in the (R,
    W, D) points of W individuals (read only: every caller shares it)."""
    shift = (np.arange(runs)[:, None, None] * (width - 1) + np.arange(width)[:, None]) * dim
    shift.flags.writeable = False
    return shift


def borrow_indices(dims: np.ndarray, peers: np.ndarray, shape: Tuple[int, int, int]):
    """Flat indices of the across-search dimensions ``dims`` (R, ..., k) in
    each individual's (R, D) points, and of those dimensions of superiors
    ``peers`` (shaped as ``dims``) in a ``shape`` pool."""
    runs, size, dim = shape
    rows = np.arange(runs).reshape((runs,) + (1,) * (dims.ndim - 1))
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
    noise = params.sigma * gauss
    frozen = params.frozen_superiors
    pool = state.superiors.copy() if frozen else state.superiors
    into, source = borrow_indices(dims, peers, pool.shape)

    def propose(window: Window) -> np.ndarray:
        cells = (slice(None), window.slots)
        seen, slots = window.seen(pool, peers)
        borrow = (into[cells], source[cells] if seen is pool
                  else borrow_indices(dims[cells], slots, seen.shape)[1])
        return update_position(state.positions[cells], seen, cells[1], borrow, noise[cells],
                               problem.bounds)

    return sweep(state, problem, params.max_evals, rngs, propose, None if frozen else peers)


# ---------------------------------------------------------------------------
# Shared population initializer, generation sweep and run loop (ANS, PSO, DE)
# ---------------------------------------------------------------------------

# Rows an objective call of a sweep aims at: R runs move W = max(1, 40 // R)
# individuals per call.  A narrow run axis then fills its calls, and from
# R = 21 on a call holds one individual, as the sequential sweep, since there
# every row a repair adds costs as much as a row the sweep needs.
_ROWS_PER_CALL = 40
BEST = "best"   # the ``reads`` of proposals that read their run's best (PSO)


def draw_blocks(rngs: Sequence[RngStream], draw: Callable) -> List[np.ndarray]:
    """Each run's ``draw(rng)``, a tuple of (m, ...) blocks, stacked into
    (R, m, ...) blocks: ``block[r, i]`` holds individual i's draws of run r."""
    return [np.stack(blocks) for blocks in zip(*map(draw, rngs))]


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
    sweep(state, problem, max_evals, rngs, lambda window: points[:, window.slots])
    state.superiors = positions.copy()
    return state


class Window:
    """Individuals (slots) ``a`` to ``b - 1`` of a sweep, which one objective
    call moves, and the latest points their turns tried: ``x`` (R, W, D) of
    fitness ``fit`` (R, W), both None before the first pass.  ``slots``
    indexes them on a state's slot axis: ``slice(a, b)``, or the index ``a``
    of a lone slot, whose arrays then lack the W axis, as the one-by-one
    sweep's do.

    A slot reads the state as the window started, except what it ``reads``
    (see :func:`sweep`) of a slot earlier in the window: that it sees as it
    stood at its own turn, through :meth:`seen` or :meth:`best`.  For peer
    reads, ``links`` holds (offsets, earlier) (R, W, k): each peer's offset
    in the window where ``earlier`` says it comes before its reader, else 0.
    """

    def __init__(self, a: int, b: int, state: PopulationState, reads=None, links=None):
        self.a, self.b, self.reads, self.state, self.links = a, b, reads, state, links
        self.slots = a if b - a == 1 else slice(a, b)
        self.x = self.fit = None

    def moved(self) -> np.ndarray:
        """(R, W): the slots whose latest try improves their superior (the
        state's superiors are those of the window's start until it commits)."""
        return self.fit < self.state.superior_fitness[:, self.slots]

    def improvers(self) -> np.ndarray:
        """(R, W): the slots whose latest try improves their run's best, as
        it stood at their turn."""
        fit = np.where(np.isnan(self.fit), np.inf, self.fit)
        before = np.concatenate([self.state.best_fitness[:, None], fit[:, :-1]], axis=1)
        return fit < np.minimum.accumulate(before, axis=1)

    def changes(self) -> np.ndarray:
        """(R, W): the slots whose latest try changes what later slots read."""
        return self.improvers() if self.reads is BEST else self.moved()

    def readers(self, changed: np.ndarray) -> np.ndarray:
        """(R, W): the slots that read a slot of ``changed`` earlier in the window."""
        if self.reads is BEST:
            after = np.zeros_like(changed)
            after[:, 1:] = np.logical_or.accumulate(changed, axis=1)[:, :-1]
            return after
        offsets, earlier = self.links
        return (earlier & changed[np.arange(len(changed))[:, None, None], offsets]).any(axis=-1)

    def seen(self, pool: np.ndarray, peers: np.ndarray):
        """The pool (R, m', D) and the peers (R, W, k) in it that the slots
        read, given the sweep's ``pool`` and ``peers`` (R, m, k): a peer
        that moved earlier in the window reads the point it moved to,
        appended to the pool."""
        slots = peers[:, self.slots]
        if self.x is None:
            return pool, slots
        offsets, earlier = self.links
        redirect = earlier & self.moved()[np.arange(len(pool))[:, None, None], offsets]
        return (np.concatenate([pool, self.x], axis=1),
                np.where(redirect, pool.shape[1] + offsets, slots))

    def best(self, best: np.ndarray) -> np.ndarray:
        """The run's best ``best`` (R, D) as each slot saw it, (R, W, D), or
        (R, 1, D) when all saw the same (for a lone slot, ``best``)."""
        if self.x is None:
            return best if self.b - self.a == 1 else best[:, None]
        runs, width = self.fit.shape
        last = np.maximum.accumulate(np.where(self.improvers(), np.arange(width), -1), axis=1)
        source = np.full((runs, width), -1)
        source[:, 1:] = last[:, :-1]
        own = self.x[np.arange(runs)[:, None], source.clip(0)]
        return np.where((source >= 0)[..., None], own, best[:, None])


def _evaluate(problem: ObjectiveProblem, x: np.ndarray, noise: Optional[np.ndarray]):
    fit = problem.evaluate(x)
    return fit if noise is None else fit + noise


def sweep(state: PopulationState, problem: ObjectiveProblem, max_evals: int,
          rngs: Sequence[RngStream], propose: Callable[[Window], np.ndarray],
          reads=None) -> PopulationState:
    """One generation of every run: individuals in index order each try a
    point, which becomes their position and, on strict improvement
    (:func:`_adopt`), their superior.  Ties keep the incumbent superior, so
    plateaus cause no memory churn.  Stops cleanly mid-sweep when
    ``max_evals`` is used.  For a noisy problem each run first draws the
    noise of the individuals the budget reaches, as one block.

    The individuals go in windows of W = max(1, _ROWS_PER_CALL // R), each
    tried in one objective call: ``propose(window)`` builds the (R, W, D)
    points of a :class:`Window` from the state as it started.  What a point
    ``reads`` of the individuals before it in its window can have moved
    since: None, nothing; an (R, m, k) array, the superiors of those peers;
    or BEST, the run's best.  A point whose reads moved is proposed again,
    seeing the window as it stood at its turn, and evaluated again (with the
    same noise), until none moves.  Moves flow only to later individuals, so
    this ends, with every individual trying the point it would try in a
    one-by-one sweep.  The objective may see more rows than the evaluations
    counted.  Positions, superiors and, for BEST, the run's best are
    committed per window; the run's best and first success otherwise once
    per sweep (:meth:`PopulationState.record`).
    """
    runs, size = state.superior_fitness.shape
    reach = max(0, min(size, max_evals - state.evals_used))
    noise = None
    if problem.noisy:
        noise, = draw_blocks(rngs, lambda rng: (rng.uniform(0.0, 1.0, reach),))
    width = max(1, _ROWS_PER_CALL // runs)
    links = None
    if isinstance(reads, np.ndarray) and reads.shape[-1]:
        # Past 1 + (m - 1) // k slots, a slot reads more than one earlier slot
        # of its window: repairs then chain, and a wider window saves no call.
        width = min(width, 1 + (size - 1) // reads.shape[-1])
    if isinstance(reads, np.ndarray) and width > 1:
        offsets = reads - (np.arange(size) // width * width)[:, None]
        earlier = (offsets >= 0) & (offsets < (np.arange(size) % width)[:, None])
        links = np.where(earlier, offsets, 0), earlier
    fits = np.empty((runs, reach))
    for a in range(0, reach, width):
        b = min(a + width, reach)
        window = Window(a, b, state, reads,
                        links and tuple(link[:, a:b] for link in links))
        cells = (slice(None), window.slots)
        extra = None if noise is None else noise[cells]
        window.x = propose(window)
        window.fit = _evaluate(problem, window.x, extra)
        if reads is not None and window.b - window.a > 1:
            changed = window.changes()
            changed[:, -1] = False   # the last slot has no later reader
            while changed.any() and (again := window.readers(changed)).any():
                was = window.changes()
                x = propose(window)[again]
                window.x[again] = x
                window.fit[again] = _evaluate(problem, x, None if extra is None else extra[again])
                changed = again & (was | window.changes())
        state.positions[cells] = window.x
        _adopt(state.superiors[cells], state.superior_fitness[cells], window.x, window.fit)
        if reads is BEST:
            _adopt_first_min(state.best, state.best_fitness, window.x, window.fit)
        fits[cells] = window.fit
    state.record(fits)
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
