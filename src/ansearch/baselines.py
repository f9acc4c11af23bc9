"""Canonical comparison baselines: global-best PSO and DE/rand/1/bin.

Both share the across-neighbourhood optimizer's state
(:class:`~ansearch.engine.PopulationState`: a PSO personal best and a DE
target vector are its ``superiors``), its generation sweep
(:func:`~ansearch.engine.sweep`: evaluation accounting, success threshold,
memory and best-so-far updates) and its run loop, and take the boundary
policy from the problem's bounds, so comparisons are protocol-fair.  Each
step only builds the point an individual tries.  Default parameters are
community-standard canonical settings, not tuned variants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core import ObjectiveProblem, RngStream
from .engine import PopulationState, RunBatch, _check_budget, draw_blocks, run_loop, sweep


@dataclass(frozen=True)
class PsoParams:
    swarm_size: int = 30
    inertia: float = 0.7298
    c1: float = 1.49445
    c2: float = 1.49445
    v_max: Optional[float] = None   # None -> half the search range width
    max_evals: int = 300_000
    max_generations: Optional[int] = None

    def __post_init__(self):
        if self.swarm_size < 2:
            raise ValueError("swarm_size must be >= 2")
        for name in ("inertia", "c1", "c2"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.v_max is not None and not self.v_max > 0:
            raise ValueError("v_max must be > 0 when given")
        _check_budget(self)


@dataclass(frozen=True)
class DeParams:
    pop_size: int = 100
    weight: float = 0.5      # difference scale factor
    crossover: float = 0.9   # binomial crossover rate
    max_evals: int = 300_000
    max_generations: Optional[int] = None

    def __post_init__(self):
        if self.pop_size < 4:
            raise ValueError("pop_size must be >= 4 (mutation needs three distinct peers)")
        if not np.isfinite(self.weight):
            raise ValueError("weight must be finite")
        if not 0.0 <= self.crossover <= 1.0:
            raise ValueError("crossover rate must lie in [0, 1]")
        _check_budget(self)


@dataclass(kw_only=True)
class SwarmState(PopulationState):
    velocities: Optional[np.ndarray] = None   # (R, m, D); None -> zeros

    def __post_init__(self):
        super().__post_init__()
        if self.velocities is None:
            self.velocities = np.zeros_like(self.positions)


# ---------------------------------------------------------------------------
# PSO
# ---------------------------------------------------------------------------

def pso_step(state: SwarmState, problem: ObjectiveProblem, params: PsoParams,
             rngs: Sequence[RngStream]) -> SwarmState:
    """One generation of the inertia-weight velocity/position update in
    every run (see :func:`~ansearch.engine.sweep`).

    v <- w v + c1 r1 (pbest - x) + c2 r2 (best - x) with uniform r1, r2 per
    dimension; pbest is the individual's superior.  A run with no best yet
    (NaN: no finite evaluation so far) has no social pull.
    """
    bounds = problem.bounds
    v_max = params.v_max if params.v_max is not None else 0.5 * bounds.width
    size, dim = state.positions.shape[1:]
    r1, r2 = draw_blocks(rngs, lambda rng: (rng.uniform(0.0, 1.0, (size, dim)),
                                            rng.uniform(0.0, 1.0, (size, dim))))

    def propose(i: int) -> np.ndarray:
        x = state.positions[:, i]
        social = np.where(np.isnan(state.best), 0.0, state.best - x)
        v = (params.inertia * state.velocities[:, i]
             + params.c1 * r1[i] * (state.superiors[:, i] - x)
             + params.c2 * r2[i] * social)
        v.clip(-v_max, v_max, out=v)
        state.velocities[:, i] = v
        return bounds.clip(x + v)

    return sweep(state, problem, params.max_evals, rngs, propose)


# ---------------------------------------------------------------------------
# DE (rand/1/bin)
# ---------------------------------------------------------------------------

def _distinct_peers(picks: np.ndarray) -> np.ndarray:
    """Row i's three distinct peers, none i, from (m, 3) raw picks with column
    t on [0, m - 1 - t): shifting each past i and the earlier peers, in
    ascending order, maps the picks one-to-one onto the ordered triples."""
    taken = np.arange(len(picks))[:, None]
    for j in picks.T:
        for skip in np.sort(taken, axis=1).T:
            j = j + (j >= skip)
        taken = np.column_stack([taken, j])
    return taken[:, 1:]


def _de_draws(rng: RngStream, size: int, dim: int, crossover: float):
    """One run's DE draws of a generation (see :class:`~ansearch.core.RngStream`):
    the (m, 3) peers and the (m, D) crossover mask with its forced dimensions."""
    peers = _distinct_peers(rng.integers(np.array([size - 1, size - 2, size - 3]), (size, 3)))
    cross = rng.uniform(0.0, 1.0, (size, dim)) < crossover
    cross[np.arange(size), rng.integers(dim, size)] = True
    return peers, cross


def de_step(state: PopulationState, problem: ObjectiveProblem, params: DeParams,
            rngs: Sequence[RngStream]) -> PopulationState:
    """One generation of rand/1 mutation and binomial crossover with one
    forced dimension in every run; the sweep's strict-improvement memory
    update is DE's greedy selection, the superiors its population."""
    pop, rows = state.superiors, np.arange(len(rngs))[:, None]
    peers, cross = draw_blocks(rngs, lambda rng: _de_draws(rng, *pop.shape[1:], params.crossover))

    def propose(i: int) -> np.ndarray:
        donors = pop[rows, peers[i]]   # (R, 3, D)
        donor = donors[:, 0] + params.weight * (donors[:, 1] - donors[:, 2])
        return problem.bounds.clip(np.where(cross[i], donor, pop[:, i]))

    return sweep(state, problem, params.max_evals, rngs, propose)


# ---------------------------------------------------------------------------
# Runs, through the shared loop in engine
# ---------------------------------------------------------------------------

def pso_run(problem: ObjectiveProblem, params: PsoParams,
            seeds: Sequence[Union[int, Sequence[int]]]) -> RunBatch:
    return run_loop(problem, params, seeds, params.swarm_size, SwarmState, pso_step)


def de_run(problem: ObjectiveProblem, params: DeParams,
           seeds: Sequence[Union[int, Sequence[int]]]) -> RunBatch:
    return run_loop(problem, params, seeds, params.pop_size, PopulationState, de_step)
