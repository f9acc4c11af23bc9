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
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import ObjectiveProblem, RngStream
from .engine import PopulationState, RunBatch, _check_budget, run_loop, sweep


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

    v <- w v + c1 r1 (pbest - x) + c2 r2 (best - x) with fresh uniform
    r1, r2 per dimension; pbest is the individual's superior.
    """
    bounds = problem.bounds
    v_max = params.v_max if params.v_max is not None else 0.5 * bounds.width

    def propose(i: int) -> np.ndarray:
        x = state.positions[:, i]
        # Per run: all of r1, then all of r2.
        r1 = np.array([rng.uniform(0.0, 1.0, bounds.dim) for rng in rngs])
        r2 = np.array([rng.uniform(0.0, 1.0, bounds.dim) for rng in rngs])
        v = (params.inertia * state.velocities[:, i]
             + params.c1 * r1 * (state.superiors[:, i] - x)
             + params.c2 * r2 * (state.best - x))
        v.clip(-v_max, v_max, out=v)
        state.velocities[:, i] = v
        return bounds.clip(x + v)

    return sweep(state, problem, params.max_evals, rngs, propose)


# ---------------------------------------------------------------------------
# DE (rand/1/bin)
# ---------------------------------------------------------------------------

def _three_distinct(rng: RngStream, pop_size: int, exclude: int) -> Tuple[int, int, int]:
    """Three distinct indices, none equal to ``exclude``."""
    picks: List[int] = []
    while len(picks) < 3:
        j = rng.integer(pop_size - 1)
        if j >= exclude:
            j += 1
        if j not in picks:
            picks.append(j)
    return picks[0], picks[1], picks[2]


def de_step(state: PopulationState, problem: ObjectiveProblem, params: DeParams,
            rngs: Sequence[RngStream]) -> PopulationState:
    """One generation of rand/1 mutation and binomial crossover with one
    forced dimension in every run; the sweep's strict-improvement memory
    update is DE's greedy selection, the superiors its population."""
    pop = state.superiors
    bounds = problem.bounds
    rows = np.arange(len(rngs))

    def propose(i: int) -> np.ndarray:
        # Per run: the three indices, the crossover uniforms, the forced dimension.
        draws = [(_three_distinct(rng, params.pop_size, i), rng.uniform(0.0, 1.0, bounds.dim),
                  rng.integer(bounds.dim)) for rng in rngs]
        picks, uniforms, forced = zip(*draws)
        peers = pop[rows[:, None], np.array(picks)]   # (R, 3, D)
        donor = peers[:, 0] + params.weight * (peers[:, 1] - peers[:, 2])
        cross = np.array(uniforms) < params.crossover
        cross[rows, forced] = True
        return bounds.clip(np.where(cross, donor, pop[:, i]))

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
