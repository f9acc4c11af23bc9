"""Canonical comparison baselines: global-best PSO and DE/rand/1/bin.

Both share the across-neighbourhood optimizer's lockstep run loop and
bookkeeping (:class:`~ansearch.engine.RunState`: evaluation accounting,
success threshold, best-so-far) and take the boundary policy from the
problem's bounds, so comparisons are protocol-fair.  Default parameters are
community-standard canonical settings, not tuned variants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import ObjectiveProblem, RngStream
from .engine import RunBatch, RunState, _check_budget, run_loop


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


@dataclass
class SwarmState(RunState):
    positions: np.ndarray       # (R, m, D)
    velocities: np.ndarray      # (R, m, D)
    pbest: np.ndarray           # (R, m, D)
    pbest_fitness: np.ndarray   # (R, m)

    @classmethod
    def from_population(cls, positions: np.ndarray, fitness: np.ndarray, **run) -> "SwarmState":
        """Zero initial velocities; pbest starts as copies of the start points."""
        return cls(positions, np.zeros_like(positions), positions.copy(), fitness.copy(), **run)


@dataclass
class DeState(RunState):
    """The initial population is the state itself, so ``DeState(population,
    fitness, **run)`` serves as the initializer's state constructor."""

    population: np.ndarray   # (R, m, D)
    fitness: np.ndarray      # (R, m)


# ---------------------------------------------------------------------------
# PSO
# ---------------------------------------------------------------------------

def pso_step(state: SwarmState, problem: ObjectiveProblem, params: PsoParams,
             rngs: Sequence[RngStream]) -> SwarmState:
    """One generation of the inertia-weight velocity/position update in
    every run.

    v <- w v + c1 r1 (pbest - x) + c2 r2 (best - x) with fresh uniform
    r1, r2 per dimension; pbest updates on strict improvement only.
    """
    bounds = problem.bounds
    v_max = params.v_max if params.v_max is not None else 0.5 * bounds.width
    for i in range(params.swarm_size):
        if state.evals_used >= params.max_evals:
            break
        x = state.positions[:, i]
        # Per run: all of r1, then all of r2.
        r1 = np.array([rng.uniform(0.0, 1.0, bounds.dim) for rng in rngs])
        r2 = np.array([rng.uniform(0.0, 1.0, bounds.dim) for rng in rngs])
        v = (params.inertia * state.velocities[:, i]
             + params.c1 * r1 * (state.pbest[:, i] - x)
             + params.c2 * r2 * (state.best - x))
        v.clip(-v_max, v_max, out=v)
        new_pos = bounds.clip(x + v)
        fit = state.evaluate(problem, new_pos, rngs)
        state.velocities[:, i] = v
        state.positions[:, i] = new_pos
        better = fit < state.pbest_fitness[:, i]
        np.copyto(state.pbest[:, i], new_pos, where=better[:, None])
        np.copyto(state.pbest_fitness[:, i], fit, where=better)
    state.generation += 1
    return state


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


def de_step(state: DeState, problem: ObjectiveProblem, params: DeParams,
            rngs: Sequence[RngStream]) -> DeState:
    """One generation of rand/1 mutation, binomial crossover with one forced
    dimension, and greedy selection (strict improvement replaces the target)
    in every run."""
    pop = state.population
    bounds = problem.bounds
    rows = np.arange(len(rngs))
    for i in range(params.pop_size):
        if state.evals_used >= params.max_evals:
            break
        # Per run: the three indices, the crossover uniforms, the forced dimension.
        draws = [(_three_distinct(rng, params.pop_size, i), rng.uniform(0.0, 1.0, bounds.dim),
                  rng.integer(bounds.dim)) for rng in rngs]
        picks, uniforms, forced = zip(*draws)
        peers = pop[rows[:, None], np.array(picks)]   # (R, 3, D)
        donor = peers[:, 0] + params.weight * (peers[:, 1] - peers[:, 2])
        cross = np.array(uniforms) < params.crossover
        cross[rows, forced] = True
        trial = bounds.clip(np.where(cross, donor, pop[:, i]))
        fit = state.evaluate(problem, trial, rngs)
        better = fit < state.fitness[:, i]
        np.copyto(pop[:, i], trial, where=better[:, None])
        np.copyto(state.fitness[:, i], fit, where=better)
    state.generation += 1
    return state


# ---------------------------------------------------------------------------
# Runs, through the shared loop in engine
# ---------------------------------------------------------------------------

def pso_run(problem: ObjectiveProblem, params: PsoParams,
            seeds: Sequence[Union[int, Sequence[int]]]) -> RunBatch:
    return run_loop(problem, params, seeds, params.swarm_size, SwarmState.from_population,
                    pso_step)


def de_run(problem: ObjectiveProblem, params: DeParams,
           seeds: Sequence[Union[int, Sequence[int]]]) -> RunBatch:
    return run_loop(problem, params, seeds, params.pop_size, DeState, de_step)
