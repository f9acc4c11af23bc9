"""Canonical comparison baselines: global-best PSO and DE/rand/1/bin.

Both share the across-neighbourhood optimizer's run loop and bookkeeping
(:class:`~ansearch.engine.RunState`: evaluation accounting, success
threshold, best-so-far) and take the boundary policy from the problem's
bounds, so comparisons are protocol-fair.  Default parameters are
community-standard canonical settings, not tuned variants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import ObjectiveProblem, RngStream
from .engine import RunResult, RunState, run_loop


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
        if self.max_evals < 1:
            raise ValueError("max_evals must be >= 1")


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
        if not 0.0 <= self.crossover <= 1.0:
            raise ValueError("crossover rate must lie in [0, 1]")
        if self.max_evals < 1:
            raise ValueError("max_evals must be >= 1")


@dataclass
class SwarmState(RunState):
    positions: np.ndarray
    velocities: np.ndarray
    pbest: np.ndarray
    pbest_fitness: np.ndarray

    @classmethod
    def from_population(cls, positions: np.ndarray, fitness: np.ndarray, **run) -> "SwarmState":
        """Zero initial velocities; pbest starts as copies of the start points."""
        return cls(positions, np.zeros_like(positions), positions.copy(), fitness.copy(), **run)


@dataclass
class DeState(RunState):
    """The initial population is the state itself, so ``DeState(population,
    fitness, **run)`` serves as the initializer's state constructor."""

    population: np.ndarray
    fitness: np.ndarray


# ---------------------------------------------------------------------------
# PSO
# ---------------------------------------------------------------------------

def pso_step(state: SwarmState, problem: ObjectiveProblem, params: PsoParams,
             rng: RngStream) -> SwarmState:
    """One generation of the inertia-weight velocity/position update.

    v <- w v + c1 r1 (pbest - x) + c2 r2 (best - x) with fresh uniform
    r1, r2 per dimension; pbest updates on strict improvement only.
    """
    v_max = params.v_max if params.v_max is not None else 0.5 * problem.bounds.width
    for i in range(params.swarm_size):
        if state.evals_used >= params.max_evals:
            break
        x = state.positions[i]
        r1 = rng.uniform(0.0, 1.0, x.shape[0])
        r2 = rng.uniform(0.0, 1.0, x.shape[0])
        v = (params.inertia * state.velocities[i]
             + params.c1 * r1 * (state.pbest[i] - x)
             + params.c2 * r2 * (state.best - x))
        np.clip(v, -v_max, v_max, out=v)
        new_pos = problem.bounds.clip(x + v)
        fit = state.evaluate(problem, new_pos, rng)
        state.velocities[i] = v
        state.positions[i] = new_pos
        if fit < state.pbest_fitness[i]:
            state.pbest[i] = new_pos
            state.pbest_fitness[i] = fit
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
            rng: RngStream) -> DeState:
    """One generation of rand/1 mutation, binomial crossover with one forced
    dimension, and greedy selection (strict improvement replaces the target)."""
    pop = state.population
    dim = pop.shape[1]
    for i in range(params.pop_size):
        if state.evals_used >= params.max_evals:
            break
        r1, r2, r3 = _three_distinct(rng, params.pop_size, i)
        donor = pop[r1] + params.weight * (pop[r2] - pop[r3])
        cross = rng.uniform(0.0, 1.0, dim) < params.crossover
        cross[rng.integer(dim)] = True
        trial = problem.bounds.clip(np.where(cross, donor, pop[i]))
        fit = state.evaluate(problem, trial, rng)
        if fit < state.fitness[i]:
            pop[i] = trial
            state.fitness[i] = fit
    state.generation += 1
    return state


# ---------------------------------------------------------------------------
# Runs, through the shared loop in engine
# ---------------------------------------------------------------------------

def pso_run(problem: ObjectiveProblem, params: PsoParams,
            seed: Union[int, Sequence[int]]) -> RunResult:
    return run_loop(problem, params, seed, params.swarm_size, SwarmState.from_population,
                    pso_step)


def de_run(problem: ObjectiveProblem, params: DeParams,
           seed: Union[int, Sequence[int]]) -> RunResult:
    return run_loop(problem, params, seed, params.pop_size, DeState, de_step)
