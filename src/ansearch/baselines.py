"""Canonical comparison baselines: global-best PSO and DE/rand/1/bin.

Both run under the same evaluation accounting, seeding, success threshold
and boundary policy as the across-neighbourhood optimizer, so comparisons
are protocol-fair.  Default parameters are community-standard canonical
settings, not tuned variants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import ObjectiveProblem, RngStream
from .engine import SUCCESS_THRESHOLD, RunResult, run_loop


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
class SwarmState:
    positions: np.ndarray
    velocities: np.ndarray
    pbest: np.ndarray
    pbest_fitness: np.ndarray
    best: Optional[np.ndarray] = None   # global best
    best_fitness: float = np.inf
    generation: int = 0
    evals_used: int = 0
    evals_to_success: Optional[int] = None

    @classmethod
    def from_population(cls, positions: np.ndarray, fitness: np.ndarray) -> "SwarmState":
        """Zero initial velocities; pbest starts as copies of the start points."""
        return cls(positions, np.zeros_like(positions), positions.copy(), fitness.copy())


@dataclass
class DeState:
    """The initial population is the state itself, so ``DeState(population,
    fitness)`` serves as the initializer's state constructor."""

    population: np.ndarray
    fitness: np.ndarray
    best: Optional[np.ndarray] = None
    best_fitness: float = np.inf
    generation: int = 0
    evals_used: int = 0
    evals_to_success: Optional[int] = None


def _clamp(x: np.ndarray, problem: ObjectiveProblem, boundary: str) -> np.ndarray:
    if boundary == "clamp":
        return np.clip(x, problem.bounds.lo, problem.bounds.hi)
    return x


# ---------------------------------------------------------------------------
# PSO
# ---------------------------------------------------------------------------

def pso_step(state: SwarmState, problem: ObjectiveProblem, params: PsoParams,
             rng: RngStream, boundary: str = "clamp",
             success_threshold: float = SUCCESS_THRESHOLD) -> SwarmState:
    """One generation of the inertia-weight velocity/position update.

    v <- w v + c1 r1 (pbest - x) + c2 r2 (best - x) with fresh uniform
    r1, r2 per dimension; pbest/best update on strict improvement only.
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
        new_pos = _clamp(x + v, problem, boundary)
        fit = problem.evaluate(new_pos, rng)
        state.evals_used += 1
        if state.evals_to_success is None and fit < success_threshold:
            state.evals_to_success = state.evals_used
        state.velocities[i] = v
        state.positions[i] = new_pos
        if fit < state.pbest_fitness[i]:
            state.pbest[i] = new_pos
            state.pbest_fitness[i] = fit
            if fit < state.best_fitness:
                state.best = new_pos.copy()
                state.best_fitness = fit
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
            rng: RngStream, boundary: str = "clamp",
            success_threshold: float = SUCCESS_THRESHOLD) -> DeState:
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
        trial = np.where(cross, donor, pop[i])
        trial = _clamp(trial, problem, boundary)
        fit = problem.evaluate(trial, rng)
        state.evals_used += 1
        if state.evals_to_success is None and fit < success_threshold:
            state.evals_to_success = state.evals_used
        if fit < state.fitness[i]:
            pop[i] = trial
            state.fitness[i] = fit
            if fit < state.best_fitness:
                state.best = trial.copy()
                state.best_fitness = fit
    state.generation += 1
    return state


# ---------------------------------------------------------------------------
# Runs, through the shared loop in engine
# ---------------------------------------------------------------------------

def pso_run(problem: ObjectiveProblem, params: PsoParams,
            seed: Union[int, Sequence[int], RngStream], boundary: str = "clamp",
            success_threshold: float = SUCCESS_THRESHOLD) -> RunResult:
    return run_loop(problem, params, seed, params.swarm_size, SwarmState.from_population,
                    pso_step, boundary, success_threshold)


def de_run(problem: ObjectiveProblem, params: DeParams,
           seed: Union[int, Sequence[int], RngStream], boundary: str = "clamp",
           success_threshold: float = SUCCESS_THRESHOLD) -> RunResult:
    return run_loop(problem, params, seed, params.pop_size, DeState, de_step,
                    boundary, success_threshold)
