import math
from contextlib import contextmanager

import numpy as np
from hypothesis import settings

from ansearch import baselines, engine

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


class EvaluationCounter:
    """Stands in for a problem's function and counts the points (rows) it
    evaluates, independently of the optimizer's own count."""

    def __init__(self, function):
        self.function = function
        self.rows = 0

    def __call__(self, x):
        self.rows += math.prod(x.shape[:-1])
        return self.function(x)


def count_evaluations(problem):
    """Route ``problem``'s evaluations through a new counter and return it."""
    problem.function = EvaluationCounter(problem.function)
    return problem.function


def predrawn(monkeypatch, module, *blocks):
    """Make the steps of ``module`` (engine or baselines) read ``blocks``,
    given individual-major (m, R, ...), instead of drawing a generation from
    their streams (``draw_blocks`` stacks them run-major, (R, m, ...))."""
    monkeypatch.setattr(module, "draw_blocks",
                        lambda rngs, draw: [np.asarray(block).swapaxes(0, 1) for block in blocks])


def sequential_sweep(state, problem, max_evals, rngs, propose, reads=None):
    """Oracle of ``engine.sweep``: the generation sweep as the paper states
    it, one individual at a time.  Individual i tries ``propose`` of a
    lone-slot window, which reads the live state; then one evaluation
    is counted, a first fitness below the success threshold noted, and the
    point adopted as the run's best and as i's superior on strict
    improvement (a tie keeps the incumbent, a NaN is never adopted)."""
    def adopt(points, fitness, x, fit):
        better = fit < fitness
        np.copyto(points, x, where=better[:, None])
        np.copyto(fitness, fit, where=better)

    reach = max(0, min(state.positions.shape[1], max_evals - state.evals_used))
    if problem.noisy:
        noise, = engine.draw_blocks(rngs, lambda rng: (rng.uniform(0.0, 1.0, reach),))
    for i in range(reach):
        x = propose(engine.Window(i, i + 1, state, reads))
        fit = problem.evaluate(x)
        if problem.noisy:
            fit = fit + noise[:, i]
        state.evals_used += 1
        np.copyto(state.evals_to_success, state.evals_used,
                  where=(fit < engine.SUCCESS_THRESHOLD) & (state.evals_to_success == 0))
        adopt(state.best, state.best_fitness, x, fit)
        state.positions[:, i] = x
        adopt(state.superiors[:, i], state.superior_fitness[:, i], x, fit)
    return state


@contextmanager
def sequential_sweeps():
    """Run the initializer and every step through :func:`sequential_sweep`."""
    saved = engine.sweep
    engine.sweep = baselines.sweep = sequential_sweep
    try:
        yield
    finally:
        engine.sweep = baselines.sweep = saved
