import math

import numpy as np
from hypothesis import settings

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
    individual-major (m, R, ...), instead of drawing a generation from
    their streams."""
    monkeypatch.setattr(module, "draw_blocks",
                        lambda rngs, draw: [np.asarray(block) for block in blocks])
