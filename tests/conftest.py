import math

import numpy as np
from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


class ScriptedRng:
    """Stand-in for RngStream with queued integer draws and a constant
    Gaussian, so update rules can be hand-evaluated in tests."""

    def __init__(self, integer_draws=(), gaussian_value=0.0, uniform_value=None,
                 permutations=()):
        self.integer_draws = list(integer_draws)
        self.gaussian_value = gaussian_value
        self.uniform_value = uniform_value
        self.permutations = list(permutations)

    def integer(self, upper):
        return self.integer_draws.pop(0)

    def integers(self, upper, size):
        return np.array([self.integer_draws.pop(0) for _ in range(size)], dtype=np.intp)

    def permutation(self, n):
        return np.array(self.permutations.pop(0), dtype=np.intp)

    def standard_gaussian(self, size=None):
        if size is None:
            return self.gaussian_value
        return np.full(size, self.gaussian_value)

    def uniform(self, lo, hi, size=None):
        value = self.uniform_value if self.uniform_value is not None else (lo + hi) / 2.0
        if size is None:
            return value
        return np.full(size, value)



class EvaluationCounter:
    """Stands in for a problem's evaluator and counts the points (rows) it
    evaluates, independently of the optimizer's own count."""

    def __init__(self, evaluator):
        self.evaluator = evaluator
        self.rows = 0

    def __call__(self, x, rngs):
        self.rows += math.prod(x.shape[:-1])
        return self.evaluator(x, rngs)


def count_evaluations(problem):
    """Route ``problem``'s evaluations through a new counter and return it."""
    problem.evaluator = EvaluationCounter(problem.evaluator)
    return problem.evaluator
