"""Shared domain types: search bounds, seeded RNG stream, objective wrapper.

Everything stochastic in this package draws from an explicitly seeded
:class:`RngStream`; there is no module-level RNG state anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

SeedLike = Union[int, Sequence[int], np.random.SeedSequence]


@dataclass(frozen=True)
class SearchBounds:
    """Symmetric box constraint: every coordinate lies in [lo, hi]."""

    lo: float
    hi: float
    dim: int

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"invalid bounds: lo={self.lo} must be < hi={self.hi}")
        if self.dim < 1:
            raise ValueError(f"dimensionality must be >= 1, got {self.dim}")

    @property
    def width(self) -> float:
        return self.hi - self.lo


class RngStream:
    """Deterministic random stream (PCG64) with a fixed draw vocabulary.

    All consumers use only the methods below, in a documented per-operation
    order, so a run is bit-reproducible from its seed.  ``seed`` may be a
    plain integer or a tuple of integers (entropy words).
    """

    def __init__(self, seed: SeedLike):
        if isinstance(seed, np.random.SeedSequence):
            sequence = seed
        else:
            sequence = np.random.SeedSequence(seed)
        self.seed = seed
        self.generator = np.random.Generator(np.random.PCG64(sequence))

    def uniform(self, lo: float, hi: float, size=None):
        return self.generator.uniform(lo, hi, size)

    def standard_gaussian(self, size=None):
        return self.generator.standard_normal(size)

    def integer(self, upper: int) -> int:
        """One integer uniform on [0, upper)."""
        return int(self.generator.integers(upper))

    def integers(self, upper: int, size: int) -> np.ndarray:
        return self.generator.integers(0, upper, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self.generator.permutation(n)


def init_position(rng: RngStream, bounds: SearchBounds) -> np.ndarray:
    """Uniform random position inside the search box."""
    return rng.uniform(bounds.lo, bounds.hi, bounds.dim)


ROTATED_IDS = frozenset({"f13", "f14", "f15", "f16", "f17", "f18"})


@dataclass
class ObjectiveProblem:
    """One benchmark instance owned by a single run.

    Counts every evaluation; ``rotation`` is mandatory for the rotated
    function ids f13..f18 and forbidden otherwise.
    """

    function_id: str
    bounds: SearchBounds
    evaluator: Callable[[np.ndarray, Optional[RngStream]], float]
    rotation: Optional[np.ndarray] = None
    eval_count: int = field(default=0)

    def __post_init__(self):
        rotated = self.function_id in ROTATED_IDS
        if rotated and self.rotation is None:
            raise ValueError(f"{self.function_id} requires a rotation matrix")
        if not rotated and self.rotation is not None:
            raise ValueError(f"{self.function_id} does not take a rotation matrix")
        if self.rotation is not None:
            err = np.max(np.abs(self.rotation.T @ self.rotation - np.eye(self.bounds.dim)))
            if err > 1e-10:
                raise ValueError(f"rotation matrix is not orthogonal (max |M^T M - I| = {err:.3e})")

    def evaluate(self, x: np.ndarray, rng: Optional[RngStream] = None) -> float:
        if len(x) != self.bounds.dim:
            raise ValueError(f"point has length {len(x)}, problem expects {self.bounds.dim}")
        self.eval_count += 1
        return self.evaluator(x, rng)
