"""Shared domain types: search bounds, seeded RNG stream, objective wrapper.

Everything stochastic in this package draws from an explicitly seeded
:class:`RngStream`; there is no module-level RNG state anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

BOUNDARY_POLICIES = ("clamp", "none")
ORTHOGONALITY_TOL = 1e-10   # max |M^T M - I| of a rotation matrix
STREAM_VERSION = 2          # draw order of RngStream consumers, see RngStream


@dataclass(frozen=True)
class SearchBounds:
    """Symmetric box [lo, hi] in every coordinate, and the policy every
    optimizer applies to the points it generates: ``clamp`` projects them
    onto the box, ``none`` leaves them free (initial points always lie in
    the box)."""

    lo: float
    hi: float
    dim: int
    boundary: str = "clamp"

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"invalid bounds: lo={self.lo} must be < hi={self.hi}")
        if self.dim < 1:
            raise ValueError(f"dimensionality must be >= 1, got {self.dim}")
        if self.boundary not in BOUNDARY_POLICIES:
            raise ValueError(f"unknown boundary policy {self.boundary!r}")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def clip(self, x: np.ndarray) -> np.ndarray:
        """``x`` under the boundary policy."""
        if self.boundary == "clamp":
            return x.clip(self.lo, self.hi)   # np.clip, without its dispatch cost
        return x


class RngStream:
    """Deterministic random stream (PCG64) of one run, seeded by an integer
    or a tuple of integers (entropy words).

    Stream version 2 (:data:`STREAM_VERSION`): at the start of a generation
    a run draws all the generation needs as blocks over its m individuals,
    and the sweep only indexes them.  Generation 0 draws the points,
    ``uniform(lo, hi, (m, D))``.  ANS draws the dimensions of degree k
    (k = 1: ``integers(D, (m, 1))``; k > 1: the first k columns of the
    argsort of ``uniform(0, 1, (m, D))``), the peers ``integers(m - 1,
    (m, k))``, each shifted past its individual, and ``standard_gaussian((m,
    D))``.  PSO draws r1, then r2, each ``uniform(0, 1, (m, D))``.  DE draws
    ``integers([m - 1, m - 2, m - 3], (m, 3))``, each pick shifted past its
    individual and the earlier picks, the crossover uniforms ``uniform(0, 1,
    (m, D))`` and the forced dimensions ``integers(D, m)``.  Then f6 draws
    ``uniform(0, 1, reach)``, the noise of the individuals the budget reaches.
    """

    def __init__(self, seed: Union[int, Sequence[int]]):
        self.generator = np.random.Generator(np.random.PCG64(seed))

    def uniform(self, lo: float, hi: float, size=None):
        return self.generator.uniform(lo, hi, size)

    def standard_gaussian(self, size=None):
        return self.generator.standard_normal(size)

    def integers(self, upper, size) -> np.ndarray:
        """Integers uniform on [0, upper); ``upper`` broadcasts against ``size``."""
        return self.generator.integers(0, upper, size=size)


@dataclass
class ObjectiveProblem:
    """One benchmark instance, shared by the runs advanced together.

    Evaluation is a pure, row-wise function: ``x`` is (..., D), one point
    per row, and a rotated problem evaluates ``function`` at z = M x, M its
    orthogonal ``rotation``.  The sweep adds a ``noisy`` problem's (f6's)
    noise, one uniform [0, 1) draw per evaluation (see :class:`RngStream`).
    """

    function_id: str
    bounds: SearchBounds
    function: Callable[[np.ndarray], np.ndarray]
    rotation: Optional[np.ndarray] = None
    noisy: bool = False

    def __post_init__(self):
        if self.rotation is not None:
            err = np.max(np.abs(self.rotation.T @ self.rotation - np.eye(self.bounds.dim)))
            if err > ORTHOGONALITY_TOL:
                raise ValueError(f"rotation matrix is not orthogonal (max |M^T M - I| = {err:.3e})")

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.bounds.dim:
            raise ValueError(f"point has length {x.shape[-1]}, problem expects {self.bounds.dim}")
        if self.rotation is not None:
            # One matrix-vector product per row: the bits of ``M @ row``.
            x = (self.rotation @ x[..., None])[..., 0]
        return self.function(x)
