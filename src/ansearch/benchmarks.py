"""Benchmark function suite: 6 unimodal, 6 multimodal and 6 rotated problems.

All problems are minimization with optimum value 0.  Rotated variants
evaluate the base function at z = M x for an orthogonal matrix M generated
once per experiment and persisted to disk so that every algorithm and every
run faces the identical landscape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .core import ObjectiveProblem, RngStream, SearchBounds

TWO_PI = 2.0 * np.pi

FUNCTION_IDS = tuple(f"f{i}" for i in range(1, 19))

# f13..f18 are rotations of these base functions.
ROTATION_BASE = {
    "f13": "f1",
    "f14": "f2",
    "f15": "f3",
    "f16": "f7",
    "f17": "f9",
    "f18": "f10",
}


@dataclass(frozen=True)
class BenchmarkSpec:
    id: str
    name: str
    lo: float
    hi: float
    is_rotated: bool = False
    is_noisy: bool = False
    base_id: Optional[str] = None

    def bounds(self, dim: int) -> SearchBounds:
        return SearchBounds(self.lo, self.hi, dim)


def default_suite() -> List[BenchmarkSpec]:
    """The full 18-function suite with its published search ranges.

    The noncontinuous Rastrigin (f8) keeps its published [-600, 600] range
    even though the usual literature uses [-5.12, 5.12]; see
    ``make_problem(f8_narrow_range=True)`` for the conventional box.
    """
    return [
        BenchmarkSpec("f1", "Sphere", -500.0, 500.0),
        BenchmarkSpec("f2", "Rosenbrock", -2.048, 2.048),
        BenchmarkSpec("f3", "Schwefel 2.21", -10.0, 10.0),
        BenchmarkSpec("f4", "Schwefel 2.22", -10.0, 10.0),
        BenchmarkSpec("f5", "Step", -100.0, 100.0),
        BenchmarkSpec("f6", "Noise Quadric", -2.048, 2.048, is_noisy=True),
        BenchmarkSpec("f7", "Rastrigin", -5.12, 5.12),
        BenchmarkSpec("f8", "Noncontinuous Rastrigin", -600.0, 600.0),
        BenchmarkSpec("f9", "Ackley", -32.0, 32.0),
        BenchmarkSpec("f10", "Griewank", -600.0, 600.0),
        BenchmarkSpec("f11", "Penalized 1", -50.0, 50.0),
        BenchmarkSpec("f12", "Penalized 2", -50.0, 50.0),
        BenchmarkSpec("f13", "Rotated Sphere", -500.0, 500.0, is_rotated=True, base_id="f1"),
        BenchmarkSpec("f14", "Rotated Rosenbrock", -2.048, 2.048, is_rotated=True, base_id="f2"),
        BenchmarkSpec("f15", "Rotated Schwefel 2.21", -10.0, 10.0, is_rotated=True, base_id="f3"),
        BenchmarkSpec("f16", "Rotated Rastrigin", -5.12, 5.12, is_rotated=True, base_id="f7"),
        BenchmarkSpec("f17", "Rotated Ackley", -32.0, 32.0, is_rotated=True, base_id="f9"),
        BenchmarkSpec("f18", "Rotated Griewank", -600.0, 600.0, is_rotated=True, base_id="f10"),
    ]


SPECS: Dict[str, BenchmarkSpec] = {s.id: s for s in default_suite()}


# ---------------------------------------------------------------------------
# Base functions.  Inputs are 1-D float arrays; each returns a python float.
# ---------------------------------------------------------------------------

def sphere(x):
    return float(np.dot(x, x))


def rosenbrock(x):
    # Sum runs over the D-1 consecutive pairs.
    a = x[:-1]
    b = x[1:]
    d = a * a - b
    e = a - 1.0
    return float(100.0 * np.dot(d, d) + np.dot(e, e))


def schwefel_2_21(x):
    return float(np.max(np.abs(x)))


def schwefel_2_22(x):
    ax = np.abs(x)
    return float(np.sum(ax) + np.prod(ax))


def step(x):
    f = np.floor(x + 0.5)
    return float(np.dot(f, f))


def noise_quadric(x, rng: Optional[RngStream] = None):
    """Weighted quartic sum plus one uniform [0, 1) noise draw per evaluation.

    With ``rng=None`` only the deterministic part is returned.
    """
    x2 = x * x
    base = float(np.dot(np.arange(1, len(x) + 1), x2 * x2))
    if rng is None:
        return base
    return base + float(rng.uniform(0.0, 1.0))


def rastrigin(x):
    return float(np.dot(x, x) - 10.0 * np.sum(np.cos(TWO_PI * x)) + 10.0 * len(x))


def noncontinuous_rastrigin(x):
    # Coordinates beyond |x| >= 0.5 snap to the nearest half-integer,
    # rounding halves away from zero.
    y2 = 2.0 * x
    snapped = 0.5 * np.sign(y2) * np.floor(np.abs(y2) + 0.5)
    y = np.where(np.abs(x) < 0.5, x, snapped)
    return rastrigin(y)


def ackley(x):
    n = len(x)
    return float(
        -20.0 * np.exp(-0.2 * np.sqrt(np.dot(x, x) / n))
        + 20.0
        - np.exp(np.sum(np.cos(TWO_PI * x)) / n)
        + np.e
    )


def griewank(x):
    i = np.sqrt(np.arange(1, len(x) + 1))
    return float(np.dot(x, x) / 4000.0 + 1.0 - np.prod(np.cos(x / i)))


def _penalty_sum(x, a, k, m_exp):
    over = x - a
    under = -x - a
    total = 0.0
    pos = over > 0
    if np.any(pos):
        total += k * float(np.sum(over[pos] ** m_exp))
    neg = under > 0
    if np.any(neg):
        total += k * float(np.sum(under[neg] ** m_exp))
    return total


def penalized_1(x):
    d = len(x)
    y = 1.0 + 0.25 * (x + 1.0)
    sin2 = np.sin(np.pi * y) ** 2
    ym1 = y - 1.0
    core = 10.0 * sin2[0] + ym1[d - 1] ** 2
    if d > 1:
        core += float(np.sum(ym1[:-1] ** 2 * (1.0 + 10.0 * sin2[1:])))
    return float(np.pi / d * core + _penalty_sum(x, 10.0, 100.0, 4.0))


def penalized_2(x):
    # The final term (x_D - 1)(1 + sin^2(3 pi x_D)) is linear, not squared,
    # so the function dips slightly below zero near the unit point.
    d = len(x)
    sin2 = np.sin(3.0 * np.pi * x) ** 2
    xm1 = x - 1.0
    core = sin2[0] + xm1[d - 1] * (1.0 + sin2[d - 1])
    if d > 1:
        core += float(np.sum(xm1[:-1] ** 2 * (1.0 + sin2[1:])))
    return float(0.1 * core + _penalty_sum(x, 5.0, 100.0, 4.0))


_BASE_EVALUATORS = {
    "f1": sphere,
    "f2": rosenbrock,
    "f3": schwefel_2_21,
    "f4": schwefel_2_22,
    "f5": step,
    "f7": rastrigin,
    "f8": noncontinuous_rastrigin,
    "f9": ackley,
    "f10": griewank,
    "f11": penalized_1,
    "f12": penalized_2,
}


# ---------------------------------------------------------------------------
# Rotation matrices
# ---------------------------------------------------------------------------

_ROTATION_TAG = 0x526F74  # fixed entropy word separating rotation streams

ORTHOGONALITY_TOL = 1e-10


@dataclass(frozen=True)
class RotationMatrix:
    matrix: np.ndarray
    seed: int
    dim: int


def make_rotation_matrix(dim: int, seed: int, max_attempts: int = 5) -> RotationMatrix:
    """Random orthogonal matrix: QR of a square standard-Gaussian draw.

    The signs of R's diagonal are folded into Q so the factorization is
    unique.  A numerically degenerate draw is retried on a fresh substream.
    """
    if dim < 1:
        raise ValueError(f"dimensionality must be >= 1, got {dim}")
    for attempt in range(max_attempts):
        rng = RngStream((_ROTATION_TAG, seed, attempt))
        a = rng.standard_gaussian((dim, dim))
        q, r = np.linalg.qr(a)
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        q = q * signs
        if np.max(np.abs(q.T @ q - np.eye(dim))) < ORTHOGONALITY_TOL:
            return RotationMatrix(matrix=q, seed=seed, dim=dim)
    raise RuntimeError(f"could not build an orthogonal matrix after {max_attempts} attempts")


def save_rotation_matrix(path, rm: RotationMatrix) -> None:
    """Plain-text persistence, full round-trip precision, one row per line."""
    with open(path, "w") as fh:
        fh.write(f"D {rm.dim} seed {rm.seed}\n")
        for row in rm.matrix:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_rotation_matrix(path) -> RotationMatrix:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[0] != "D" or header[2] != "seed":
            raise ValueError(f"malformed rotation matrix header in {path}")
        dim = int(header[1])
        seed = int(header[3])
        rows = [[float(v) for v in line.split()] for line in fh if line.strip()]
    matrix = np.array(rows, dtype=float)
    if matrix.shape != (dim, dim):
        raise ValueError(f"rotation matrix in {path} has shape {matrix.shape}, header says {dim}")
    return RotationMatrix(matrix=matrix, seed=seed, dim=dim)


# ---------------------------------------------------------------------------
# Problem construction
# ---------------------------------------------------------------------------

def make_problem(function_id: str, dim: int, rotation: Optional[RotationMatrix] = None,
                 rotation_seed: Optional[int] = None,
                 f8_narrow_range: bool = False) -> ObjectiveProblem:
    """Bind a benchmark spec to a dimensionality (and rotation, if rotated)."""
    if function_id not in SPECS:
        raise ValueError(f"unknown function id {function_id!r}")
    spec = SPECS[function_id]
    lo, hi = spec.lo, spec.hi
    if function_id == "f8" and f8_narrow_range:
        lo, hi = -5.12, 5.12
    bounds = SearchBounds(lo, hi, dim)

    matrix = None
    if spec.is_rotated:
        if rotation is None:
            if rotation_seed is None:
                raise ValueError(f"{function_id} needs a rotation matrix or a rotation seed")
            rotation = make_rotation_matrix(dim, rotation_seed)
        if rotation.dim != dim:
            raise ValueError(f"rotation matrix is {rotation.dim}-D, problem is {dim}-D")
        matrix = rotation.matrix
        base = _BASE_EVALUATORS[spec.base_id]

        def evaluator(x, rng, _base=base, _m=matrix):
            return _base(_m @ x)

    elif spec.id == "f6":
        evaluator = lambda x, rng: noise_quadric(x, rng)  # noqa: E731
    else:
        fn = _BASE_EVALUATORS[spec.id]
        evaluator = lambda x, rng, _fn=fn: _fn(x)  # noqa: E731

    return ObjectiveProblem(function_id=function_id, bounds=bounds,
                            evaluator=evaluator, rotation=matrix)


def optimum_point(function_id: str, dim: int, rotation: Optional[np.ndarray] = None) -> np.ndarray:
    """The known optimizer; rotated ids return the pre-image under M."""
    spec = SPECS[function_id]
    base = spec.base_id if spec.is_rotated else function_id
    if base == "f2" or base == "f12":
        z = np.ones(dim)
    elif base == "f11":
        z = -np.ones(dim)
    else:
        z = np.zeros(dim)
    if spec.is_rotated:
        if rotation is None:
            raise ValueError(f"{function_id} needs its rotation matrix to place the optimum")
        return rotation.T @ z
    return z
