"""Benchmark function suite: 6 unimodal, 6 multimodal and 6 rotated problems.

All problems are minimization with optimum value 0.  ``SPECS`` holds one
row per function id: its search box, its row-wise function and its
minimizer.  The rotated f13..f18 each name an unrotated base row and
evaluate its function at z = M x, for an orthogonal matrix M generated once
per experiment and persisted to disk so that every algorithm and every run
faces the identical landscape.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional

import numpy as np

from .core import ObjectiveProblem, RngStream, SearchBounds

TWO_PI = 2.0 * np.pi

# ---------------------------------------------------------------------------
# Base functions.  Each is row-wise: ``x`` is (..., D), one point per row,
# and the result is (...), one value per row.  Every form below gives, row
# by row, the bits of the same formula on a lone point: ``np.vecdot`` is the
# BLAS dot of ``np.dot`` and the reductions run along each row.  They call
# ``ufunc.reduce`` directly, the computation ``np.sum`` / ``np.prod`` /
# ``np.max`` make, without those wrappers' cost per call.
# ---------------------------------------------------------------------------

def sphere(x):
    return np.vecdot(x, x)


def rosenbrock(x):
    # Sum runs over the D-1 consecutive pairs.
    a = x[..., :-1]
    b = x[..., 1:]
    d = a * a - b
    e = a - 1.0
    return 100.0 * np.vecdot(d, d) + np.vecdot(e, e)


def schwefel_2_21(x):
    return np.maximum.reduce(np.abs(x), axis=-1)


def schwefel_2_22(x):
    ax = np.abs(x)
    return np.add.reduce(ax, axis=-1) + np.multiply.reduce(ax, axis=-1)


def step(x):
    f = np.floor(x + 0.5)
    return np.vecdot(f, f)


def noise_quadric(x):
    """The weighted quartic sum of f6, whose problem is ``noisy``: the
    generation sweep adds one uniform [0, 1) draw per evaluation."""
    x2 = x * x
    return np.vecdot(np.arange(1.0, x.shape[-1] + 1), x2 * x2)


def rastrigin(x):
    return (np.vecdot(x, x) - 10.0 * np.add.reduce(np.cos(TWO_PI * x), axis=-1)
            + 10.0 * x.shape[-1])


def noncontinuous_rastrigin(x):
    # Coordinates beyond |x| >= 0.5 snap to the nearest half-integer,
    # rounding halves away from zero.
    y2 = 2.0 * x
    snapped = 0.5 * np.sign(y2) * np.floor(np.abs(y2) + 0.5)
    y = np.where(np.abs(x) < 0.5, x, snapped)
    return rastrigin(y)


def ackley(x):
    n = x.shape[-1]
    return (-20.0 * np.exp(-0.2 * np.sqrt(np.vecdot(x, x) / n))
            + 20.0
            - np.exp(np.add.reduce(np.cos(TWO_PI * x), axis=-1) / n)
            + np.e)


def griewank(x):
    i = np.sqrt(np.arange(1, x.shape[-1] + 1))
    return np.vecdot(x, x) / 4000.0 + 1.0 - np.multiply.reduce(np.cos(x / i), axis=-1)


def _penalty_sum(x, a, k):
    """k * the sum, per row, of (|x_d| - a)^4 over the coordinates outside [-a, a]."""
    s = np.maximum(np.abs(x) - a, 0.0)   # exactly 0 inside the box
    s2 = s * s   # products, not ``** 4``, whose last bit depends on numpy's SIMD path
    return k * np.add.reduce(s2 * s2, axis=-1)


def penalized_1(x):
    d = x.shape[-1]
    y = 1.0 + 0.25 * (x + 1.0)
    sin2 = np.sin(np.pi * y) ** 2
    ym1 = y - 1.0
    # libm pow, the value a lone point's scalar ``** 2`` gives; ``**`` on an
    # array squares, which differs in the last bit for about 1 value in 1000.
    core = 10.0 * sin2[..., 0] + np.float_power(ym1[..., d - 1], 2)
    if d > 1:
        core = core + np.add.reduce(ym1[..., :-1] ** 2 * (1.0 + 10.0 * sin2[..., 1:]), axis=-1)
    return np.pi / d * core + _penalty_sum(x, 10.0, 100.0)


def penalized_2(x):
    # The final term (x_D - 1)(1 + sin^2(3 pi x_D)) is linear, not squared,
    # so the function dips slightly below zero near the unit point.
    d = x.shape[-1]
    sin2 = np.sin(3.0 * np.pi * x) ** 2
    xm1 = x - 1.0
    core = sin2[..., 0] + xm1[..., d - 1] * (1.0 + sin2[..., d - 1])
    if d > 1:
        core = core + np.add.reduce(xm1[..., :-1] ** 2 * (1.0 + sin2[..., 1:]), axis=-1)
    return 0.1 * core + _penalty_sum(x, 5.0, 100.0)


@dataclass(frozen=True)
class BenchmarkSpec:
    """One benchmark function: the box [lo, hi] of every coordinate (``narrow``,
    if set, is the half-width of the box ``make_problem(f8_narrow_range=True)``
    gives instead), the row-wise ``function`` (without the noise a ``noisy`` one
    adds to each evaluation) and the coordinate ``optimum`` its minimizer repeats
    in every dimension.  A rotated function evaluates its ``base_id`` row's
    function at z = M x and keeps that row's box, optimum and noise."""

    id: str
    name: str
    lo: float
    hi: float
    function: Callable
    optimum: float = 0.0
    base_id: Optional[str] = None
    noisy: bool = False
    narrow: Optional[float] = None

    @property
    def is_rotated(self) -> bool:
        return self.base_id is not None


# The noncontinuous Rastrigin (f8) keeps its published [-600, 600] range
# even though the usual literature uses [-5.12, 5.12], its ``narrow`` box.
SPECS: Dict[str, BenchmarkSpec] = {s.id: s for s in (
    BenchmarkSpec("f1", "Sphere", -500.0, 500.0, sphere),
    BenchmarkSpec("f2", "Rosenbrock", -2.048, 2.048, rosenbrock, optimum=1.0),
    BenchmarkSpec("f3", "Schwefel 2.21", -10.0, 10.0, schwefel_2_21),
    BenchmarkSpec("f4", "Schwefel 2.22", -10.0, 10.0, schwefel_2_22),
    BenchmarkSpec("f5", "Step", -100.0, 100.0, step),
    BenchmarkSpec("f6", "Noise Quadric", -2.048, 2.048, noise_quadric, noisy=True),
    BenchmarkSpec("f7", "Rastrigin", -5.12, 5.12, rastrigin),
    BenchmarkSpec("f8", "Noncontinuous Rastrigin", -600.0, 600.0, noncontinuous_rastrigin,
                  narrow=5.12),
    BenchmarkSpec("f9", "Ackley", -32.0, 32.0, ackley),
    BenchmarkSpec("f10", "Griewank", -600.0, 600.0, griewank),
    BenchmarkSpec("f11", "Penalized 1", -50.0, 50.0, penalized_1, optimum=-1.0),
    BenchmarkSpec("f12", "Penalized 2", -50.0, 50.0, penalized_2, optimum=1.0),
)}
SPECS.update({fid: replace(SPECS[base], id=fid, name=f"Rotated {SPECS[base].name}",
                           base_id=base)
              for fid, base in (("f13", "f1"), ("f14", "f2"), ("f15", "f3"),
                                ("f16", "f7"), ("f17", "f9"), ("f18", "f10"))})

FUNCTION_IDS = tuple(SPECS)


# ---------------------------------------------------------------------------
# Rotation matrices
# ---------------------------------------------------------------------------

_ROTATION_TAG = 0x526F74  # fixed entropy word separating rotation streams


@dataclass(frozen=True)
class RotationMatrix:
    matrix: np.ndarray
    seed: int
    dim: int


def make_rotation_matrix(dim: int, seed: int) -> RotationMatrix:
    """Random orthogonal matrix: QR of a square standard-Gaussian draw.

    The signs of R's diagonal are folded into Q so the factorization is
    unique.  The draw comes from substream ``(_ROTATION_TAG, seed, 0)``;
    :class:`ObjectiveProblem` checks the result is orthogonal.
    """
    if dim < 1:
        raise ValueError(f"dimensionality must be >= 1, got {dim}")
    a = RngStream((_ROTATION_TAG, seed, 0)).standard_gaussian((dim, dim))
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return RotationMatrix(matrix=q * signs, seed=seed, dim=dim)


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
                 f8_narrow_range: bool = False, boundary: str = "clamp") -> ObjectiveProblem:
    """Bind a benchmark spec to a dimensionality and to the boundary policy
    (``clamp`` or ``none``, see :class:`SearchBounds`).  A rotated id needs
    its ``rotation`` matrix (see :func:`make_rotation_matrix`); an unrotated
    id refuses one."""
    if function_id not in SPECS:
        raise ValueError(f"unknown function id {function_id!r}")
    spec = SPECS[function_id]
    lo, hi = spec.lo, spec.hi
    if f8_narrow_range and spec.narrow is not None:
        lo, hi = -spec.narrow, spec.narrow
    bounds = SearchBounds(lo, hi, dim, boundary)
    if spec.is_rotated:
        if rotation is None:
            raise ValueError(f"{function_id} needs a rotation matrix")
        if rotation.dim != dim:
            raise ValueError(f"rotation matrix is {rotation.dim}-D, problem is {dim}-D")
    elif rotation is not None:
        raise ValueError(f"{function_id} is not rotated; it takes no rotation")
    return ObjectiveProblem(function_id=function_id, bounds=bounds, function=spec.function,
                            rotation=None if rotation is None else rotation.matrix,
                            noisy=spec.noisy)


def optimum_point(function_id: str, dim: int, rotation: Optional[np.ndarray] = None) -> np.ndarray:
    """The known optimizer; rotated ids return the pre-image under M."""
    spec = SPECS[function_id]
    z = np.full(dim, spec.optimum)
    if spec.is_rotated:
        if rotation is None:
            raise ValueError(f"{function_id} needs its rotation matrix to place the optimum")
        return rotation.T @ z
    return z
