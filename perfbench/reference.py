"""Reference answers that do not come from the code under test.

Everything here works from the two matrices with numpy alone: inertia on a
uniform angular grid, the levelwise Euler number of the superlevel
filtration read off that grid, and the support function.  The grid misses
arcs narrower than its spacing, so a grid that sees a near-singular sample
or a jump of more than one between neighbours declares itself undecided and
only the checks that need no grid are applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
# matches the library's default relative eigenvalue tolerance
TOL_EIG = 1e-9
# a grid sample this close to singular (relative to the pencil scale) makes
# the grid reading undecided
NEAR_SINGULAR = 1e-7


def pencil_scale(q0: np.ndarray, q1: np.ndarray) -> float:
    return max(float(np.max(np.abs(np.linalg.eigvalsh(q0)))),
               float(np.max(np.abs(np.linalg.eigvalsh(q1)))))


def family_eigenvalues(q0: np.ndarray, q1: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of cos(t) Q0 + sin(t) Q1 for every t, stacked."""
    stack = (np.cos(thetas)[:, None, None] * q0[None]
             + np.sin(thetas)[:, None, None] * q1[None])
    return np.linalg.eigvalsh(stack)


@dataclass(frozen=True)
class GridReading:
    """Inertia of the family on a uniform grid over the full circle."""

    dim: int
    thetas: np.ndarray
    i_plus: np.ndarray
    i_minus: np.ndarray
    i_zero: np.ndarray
    decided: bool

    @property
    def mu(self) -> int:
        return int(self.i_plus.max())

    @property
    def nu(self) -> int:
        return int(self.i_plus.min())


def grid_reading(q0: np.ndarray, q1: np.ndarray, resolution: int) -> GridReading:
    thetas = np.linspace(0.0, TWO_PI, resolution, endpoint=False)
    w = family_eigenvalues(q0, q1, thetas)
    scale = pencil_scale(q0, q1)
    thr = TOL_EIG * scale
    plus = np.sum(w > thr, axis=1)
    minus = np.sum(w < -thr, axis=1)
    zero = w.shape[1] - plus - minus
    near = np.min(np.abs(w), axis=1)
    jumps = np.abs(np.diff(np.append(plus, plus[0])))
    decided = bool(np.all(near > NEAR_SINGULAR * scale) and np.all(jumps <= 1))
    return GridReading(w.shape[1], thetas, plus, minus, zero, decided)


def _arc_count(mask: np.ndarray) -> int:
    """Maximal cyclic runs of True; -1 for the full circle."""
    if mask.all():
        return -1
    starts = mask & ~np.roll(mask, 1)
    return int(np.sum(starts))


def levelwise_euler(reading: GridReading) -> int:
    """Euler number of the solution set for the zero cone.

    Alternating sum over the superlevel sets {i_plus >= j}: an open arc
    counts one, the full circle and the empty set count zero.  The empty
    solution set (a definite member in the family) has Euler number zero.
    """
    n = reading.dim - 1
    if reading.mu == reading.dim:
        return 0
    acc = 1 if n % 2 == 0 else 0
    for j in range(0, n + 1):
        arcs = _arc_count(reading.i_plus >= j + 1)
        acc += (-1) ** (j + 1) * max(arcs, 0)
    return (-1) ** n * acc


def support_value(q0: np.ndarray, q1: np.ndarray, theta: float) -> float:
    """Largest eigenvalue of the family at theta."""
    return float(np.linalg.eigvalsh(math.cos(theta) * q0 + math.sin(theta) * q1)[-1])


def min_eigenvalue(q0: np.ndarray, q1: np.ndarray, theta: float) -> float:
    return float(np.linalg.eigvalsh(math.cos(theta) * q0 + math.sin(theta) * q1)[0])


def quad_map(q0: np.ndarray, q1: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    return (float(x @ q0 @ x), float(x @ q1 @ x))
