"""Reference implementations that the tests compare the library against.

None of these computes one of the paper's formulas; each checks one by
another route, and no library module calls them.

- feasibility_sample decides whether a level set is empty by multi-start
  descent (scipy.optimize, loaded on its first call), with an independent
  support-function margin.
- betti_pair gives the relative Betti numbers of a nested pair of circle
  subsets from the sets themselves: the components of the larger set that
  miss the smaller, and the exact sequence of the pair.
- sylvester_check tests Sylvester's law of inertia on one congruence.
- angles_equal, subsets_equal and cones_equal compare angles, circle subsets
  and cones up to the angular tolerance.

pytest puts this directory on sys.path, so test modules import it as
``references``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from quadrics.applications import LevelProblem
from quadrics.circle import (
    PI,
    TOL_ANGLE,
    TWO_PI,
    CircleSubset,
    PlanarCone,
    _locate,
    canonical_angle,
)
from quadrics.errors import InvalidInputError
from quadrics.pencil import _as_symmetric, _lapack, inertia

# absolute residual scale below which a descent iterate counts as a witness
FEAS_TOL = 1e-6
# descent runs DESCENT_STARTS + 2 * dim starts, its margin SUPPORT_DIRECTIONS angles
DESCENT_STARTS = 6
SUPPORT_DIRECTIONS = 1024


# ---------------------------------------------------------------------------
# angles, circle subsets and cones up to the angular tolerance
# ---------------------------------------------------------------------------

def angles_equal(a: float, b: float) -> bool:
    d = abs(canonical_angle(a) - canonical_angle(b))
    return d <= TOL_ANGLE or TWO_PI - d <= TOL_ANGLE


def subsets_equal(a: CircleSubset, b: CircleSubset) -> bool:
    """Set-level equality up to the angular tolerance."""
    return a.is_subset_of(b) and b.is_subset_of(a)


def cones_equal(k1: PlanarCone, k2: PlanarCone) -> bool:
    if k1.kind != k2.kind:
        return False
    if k1.kind in ("zero", "full"):
        return True
    if k1.kind == "line":
        return angles_equal(k1.start, k2.start) or angles_equal(k1.start + PI, k2.start)
    return angles_equal(k1.start, k2.start) and abs(k1.sweep - k2.sweep) <= TOL_ANGLE


# ---------------------------------------------------------------------------
# Euler characteristics of circle subsets and Betti numbers of pairs
# ---------------------------------------------------------------------------

def euler_circle(a: CircleSubset) -> int:
    """Euler characteristic: number of contractible components (full circle: 0)."""
    if a.is_full():
        return 0
    return a.n_components()


def _components_met(a: CircleSubset, b: CircleSubset) -> set[int]:
    """The components of a (not full) that meet its subset b.

    A component of a is labelled by its held arc after cuts[i] as i (a held
    point at an arc's end joins that arc), or as n + i when it is the isolated
    point cuts[i].  Each held point and open arc of b lies in one component of
    a, so one pass over b's cuts, bisecting a's at a point of each, finds them.
    """
    after, n = a.after, len(a.cuts)

    def label(t: float) -> int:
        j, on_cut = _locate(a.cuts, t)
        if not on_cut or after[j]:
            return j
        return (j - 1) % n if after[j - 1] else n + j

    cb, m = b.cuts, len(b.cuts)
    met = {label(cb[i]) for i in range(m) if b.at[i]}
    met.update(label(0.5 * (cb[i] + (cb[i + 1] if i + 1 < m else cb[0] + TWO_PI)))
               for i in range(m) if b.after[i])
    return met


def betti_pair(a: CircleSubset, b: CircleSubset) -> tuple[int, int]:
    """Relative (b0, b1) of a nested pair b <= a of circle subsets.

    b0 counts components of a missing b entirely; b1 follows from exactness
    of the homology sequence of the pair.
    """
    if not b.is_subset_of(a):
        raise InvalidInputError("betti_pair requires b to be contained in a")
    if a.is_full():
        b0_rel = 0 if not b.is_empty() else 1
    else:
        b0_rel = a.n_components() - len(_components_met(a, b))
    b1_rel = b0_rel - euler_circle(a) + euler_circle(b)
    if b1_rel < 0:
        raise InvalidInputError("inconsistent pair: negative relative b1")
    return (b0_rel, b1_rel)


# ---------------------------------------------------------------------------
# Sylvester's law of inertia
# ---------------------------------------------------------------------------

def sylvester_check(m: np.ndarray, t: np.ndarray) -> bool:
    """Whether inertia is preserved under the congruence m -> t' m t."""
    a = _as_symmetric(m, "matrix")
    t = np.asarray(t, dtype=float)
    return inertia(a) == inertia(t.T @ a @ t)


# ---------------------------------------------------------------------------
# level-set feasibility by descent
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeasibilitySample:
    found: bool
    witness: tuple | None
    margin: float
    residual: float


def _support_margin(problem: LevelProblem) -> float:
    """Signed slack of c against the supporting halfplanes of the image.

    Positive margins mean every sampled supporting constraint holds strictly;
    negative means some constraint is violated by that amount.  Infinity when
    no sampled direction supports the image at the origin.
    """
    p = problem.pencil
    c = np.asarray(problem.c)
    scale = max(p.scale(), 1e-12)
    thetas = np.linspace(0.0, TWO_PI, SUPPORT_DIRECTIONS, endpoint=False)
    cos = np.array([math.cos(t) for t in thetas])
    sin = np.array([math.sin(t) for t in thetas])
    keep = np.ones(SUPPORT_DIRECTIONS, dtype=bool)
    if problem.mode == "ineq":  # only directions in the nonpositive quadrant
        keep = (cos <= 1e-12) & (sin <= 1e-12)
    top = _lapack(np.linalg.eigvalsh, p.at_many(thetas[keep]))[:, -1]
    supporting = top <= 1e-10 * scale
    slack = -(cos[keep] * c[0] + sin[keep] * c[1])
    return float(np.min(slack[supporting], initial=math.inf))


def feasibility_sample(problem: LevelProblem, seed: int = 0) -> FeasibilitySample:
    """Multi-start descent on the squared residual of the level problem.

    found is True when some run drives the residual below tolerance; the
    witness is the final iterate.  seed drives the random starts.  The margin comes from an independent
    support-function scan and is reliable only when it clears the tolerance
    by a healthy factor.
    """
    # imported on first use, not with the module: scipy.optimize costs about 18 MB and 0.2 s
    from scipy.optimize import minimize
    p = problem.pencil
    c = np.asarray(problem.c, dtype=float)
    dim = p.dim
    rng = np.random.default_rng(seed)
    ineq = problem.mode == "ineq"
    tol = FEAS_TOL * max(1.0, float(np.linalg.norm(c)), p.scale())

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        r0 = float(x @ p.q0 @ x) - c[0]
        r1 = float(x @ p.q1 @ x) - c[1]
        if ineq:
            r0 = max(r0, 0.0)
            r1 = max(r1, 0.0)
        val = r0 * r0 + r1 * r1
        grad = 4.0 * (r0 * (p.q0 @ x) + r1 * (p.q1 @ x))
        return val, grad

    best_val = math.inf
    best_x = np.zeros(dim)
    for k in range(DESCENT_STARTS + 2 * dim):
        radius = (0.3, 1.0, 3.0)[k % 3]
        x0 = radius * rng.standard_normal(dim)
        res = minimize(objective, x0, jac=True, method="L-BFGS-B",
                       options={"maxiter": 200})
        if res.fun < best_val:
            best_val = float(res.fun)
            best_x = np.asarray(res.x)
        if math.sqrt(max(best_val, 0.0)) < tol:
            break
    residual = math.sqrt(max(best_val, 0.0))
    found = residual < tol
    margin = _support_margin(problem)
    return FeasibilitySample(found, tuple(best_x) if found else None,
                             margin, residual)
