"""Convexity-theory and level-set applications of the pencil machinery.

Positive-combination certificates, emptiness tests, membership of points in
the image of the sphere under the quadratic map, support-function bounds for
that image, Betti numbers of affine level sets of the map, and the diagonal
family that attains the sharp total-Betti bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .betti import analyze
from .circle import (
    CircleSubset,
    PlanarCone,
    _finite_angle,
    canonical_angle,
    omega_set,
    open_half_circle,
)
from .errors import InvalidInputError, NumericalError
from .filtration import (
    FiltrationReport,
    _runs_and_births,
    filtration_for_cone,
    index_profile,
)
from .pencil import QuadraticPencil, _eigvalsh

PI = math.pi
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Certificate:
    """Outcome of a definiteness or membership query.

    kind is one of positive_combination, emptiness, membership, refutation.
    theta is the certified direction on the circle when one exists; margin the
    smallest eigenvalue achieved there.
    """

    kind: str
    theta: float | None = None
    margin: float | None = None
    witness: tuple | None = None
    mu: int | None = None
    warning: str | None = None

    @property
    def omega(self) -> tuple[float, float] | None:
        if self.theta is None:
            return None
        return (math.cos(self.theta), math.sin(self.theta))

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "theta": self.theta,
            "omega": list(self.omega) if self.omega is not None else None,
            "margin": self.margin,
            "witness": list(self.witness) if self.witness is not None else None,
            "mu": self.mu,
            "warning": self.warning,
        }


def _require_finite_point(c: tuple[float, float]) -> None:
    if not all(math.isfinite(v) for v in c):
        raise InvalidInputError(f"the point c = {tuple(c)} has a non-finite coordinate")


def _longest_arc_midpoint(subset: CircleSubset) -> float:
    """The midpoint of the first longest component; a point only when no arc exists."""
    components = subset._components()
    if not components:
        raise NumericalError("no arc to certify from")
    start, end, _, _ = max(components, key=lambda c: c[1] - c[0])
    return canonical_angle(0.5 * (start + end))


def calabi(filt: FiltrationReport) -> Certificate:
    """A positive definite combination of the two forms, or its refutation.

    filt is the pencil's filtration over the full circle, the zero cone's
    domain.  The combination exists exactly when its top superlevel set is
    nonempty; the certificate direction is the midpoint of its longest arc.
    For fewer than three variables the certified equivalence with emptiness
    of the common zero locus fails, so a warning is attached.
    """
    if not filt.profile.domain.is_full():
        raise InvalidInputError("calabi needs the filtration over the full circle "
                                "(the zero cone)")
    p = filt.pencil
    dim = p.dim
    warning = None
    if dim < 3:
        warning = ("with fewer than three variables a jointly definite "
                   "combination may fail to exist for an empty zero locus")
    if filt.mu == dim:
        top = filt.omega(dim)
        theta = _longest_arc_midpoint(top)
        margin = float(_eigvalsh(p.at(theta))[0])
        if margin <= 0.0:
            raise NumericalError("certificate direction failed verification")
        return Certificate("positive_combination", theta=theta, margin=margin,
                           mu=filt.mu, warning=warning)
    thetas = [0.0, PI / 2, PI, 3 * PI / 2] + \
        [canonical_angle(b) for b in filt.profile.breakpoint_angles()]
    margins = _eigvalsh(p.at_many(thetas))[:, 0].tolist()
    best = margins.index(max(margins))  # the first of the largest
    return Certificate("refutation", theta=thetas[best], margin=margins[best],
                       mu=filt.mu, warning=warning)


@dataclass(frozen=True)
class EmptinessResult:
    empty: bool
    mu: int
    certificate: Certificate | None


def is_empty_x(p: QuadraticPencil, cone: PlanarCone) -> EmptinessResult:
    """Whether the solution set in projective space is empty.

    Emptiness is read off the homology: a nonempty compact set has positive
    total Betti number, and the top filtration level filling up forces
    emptiness directly.  For the zero cone in at least three variables an
    emptiness verdict carries a positive-combination certificate.
    """
    res = analyze(p, cone)
    empty = res.report.empty
    cert = None
    if empty and cone.kind == "zero" and p.dim >= 3:
        cert = calabi(res.filtration)
        if cert.kind != "positive_combination":
            raise NumericalError("emptiness verdict without a certificate")
    return EmptinessResult(empty, res.filtration.mu, cert)


def image_membership(p: QuadraticPencil, c: tuple[float, float]
                     ) -> tuple[bool, Certificate]:
    """Whether c lies in the image of the unit sphere under the quadratic map.

    Shifting both forms by the sphere form reduces membership to emptiness of
    the shifted common zero locus; non-membership yields a separating
    direction along which the shifted family is positive definite.
    """
    if p.dim < 3:
        raise InvalidInputError("image membership requires at least three variables")
    _require_finite_point(c)
    shifted = p.shifted(c[0], c[1])
    filt = filtration_for_cone(shifted, PlanarCone.zero())
    if filt.mu < p.dim:
        return (True, Certificate("membership", mu=filt.mu))
    cert = calabi(filt)
    return (False, Certificate("emptiness", theta=cert.theta, margin=cert.margin,
                               mu=filt.mu))


def support_function(p: QuadraticPencil, theta: float) -> float:
    """Largest eigenvalue of the family at theta: the support value of the
    sphere image in that direction."""
    return float(_eigvalsh(p.at(_finite_angle(theta)))[-1])


# ---------------------------------------------------------------------------
# level sets of the quadratic map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelProblem:
    """An affine level problem q(x) = c or q(x) <= c componentwise."""

    pencil: QuadraticPencil
    c: tuple[float, float]
    mode: str = "eq"

    def __post_init__(self):
        if self.mode not in ("eq", "ineq"):
            raise InvalidInputError("mode must be 'eq' or 'ineq'")
        _require_finite_point(self.c)


@dataclass(frozen=True)
class LevelSetResult:
    nonempty: bool
    b_tilde: tuple[int, ...]
    min_negative_index: int | None  # None when the half circle is empty


def _negative_direction_halfcircle(c: tuple[float, float]) -> CircleSubset:
    """{omega : <omega, c> < 0}, empty when c = 0."""
    if math.hypot(c[0], c[1]) == 0.0:
        return CircleSubset.empty()
    return open_half_circle(math.atan2(-c[1], -c[0]))


def _level_result(p: QuadraticPencil, domain: CircleSubset) -> LevelSetResult:
    """Reduced Betti numbers of the level set from the sublevel sets
    L_k = {i_minus <= k} of the profile over a level domain.

    b~_k = b0(L_(k+1), L_k) + b1(L_(k+2), L_(k+1)), and for a pair b <= a of
    sets short of the full circle b1 = b0 - chi(a) + chi(b) with chi the
    component count.  A level domain is an open half circle, or its
    intersection with the quadrant's polar arc, never the full circle.  On
    the profile's cyclic cells at[0], after[0], at[1], ..., mirrored to
    top - i_minus and to 0 outside the domain, L_k is the superlevel set at
    level top - k, so its components are the runs _runs_and_births counts
    there, and b0(L_(k+1), L_k) its births, the components of L_(k+1) whose
    smallest i_minus is k + 1.  Then b~_k = births_(k+1) + |L_(k+1)| -
    |L_(k+2)| + births_(k+2).
    """
    n = p.n
    if domain.is_empty():
        # the level value is already attainable at the origin
        return LevelSetResult(True, tuple([0] * (n + 1)), None)
    prof = index_profile(p, domain)
    min_minus = prof._index_range[2]
    if min_minus == 0:
        return LevelSetResult(False, tuple([0] * (n + 1)), min_minus)
    top = n + 3  # above every i_minus <= dim = n + 1, so every held cell is above 0
    cells = [0 if v is None else top - v.i_minus for pair in zip(prof.at, prof.after) for v in pair]
    runs, births = _runs_and_births(cells, top)
    # L_(k+1) is the level j = top - k - 1, for k = 0 .. n
    b_tilde = tuple(births[j] + runs[j] - runs[j - 1] + births[j - 1]
                    for j in range(top - 1, 1, -1))
    return LevelSetResult(True, b_tilde, min_minus)


def level_set_betti(problem: LevelProblem) -> LevelSetResult:
    """Nonemptiness and reduced Betti numbers of the affine level set q = c.

    The test runs over the open half circle of directions pairing negatively
    with c; the level set is empty exactly when the negative index vanishes
    somewhere there.  An empty half circle (c = 0) means the level set is the
    cone over its spherical section, hence nonempty and contractible.
    """
    if problem.mode != "eq":
        raise InvalidInputError("level_set_betti expects an equality problem")
    domain = _negative_direction_halfcircle(problem.c)
    return _level_result(problem.pencil, domain)


def inequality_level_set(problem: LevelProblem) -> LevelSetResult:
    """Same as level_set_betti for the componentwise system q <= c.

    Directions are restricted to the polar arc of the nonpositive quadrant.
    """
    if problem.mode != "ineq":
        raise InvalidInputError("inequality_level_set expects an inequality problem")
    half = _negative_direction_halfcircle(problem.c)
    quadrant_arc = omega_set(PlanarCone.nonpositive_quadrant())
    domain = quadrant_arc.intersect(half)
    return _level_result(problem.pencil, domain)


def solve_level_problem(problem: LevelProblem) -> LevelSetResult:
    if problem.mode == "eq":
        return level_set_betti(problem)
    return inequality_level_set(problem)


# ---------------------------------------------------------------------------
# the extremal diagonal family
# ---------------------------------------------------------------------------

# the largest n extremal_family builds: two dense forms of dim 1024, 8 MB each,
# where n = 20000 would ask for 3.2 GB each
MAX_EXTREMAL_N = 1023


def extremal_family(n: int) -> QuadraticPencil:
    """The diagonal pair with k-th entries at the (n+1)-st roots of unity.

    Its index profile alternates between the two middle values, each attained
    n+1 times around the circle, and its solution set attains the sharp total
    Betti number 2n.  n outside 1 .. MAX_EXTREMAL_N is InvalidInputError.
    """
    if not 1 <= n <= MAX_EXTREMAL_N:
        raise InvalidInputError(f"the extremal family needs 1 <= n <= {MAX_EXTREMAL_N}, not {n}")
    angles = 2.0 * PI * np.arange(n + 1) / (n + 1)
    return QuadraticPencil(np.diag(np.cos(angles)), np.diag(np.sin(angles)))
