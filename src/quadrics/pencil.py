"""Linear algebra of a pencil of two symmetric forms over the circle.

The central object is the family omega -> cos(theta) Q0 + sin(theta) Q1.
This module computes inertia triples and the degenerate locus: the angles
where the family drops rank, with multiplicities, the count of non-real
projective roots and the family's rank deficit.  An exact-arithmetic count
of the same roots, and the exact inertia of a member, are references in
quadrics.oracles.

The locus is the angles of one QZ solve, used as QZ gives them; the chart
pair of an identically singular family is first compressed to a pair
congruent to its regular part.  QZ is backward stable, so a simple root
already reads as degenerate at the profile's threshold TOL_EIG * scale (the
tests measure it against that); and a simple root is a sign crossing, so one
that read as regular would break the semicontinuity check downstream rather
than give a wrong answer.  A pencil of two diagonal forms is read, not
solved: its roots are the angles QZ gives a diagonal chart pair, and its
members' counts are the signs of their diagonals.
"""

from __future__ import annotations

import bisect
import functools
import importlib.machinery
import importlib.util
import math
import operator
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .circle import TOL_ANGLE, canonical_angle
from .errors import InvalidInputError, NumericalError

PI = math.pi
TWO_PI = 2.0 * math.pi


def _load_flapack():
    """scipy's LAPACK extension, scipy.linalg._flapack, the module whose
    dggev, dsytrd, dgesdd and dgesdd_lwork scipy.linalg.lapack re-exports.

    The scipy.linalg package is not imported: its __init__ loads about 330
    modules and 26 MB more, and the library calls these routines alone.  A
    process that has loaded the extension, by either route, keeps its one
    copy in sys.modules, so both routes call the same Fortran objects.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    where = [os.path.join(d, "linalg") for d in scipy.submodule_search_locations] if scipy else []
    spec = importlib.machinery.PathFinder.find_spec(name, where)
    if spec is None:
        raise ImportError(f"no {name} extension in {where}", name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


lapack = _load_flapack()

# relative symmetry tolerance for input matrices
TOL_SYM = 1e-12
# |Im(root)| below IMAG_TOL * (1 + |Re|) counts as a real root; generous enough
# that a numerically split double root is still recognized as real
IMAG_TOL = 1e-6
# at_many builds its stack in slices of at most this many entries, so the
# products of a slice stay in cache; a 720 x 6 x 6 grid is one slice
AT_MANY_SLICE = 1 << 15
# the largest grid_n the grid oracle takes, and the largest support
# --directions of the CLI: a billion would ask numpy for gigabytes before
# anything is solved, and README's dim-256 grid example uses 20000
MAX_ANGLES = 1 << 20
# family_counts, and the grid oracle, which reads this at call time, count
# members of at least this dimension by a Sturm pass on their tridiagonal form
# (_sturm_inertia); below it the profile solves a stack by eigvalsh and the
# grid counts one by its own batched reduction.  Streamed count over the other
# path (scripts/grid_timing.py, one OpenBLAS thread): full-circle profile,
# random pencils 1.04-1.40 at dims 10-13, 0.85-0.92 at 14-15 and 0.40-0.75 at
# 16-40, diagonal members 0.74-1.35 at 10-15; 720-angle grid, random pencils
# 1.16 at 13 and 0.79-0.92 at 14-16.  Both cross at 14; the bound is 16,
# where it was when the grid took it over
COUNT_DIM = 16
_SAFMIN = float(np.finfo(float).tiny)
# a pencil's entries are at most ENTRY_BOUND / dim in magnitude.  A form's
# spectral norm is at most dim times its largest entry, so every form and
# family member then has norm at most sqrt(2) * 2^1020, and scale() and every
# eigenvalue stay finite (DBL_MAX is about 2^1024).  Past it scale() could
# overflow to inf, and with it the zero band: random pencils of dims 9-16
# with entries of 8.9e307 returned wrong Betti numbers without raising
ENTRY_BOUND = 2.0 ** 1020
# the locus's rank decisions: a singular value of the unit-scale chart pair, or
# of a matrix built from its orthonormal frames, counts as zero up to RANK_TOL
RANK_TOL = 1e-8
# an eigenvalue of a member counts as zero when its modulus is at most TOL_EIG
# times the scale: the family's (QuadraticPencil.scale), or the matrix's own
TOL_EIG = 1e-9
# locus roots closer than this, modulo pi, are one point
CLUSTER_TOL = 10.0 * TOL_ANGLE


def _entry_bound_error(what: str) -> InvalidInputError:
    return InvalidInputError(f"{what} has an entry above 2^1020 / dim in magnitude")


def _as_symmetric(m, what: str, bounded: bool = False) -> np.ndarray:
    """m as a read-only symmetric float matrix; bounded checks the pencil
    entry bound ENTRY_BOUND / dim."""
    try:
        a = np.asarray(m, dtype=float)
    except (TypeError, ValueError) as exc:  # a string, or ragged rows
        raise InvalidInputError(f"{what} is not a matrix of numbers") from exc
    except OverflowError as exc:  # an integer past the float range
        raise InvalidInputError(f"{what} has an entry past the float range") from exc
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise InvalidInputError(f"{what} must be a non-empty square matrix")
    largest = float(np.max(np.abs(a)))  # nan or inf if an entry is
    if not math.isfinite(largest):
        raise InvalidInputError(f"{what} has a non-finite entry")
    if bounded and largest > ENTRY_BOUND / len(a):
        raise _entry_bound_error(what)
    scale = max(1.0, largest)
    if float(np.max(np.abs(a - a.T))) > TOL_SYM * scale:
        raise InvalidInputError(f"{what} is not symmetric within tolerance")
    sym = 0.5 * (a + a.T)
    sym.setflags(write=False)
    return sym


class InertiaTriple(NamedTuple):
    """Counts of positive, negative and (numerically) zero eigenvalues."""

    i_plus: int
    i_minus: int
    i_zero: int

    @property
    def dim(self) -> int:
        return self.i_plus + self.i_minus + self.i_zero


@functools.lru_cache(maxsize=4096)
def shared_triple(plus: int, minus: int, zero: int) -> InertiaTriple:
    """The one shared InertiaTriple of these counts.

    A profile holds two triples per breakpoint but only a few distinct ones,
    and a kept analysis keeps its profile.
    """
    return InertiaTriple(plus, minus, zero)


@dataclass(frozen=True, eq=False)
class QuadraticPencil:
    """A pair of symmetric forms acting on R^(n+1)."""

    q0: np.ndarray
    q1: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q0", _as_symmetric(self.q0, "Q0", bounded=True))
        object.__setattr__(self, "q1", _as_symmetric(self.q1, "Q1", bounded=True))
        if self.q0.shape != self.q1.shape:
            raise InvalidInputError("Q0 and Q1 must have equal dimensions")

    @property
    def dim(self) -> int:
        return self.q0.shape[0]

    @property
    def n(self) -> int:
        return self.dim - 1

    def scale(self) -> float:
        """A spectral-norm scale of the pair, used for relative tolerances:
        the larger spectral norm of the two forms (_spectral_norm).

        Computed on first use and kept: the forms are read-only.
        """
        s = self.__dict__.get("_scale")
        if s is None:
            s = max(_spectral_norm(self.q0), _spectral_norm(self.q1))
            object.__setattr__(self, "_scale", s)
        return s

    def at(self, theta: float) -> np.ndarray:
        return math.cos(theta) * self.q0 + math.sin(theta) * self.q1

    def at_many(self, thetas) -> np.ndarray:
        """The family at every angle as a (k, d, d) stack.

        The coefficients come from math.cos/math.sin, so member i is bitwise
        equal to at(thetas[i]); every member is exactly symmetric.  The stack
        is filled in slices of at most AT_MANY_SLICE entries, with no
        full-size temporary.
        """
        c = np.fromiter(map(math.cos, thetas), float)
        s = np.fromiter(map(math.sin, thetas), float)
        d = self.dim
        out = np.empty((len(c), d, d))
        step = max(1, AT_MANY_SLICE // (d * d))
        for lo in range(0, len(c), step):
            part = np.multiply(c[lo:lo + step, None, None], self.q0, out=out[lo:lo + step])
            part += s[lo:lo + step, None, None] * self.q1
        return out

    def evaluate(self, x: np.ndarray) -> tuple[float, float]:
        x = np.asarray(x, dtype=float)
        return (float(x @ self.q0 @ x), float(x @ self.q1 @ x))

    def shifted(self, c0: float, c1: float) -> "QuadraticPencil":
        """The pencil of (q0 - c0*g, q1 - c1*g) with g the unit-sphere form.

        Bit for bit QuadraticPencil(q0 - c0*I, q1 - c1*I), without its input
        checks: the forms were checked, q - c*I stays exactly symmetric, and
        only the diagonal moves, so only it is checked against the bound,
        and the shifted pencil is diagonal exactly when this one is.
        """
        if not (math.isfinite(c0) and math.isfinite(c1)):
            raise InvalidInputError("the shift c has a non-finite coordinate")
        eye = np.eye(self.dim)
        out = object.__new__(QuadraticPencil)
        for name, q, c in (("q0", self.q0, c0), ("q1", self.q1, c1)):
            form = q - c * eye
            if np.max(np.abs(np.diagonal(form))) > ENTRY_BOUND / self.dim:
                raise _entry_bound_error(f"{name.upper()} - c * I")
            form.setflags(write=False)
            object.__setattr__(out, name, form)
        object.__setattr__(out, "_diagonal", _is_diagonal(self))
        return out

    def to_json(self) -> dict:
        return {"n": self.n, "Q0": self.q0.tolist(), "Q1": self.q1.tolist()}

    @staticmethod
    def from_json(data: dict) -> "QuadraticPencil":
        try:
            q0 = data["Q0"]
            q1 = data["Q1"]
        except KeyError as exc:
            raise InvalidInputError(f"problem JSON missing key {exc}") from exc
        p = QuadraticPencil(q0, q1)
        n = data.get("n", p.n)
        if isinstance(n, bool) or not isinstance(n, (int, float)) or n != p.n:
            raise InvalidInputError(f"declared n = {n!r} is not the matrix dimension "
                                    f"minus one, {p.n}")
        return p


def _lapack(solve, *args, what: str = "eigenvalue", **kwargs):
    """Call a LAPACK-backed solver; its LinAlgError becomes a NumericalError."""
    try:
        return solve(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{what} solver failed: {exc}") from exc


@functools.lru_cache(maxsize=None)
def _dgesdd_lwork(dim: int) -> int:
    """dgesdd's optimal workspace for singular values alone of a dim x dim
    matrix; the query depends only on the shape, so it runs once per dim."""
    return int(lapack.dgesdd_lwork(dim, dim, compute_uv=0)[0])


def _spectral_norm(q: np.ndarray) -> float:
    """The largest singular value of a square matrix.

    LAPACK's dgesdd is called as np.linalg.norm(q, 2) calls it, singular
    values only with the optimal workspace, so the result is its bits; at
    small dims the wrapper costs three times the solve.  The forms are
    checked finite on input.
    """
    _, s, _, info = lapack.dgesdd(q, compute_uv=0, lwork=_dgesdd_lwork(q.shape[0]))
    if info != 0:
        raise NumericalError(f"singular value solver failed: dgesdd info {info}")
    return float(s[0])


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix or a stack of them, ascending."""
    return _lapack(np.linalg.eigvalsh, a)


def inertia(m: np.ndarray, scale: float | None = None) -> InertiaTriple:
    """Eigenvalue sign counts of a symmetric matrix.

    Eigenvalues within TOL_EIG * scale of zero count as zero; by default
    the scale is the matrix's own spectral norm.  Evaluations of a matrix
    family must pass the family's scale instead, so that a member that is a
    tiny multiple of a definite matrix still reads as degenerate.
    """
    a = _as_symmetric(m, "matrix")
    w = _eigvalsh(a)
    if scale is None:
        scale = float(np.max(np.abs(w)))
    thr = TOL_EIG * scale
    plus = int(np.sum(w > thr))
    minus = int(np.sum(w < -thr))
    return InertiaTriple(plus, minus, a.shape[0] - plus - minus)


def _members(p: QuadraticPencil, thetas):
    """The family at each angle, built in one reused dim x dim buffer.

    Each member is bitwise p.at(theta): cos(theta) * q0 and sin(theta) * q1
    are formed as at() forms them and added once.  The next member
    overwrites the buffer, so a caller keeps nothing it yields.
    """
    member = np.empty_like(p.q0)
    term = np.empty_like(p.q1)
    for t in thetas:
        np.multiply(math.cos(t), p.q0, out=member)
        member += np.multiply(math.sin(t), p.q1, out=term)
        yield member


def _is_diagonal(p: QuadraticPencil) -> bool:
    """Whether both forms of p are diagonal.

    Tested on first use and kept, as scale() is: the forms are read-only.
    Q0 is tested first, and most pencils that are not diagonal fail there.
    """
    diagonal = p.__dict__.get("_diagonal")
    if diagonal is None:
        diagonal = (np.count_nonzero(p.q0) == np.count_nonzero(p.q0.diagonal())
                    and np.count_nonzero(p.q1) == np.count_nonzero(p.q1.diagonal()))
        object.__setattr__(p, "_diagonal", diagonal)
    return diagonal


def _coefficients(thetas) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of every angle, from math.cos and math.sin as at() takes
    them, as (k, 1) columns."""
    k = len(thetas)
    return (np.fromiter(map(math.cos, thetas), float, k)[:, None],
            np.fromiter(map(math.sin, thetas), float, k)[:, None])


def _is_tridiagonal(q: np.ndarray) -> bool:
    """Whether a symmetric matrix is zero off its three middle diagonals:
    all its nonzeros lie on its diagonal and its two equal off-diagonals."""
    band = np.count_nonzero(q.diagonal()) + 2 * np.count_nonzero(q.diagonal(1))
    return np.count_nonzero(q) == band


def _tridiagonal(p: QuadraticPencil, thetas) -> tuple[np.ndarray, np.ndarray]:
    """(d, e): the diagonals and subdiagonals, one row per angle, of the
    tridiagonal matrices LAPACK's dsytrd reduces the members to.

    When both forms are tridiagonal, so is every member, and dsytrd leaves
    it as it is: each column's part below the subdiagonal is zero, so dlarfg
    gives tau = 0 and the reflector is the identity.  The rows are then the
    members' own diagonals and subdiagonals, formed for every angle at once
    with the products and sums at() forms.  Otherwise members are built one
    at a time (_members) and reduced in place, so memory holds one member,
    not a stack.  Either way the rows are the ones dsytrd gives each member
    of p.at_many(thetas), bit for bit.
    """
    k, dim = len(thetas), p.dim
    if _is_tridiagonal(p.q0) and _is_tridiagonal(p.q1):
        c, s = _coefficients(thetas)
        d = c * p.q0.diagonal()
        d += s * p.q1.diagonal()
        e = c * p.q0.diagonal(-1)
        e += s * p.q1.diagonal(-1)
        return d, e
    d = np.empty((k, dim))
    e = np.empty((k, dim - 1))
    for i, m in enumerate(_members(p, thetas)):
        # m.T is the member's Fortran-ordered view, which f2py reduces in place
        # without a copy; the next member overwrites it
        _, d[i], e[i], _, info = lapack.dsytrd(m.T, lower=1, overwrite_a=1)
        if info != 0:
            raise NumericalError(f"tridiagonal reduction failed: dsytrd info {info}")
    return d, e


def _sturm_pass(d: np.ndarray, e: np.ndarray, thr: float) -> tuple[np.ndarray, np.ndarray]:
    """(i_plus, i_minus) of symmetric tridiagonal matrices T, one per column:
    column i of d holds the diagonal of one, of e its subdiagonal.

    d, e and thr must be scaled so that e^2 cannot overflow.  The pivots
    q_1 = d_1 - s, q_j = d_j - s - e_(j-1)^2 / q_(j-1) of T - s*I have as
    many negative ones as T has eigenvalues below s (Sturm's count, backward
    stable: Barth, Martin and Wilkinson, Numer. Math. 9, 1967).  One pass
    runs both shifts s = +-thr over every matrix.  A pivot smaller than
    dstebz's pivmin is replaced by it, negative at +thr and positive at
    -thr, so that an eigenvalue exactly at a threshold counts as zero:
    i_plus counts w > thr and i_minus w < -thr, as inertia() does.  The pass
    first runs without that guard and is rerun with it only when some pivot
    came out below pivmin (or NaN): otherwise the guard never fires and both
    passes compute the same pivots.  No pivot overflows, since |q| >= pivmin
    keeps e^2 / q below 1 / SAFMIN.

    The first pass eliminates only the rows j whose e_(j-1) is nonzero in
    some matrix.  On the others the step subtracts 0 / q_(j-1), an exact
    zero unless q_(j-1) is 0 or NaN, and then the guarded rerun runs either
    way; so the counts are those of the full recurrence, bit for bit.
    """
    dim, k = d.shape
    # row j holds pivot j of every matrix at +thr, then of every matrix at -thr
    shifted = np.concatenate([d - thr, d + thr], axis=1)
    e2 = np.square(e)
    coupled = (np.flatnonzero(e2.any(axis=1)) + 1).tolist()
    e2 = np.concatenate([e2, e2], axis=1)
    pivmin = _SAFMIN * max(1.0, float(e2.max(initial=0.0)))
    q = shifted.copy()
    with np.errstate(all="ignore"):
        for j in coupled:
            q[j] -= e2[j - 1] / q[j - 1]
    if not (np.abs(q) >= pivmin).all():
        q = shifted
        guard = np.repeat([-pivmin, pivmin], k)
        ratio = np.empty(2 * k)
        tiny = np.empty(2 * k, dtype=bool)
        for j in range(dim):
            if j:
                np.divide(e2[j - 1], q[j - 1], out=ratio)
                q[j] -= ratio
            np.less(np.abs(q[j], out=ratio), pivmin, out=tiny)
            np.copyto(q[j], guard, where=tiny)
    below = np.count_nonzero(q < 0.0, axis=0)
    return dim - below[:k], below[k:]


def _sturm_inertia(p: QuadraticPencil, thetas, scale: float,
                   thr: float) -> tuple[np.ndarray, np.ndarray]:
    """(i_plus, i_minus) of the family's member at every angle.

    A diagonal member's eigenvalues are its diagonal entries, so when both
    forms are diagonal the counts compare the members' diagonals, formed
    as at() forms them, with +-thr: inertia()'s rule.  Otherwise
    _tridiagonal reduces each member to a tridiagonal matrix T with the
    same eigenvalues, or reads it when the pencil is tridiagonal, and
    _sturm_pass counts them at +-thr, with d, e and thr divided by scale so
    that e^2 cannot overflow.

    Memory is O(k * dim) for k angles, not O(k * dim^2): the full-circle
    profile of extremal_family(255) counts 768 members of dim 256, and
    analyze on it peaks at 2.8 MB under tracemalloc, its members read off
    their diagonals; one dsytrd call per member took 44 ms, and
    reducing one at_many stack peaked at 209 MB and took 145-160 ms (one
    OpenBLAS thread, 2-core x86-64 host).
    """
    if _is_diagonal(p):
        c, s = _coefficients(thetas)
        d = c * p.q0.diagonal()
        d += s * p.q1.diagonal()
        return np.count_nonzero(d > thr, axis=1), np.count_nonzero(d < -thr, axis=1)
    d, e = _tridiagonal(p, thetas)
    if scale > 0.0:
        d /= scale
        e /= scale
        thr /= scale
    return _sturm_pass(d.T, e.T, thr)


def family_counts(p: QuadraticPencil, thetas: list[float],
                  scale: float) -> tuple[list[int], list[int]]:
    """(i_plus, i_minus) of the family's member at each angle, as two lists
    in the order given.

    The family's members are exactly symmetric, so no member is
    re-validated, and every angle is solved in one pass, a repeated one as
    often as it appears.  Eigenvalues within TOL_EIG * scale of zero count
    as zero, as in inertia() with the family's scale.  Members of dimension
    COUNT_DIM and up, and diagonal ones at every dimension, are counted by
    _sturm_inertia, which reads diagonal members and builds and reduces
    others one at a time; smaller ones are solved by one eigvalsh call on
    their at_many stack.
    """
    if not thetas:
        return [], []
    dim, thr = p.dim, TOL_EIG * scale
    if dim >= COUNT_DIM or _is_diagonal(p):
        plus, minus = _sturm_inertia(p, thetas, scale, thr)
        return plus.tolist(), minus.tolist()
    # bisection on the ascending rows: a small stack has few of them
    rows = _eigvalsh(p.at_many(thetas)).tolist()
    return ([dim - bisect.bisect_right(w, thr) for w in rows],
            [bisect.bisect_left(w, -thr) for w in rows])


# ---------------------------------------------------------------------------
# degenerate locus of the pencil
# ---------------------------------------------------------------------------

class DegeneratePoint(NamedTuple):
    """A root of the family's determinant on the circle."""

    theta: float
    multiplicity: int


@dataclass(frozen=True)
class DegenerateLocus:
    """Roots on the circle of the determinant of the family.

    points come in antipodal pairs carrying the algebraic multiplicity of the
    underlying projective root; theta_pairs counts conjugate pairs of
    non-real projective roots.  rank_deficit is dim minus the family's
    normal rank: positive exactly when the determinant vanishes for every
    angle.  Then the roots and theta_pairs are those of the family's regular
    part.
    """

    points: tuple[DegeneratePoint, ...]
    theta_pairs: int
    rank_deficit: int

    @property
    def identically_singular(self) -> bool:
        return self.rank_deficit > 0

    @property
    def angles(self) -> list[float]:
        return [p.theta for p in self.points]

    def real_projective_count(self) -> int:
        """Number of real projective roots counted with multiplicity."""
        return sum(p.multiplicity for p in self.points) // 2


def _cluster_periodic(values: list[float], tol: float) -> list[tuple[float, int]]:
    """Cluster near-equal values modulo pi, the period of projective directions."""
    if not values:
        return []
    vals = sorted(v % PI for v in values)
    if min(map(operator.sub, vals[1:], vals), default=PI) > tol and vals[0] + PI - vals[-1] > tol:
        return [(v, 1) for v in vals]  # nothing merges: each value is its own center
    clusters: list[list[float]] = [[vals[0]]]
    for v in vals[1:]:
        if v - clusters[-1][-1] <= tol:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    # wraparound: last cluster may continue into the first
    if len(clusters) > 1 and (vals[0] + PI) - clusters[-1][-1] <= tol:
        first = clusters.pop(0)
        clusters[-1].extend(v + PI for v in first)
    return [(sum(c) / len(c) % PI, len(c)) for c in clusters]


@functools.lru_cache(maxsize=None)
def _dggev_lwork(dim: int) -> int:
    """dggev's optimal workspace for a dim x dim pair, by the query
    scipy.linalg.eigvals makes; it depends only on the shape, so it runs once
    per dim."""
    z = np.zeros((dim, dim))
    return int(lapack.dggev(z, z, lwork=-1)[-2][0])


def _qz_root_angles(a: np.ndarray, b: np.ndarray) -> tuple[list[float], int]:
    """Real roots of det(a + t*b) = 0 by QZ, as chart angles.

    QZ returns each eigenvalue in homogeneous form t = alpha/beta, so a real
    root is the angle atan2(alpha, beta) and an infinite eigenvalue (beta =
    0) is simply the chart's far point.  Returns the angles of the real roots
    and the count of the non-real ones.

    LAPACK's dggev is called as scipy.linalg.eigvals calls it, with the
    workspace its query gives (_dggev_lwork), so the roots are its bits; at
    small dims its wrapper costs three times the solve.  The pair is finite:
    the pencil's forms are checked on input.
    """
    b = -b
    alphar, alphai, beta, _, _, _, info = lapack.dggev(a, b, 0, 0, _dggev_lwork(a.shape[0]))
    if info != 0:
        raise NumericalError(f"QZ eigenvalue solver failed: dggev info {info}")
    alpha = alphar + 1j * alphai  # as scipy forms it, signed zeros included
    # one pass over the roots: at 6 roots it takes 4 us where the same test
    # as numpy array operations takes 6 us; the two are even at 24 roots
    angles = [math.atan2(al.real, be) for al, be in zip(alpha.tolist(), beta.tolist())
              if abs(al.imag) <= IMAG_TOL * (abs(be) + abs(al.real))]
    return angles, len(beta) - len(angles)


def _null_space(a: np.ndarray, rank: int | None = None) -> np.ndarray:
    """An orthonormal basis, as columns, of the vectors a maps to zero.

    The rank is given, or it counts the singular values above RANK_TOL.
    LAPACK's dgesdd is called directly, as in _spectral_norm.
    """
    _, s, vt, info = lapack.dgesdd(a, full_matrices=1)
    if info != 0:
        raise NumericalError(f"singular value solver failed: dgesdd info {info}")
    if rank is None:
        rank = int(np.count_nonzero(s > RANK_TOL))
    return vt[rank:].T


def _regular_part(m: np.ndarray, dm: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The chart pair of an identically singular family compressed to a pair
    congruent to its regular part.

    m + t*dm has rank deficit k and m its normal rank.  V grows from ker m by
    V <- m^-1(dm V), the vectors that m maps into dm V, until its dimension
    stops growing: it is then the right minimal reducing subspace (Van
    Dooren, Linear Algebra Appl. 27, 1979), spanned by the coefficients of
    the family's polynomial kernel vectors.  In the symmetric canonical form
    (Lancaster and Rodman, SIAM Review 47, 2005) V is the L_eps side of each
    L_eps + L_eps' block and the shared kernel, so V is isotropic for every
    member, m V lies in dm V, and V + dm V is the whole singular part.  So
    the vectors orthogonal to dm V are those every member pairs to zero with
    V, the family restricted to them has V in its kernel, and compressed to
    a complement of V there, the orthogonal complement of V + dm V, it is
    congruent to its regular part.  That part is regular at the chart
    origin, so a compressed m without full rank at RANK_TOL is a wrong
    deflation, and raises.
    """
    v = _null_space(m, len(m) - k)
    while True:
        grown = _null_space(_null_space(v.T @ dm).T @ m)
        if grown.shape[1] <= v.shape[1]:
            break
        v = grown
    z = _null_space(np.vstack([v.T, v.T @ dm]))
    m, dm = z.T @ m @ z, z.T @ dm @ z
    if m.size and _null_space(m).size:
        raise NumericalError(f"the regular part of a singular pencil (dim {len(m)}, rank "
                             f"deficit {k}) is singular at the chart origin")
    return m, dm


def _diagonal_roots(p: QuadraticPencil, s: float) -> tuple[float, list[float], int, int] | None:
    """degenerate_locus's chart angle, real root angles, non-real root count
    and rank deficit for a diagonal pencil, read off the diagonals of its
    unit-scale forms; None when the first chart member lacks full rank.

    That member's eigenvalues are its diagonal entries, which is what
    eigvalsh returns for it.  For a diagonal pair (m, dm) dggev returns
    (alpha, beta) = +-(m_ii, -dm_ii), signed so that beta >= 0, so each root
    is the angle atan2(alpha, beta) that _qz_root_angles takes, bit for bit.
    """
    d0 = p.q0.diagonal() / s
    d1 = p.q1.diagonal() / s
    phi = PI * 0.5 / (p.dim + 1)
    m = math.cos(phi) * d0 + math.sin(phi) * d1
    if not (np.abs(m) > RANK_TOL).all():
        return None
    dm = math.cos(phi) * d1 - math.sin(phi) * d0
    return phi, [math.atan2(a, -b) if b <= 0.0 else math.atan2(-a, b)
                 for a, b in zip(m.tolist(), dm.tolist())], 0, 0


def _chart_roots(p: QuadraticPencil, s: float) -> tuple[float, list[float], int, int]:
    """degenerate_locus's chart angle, real root angles, non-real root count
    and rank deficit, by a scan for a regular angle and one QZ solve."""
    dim = p.dim
    a0 = p.q0 / s
    a1 = p.q1 / s

    # a degree-(n+1) form vanishing at n+2 distinct projective points is zero,
    # so one of these angles is regular unless the determinant vanishes
    # identically.  The first regular angle is the chart's origin; failing
    # one, the angle of largest rank whose smallest nonzero |eigenvalue| is
    # largest, so that the kernel the deflation starts from is well separated
    best = (-1, 0.0)
    for i in range(dim + 1):
        t = PI * (i + 0.5) / (dim + 1)
        mt = math.cos(t) * a0 + math.sin(t) * a1
        w = np.sort(np.abs(_eigvalsh(mt)))
        r = int(np.count_nonzero(w > RANK_TOL))
        key = (r, float(w[-r]) if r else 0.0)
        if key > best:
            best, phi, m = key, t, mt
            if r == dim:
                break
    k = dim - best[0]
    dm = math.cos(phi) * a1 - math.sin(phi) * a0
    if k:
        m, dm = _regular_part(m, dm, k)
    roots, nonreal = _qz_root_angles(m, dm) if m.size else ([], 0)
    return phi, roots, nonreal, k


def degenerate_locus(p: QuadraticPencil) -> DegenerateLocus:
    """Locate all circle angles where the family drops rank.

    With phi a regular angle, det(M(phi) + t*M(phi + pi/2)) vanishes exactly
    at the directions phi + atan(t), so QZ on that pair finds every
    projective root, the one at t = infinity included.  A diagonal pencil
    regular at the first chart angle reads those roots off its diagonals
    (_diagonal_roots).

    When the determinant vanishes identically, phi is where the family has
    its normal rank dim - k, and QZ runs on the chart pair compressed to the
    family's regular part (_regular_part): its real roots are the locus and
    its non-real ones the family's own.
    """
    s = p.scale()
    if s == 0.0:
        return DegenerateLocus((), 0, p.dim)
    phi, roots, nonreal, k = (_is_diagonal(p) and _diagonal_roots(p, s)) or _chart_roots(p, s)
    if nonreal % 2 != 0:
        raise NumericalError("unpaired non-real root; tolerances inconsistent")

    # clusters are more than CLUSTER_TOL apart modulo pi, so no two points
    # share an angle and the points sort by it.  canonical_angle is the
    # identity on [0, 2 pi): a center is in [0, pi), and only an antipode
    # that rounds to 2 pi needs folding
    clusters = _cluster_periodic([(phi + r) % PI for r in roots], CLUSTER_TOL)
    points = clusters + [(t, mult) if t < TWO_PI else (canonical_angle(t), mult)
                         for t, mult in ((center + PI, mult) for center, mult in clusters)]
    points.sort()
    return DegenerateLocus(tuple(map(DegeneratePoint._make, points)), nonreal // 2, k)
