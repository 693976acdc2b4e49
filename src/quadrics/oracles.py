"""Independent brute-force verifiers for the analytic pipeline.

Dense-grid inertia sampling cross-checks index profiles; rejection sampling
on the sphere with union-find recovers component counts of the solution set;
the orientation class is measured by transporting the top positive
eigenspace around the circle.  Exact integer arithmetic on the stored
doubles gives the inertia of a member (exact_inertia) and the real and
non-real root counts of the determinant (exact_locus_counts), with no
tolerance at all.  Nothing here shares code paths with the combinatorial
machinery it verifies but the grid's counts and its locate rule.  The
counts take its zero band and Sturm pass, below pencil.COUNT_DIM after a
Householder reduction of their own and from there up, or when both forms
are tridiagonal, by the profile's own counter; the references for a count
are inertia() and the exact oracle.  The grid reads the profile's and the
domain's cells at each angle by circle._cells, the rule of
CircleSubset.contains and IndexProfile.value_at_angle.
verify_analysis keeps the grid's counts in arrays from the solve to the
comparison with the profile (_grid_check), and the CLI's profile --grid
writes them as they are (_grid_counts); grid_index_profile and
grid_profile_disagreements put the same counts in and out of a GridProfile
of triples.  The sampling oracle imports scipy.spatial on its first call,
so importing this module does not load it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from .betti import AnalysisResult
from .circle import PlanarCone, _cells
from .errors import InvalidInputError, NumericalError, OracleDisagreement
from . import pencil
from .filtration import FiltrationReport, IndexProfile
from .pencil import (
    AT_MANY_SLICE,
    CLUSTER_TOL,
    MAX_ANGLES,
    TOL_EIG,
    InertiaTriple,
    QuadraticPencil,
    _lapack,
    _SAFMIN,
    _sturm_pass,
    shared_triple,
)

PI = math.pi
TWO_PI = 2.0 * math.pi

# acceptance band for sampling the solution variety, relative to form scale
MEMBERSHIP_DELTA = 5e-3
# sampling draws up to SAMPLE_BATCHES batches of SAMPLE_BATCH points
SAMPLE_BATCHES = 120
SAMPLE_BATCH = 200_000


@dataclass(frozen=True)
class GridProfile:
    """Inertia triples at uniformly spaced angles."""

    resolution: int
    thetas: tuple[float, ...]
    triples: tuple[InertiaTriple, ...]


def _tridiagonal_stack(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, e) of a (dim, dim, k) stack of symmetric matrices, member i in
    a[:, :, i]: the diagonals and subdiagonals, one column per member, of
    tridiagonal matrices with the members' eigenvalues.

    Householder reflections as LAPACK's dsytd2 forms them (dlarfg) reduce
    column j of every member at once, and a is overwritten.  A column that
    is zero below the subdiagonal in every member gets no reflector, so
    diagonal members cost no reduction; in a member whose column there has
    a squared norm below the smallest normal double, that part is dropped,
    which moves an eigenvalue by less than 1e-154 of a stack of unit scale.
    """
    dim, _, k = a.shape
    e = np.empty((max(dim - 1, 0), k))
    for j in range(dim - 2):
        x = a[j + 1:, j]
        alpha, tail = x[0], x[1:]
        if not tail.any():
            e[j] = alpha
            continue
        tail2 = np.einsum("ik,ik->k", tail, tail)
        beta = -np.copysign(np.sqrt(alpha * alpha + tail2), alpha)
        with np.errstate(invalid="ignore", divide="ignore"):
            tau = (beta - alpha) / beta
            v = x / (alpha - beta)
        skip = tail2 < _SAFMIN
        if skip.any():
            np.copyto(beta, alpha, where=skip)
            np.copyto(tau, 0.0, where=skip)
            np.copyto(v, 0.0, where=skip)
        v[0] = 1.0
        e[j] = beta
        # H = I - tau v v' applied on both sides: B - v w' - w v', with
        # p = tau B v and w = p - (tau / 2)(p'v) v
        b = a[j + 1:, j + 1:]
        w = np.einsum("ijk,jk->ik", b, v)
        w *= tau
        w -= (0.5 * tau * np.einsum("ik,ik->k", w, v)) * v
        b -= v[:, None] * w[None]
        b -= w[:, None] * v[None]
    if dim > 1:
        e[-1] = a[-1, -2]
    return a.reshape(dim * dim, k)[::dim + 1], e


def _counted_inertia(a: np.ndarray, scale: float,
                     thr: float) -> tuple[np.ndarray, np.ndarray]:
    """(i_plus, i_minus) of every member of a (dim, dim, k) stack, member i
    in a[:, :, i], by _tridiagonal_stack and pencil._sturm_pass.

    The stack, in place, and thr are first multiplied by 2^-E, scale = m 2^E
    with 1/2 <= m < 1: exact, and the members then have norm about 1, so no
    squared column norm under- or overflows."""
    exp = math.frexp(scale)[1]
    np.ldexp(a, -exp, out=a)
    return _sturm_pass(*_tridiagonal_stack(a), math.ldexp(thr, -exp))


def _grid_members(p: QuadraticPencil, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The members c[i] Q0 + s[i] Q1 as a (dim, dim, k) stack, member i in
    a[:, :, i]: the products and sums QuadraticPencil.at forms, so with c
    and s from math.cos and math.sin each member is at() bit for bit."""
    a = p.q0[:, :, None] * c
    a += p.q1[:, :, None] * s
    return a


def _grid_counts(p: QuadraticPencil, grid_n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(thetas, i_plus, i_minus) at the grid's angles, as arrays: the grid
    that grid_index_profile describes."""
    if isinstance(grid_n, bool) or not isinstance(grid_n, int) or not 4 <= grid_n <= MAX_ANGLES:
        raise InvalidInputError(
            f"the oracle grid needs 4 to {MAX_ANGLES} angles, not {grid_n!r}")
    dim = p.dim
    resolution = max(grid_n, 4 * dim)
    scale = p.scale()
    thr = TOL_EIG * scale
    thetas = np.linspace(0.0, TWO_PI, resolution, endpoint=False)
    solved = (thetas[:resolution // 2] if resolution % 2 == 0 else thetas).tolist()
    if dim >= pencil.COUNT_DIM or (pencil._is_tridiagonal(p.q0)
                                   and pencil._is_tridiagonal(p.q1)):
        # the profile's counter holds O(k * dim) numbers for k members, and
        # reads tridiagonal ones with no reduction at every dim
        step = max(1, AT_MANY_SLICE // dim)
        parts = (pencil._sturm_inertia(p, solved[lo:lo + step], scale, thr)
                 for lo in range(0, len(solved), step))
    else:
        c = np.fromiter(map(math.cos, solved), float, len(solved))
        s = np.fromiter(map(math.sin, solved), float, len(solved))
        step = max(1, AT_MANY_SLICE // (dim * dim))
        parts = (_counted_inertia(_grid_members(p, c[lo:lo + step], s[lo:lo + step]), scale, thr)
                 for lo in range(0, len(solved), step))
    plus, minus = map(np.concatenate, zip(*parts))
    if len(solved) < resolution:
        plus, minus = np.concatenate((plus, minus)), np.concatenate((minus, plus))
    return thetas, plus, minus


def grid_index_profile(p: QuadraticPencil, grid_n: int = 720) -> GridProfile:
    """Sample the inertia of the family at a uniform angular grid.

    The resolution R is the larger of grid_n and 4 * dim; a grid_n that is
    not an int from 4 to MAX_ANGLES is InvalidInputError.  M(theta + pi) = -M(theta), so
    i_plus and i_minus swap at antipodes.  When R is even, grid angle
    i + R/2 is theta_i + pi to within an ulp, and only angles 0 .. R/2 - 1
    are solved: the other half takes their counts swapped.  An odd R has no
    antipodal pairs and is solved in full.  Only the counts are kept.

    Members below pencil.COUNT_DIM go in stacks of at most AT_MANY_SLICE
    entries, each member at() bit for bit (_grid_members), and are counted
    at +-TOL_EIG * scale by _counted_inertia; from COUNT_DIM up, and at
    every dim when both forms are tridiagonal, AT_MANY_SLICE // dim at a
    time, by the profile's pencil._sturm_inertia.
    The counts equal per-angle inertia()'s on every pencil the tests run.
    """
    thetas, plus, minus = _grid_counts(p, grid_n)
    triples = tuple(map(shared_triple, plus.tolist(), minus.tolist(),
                        (p.dim - plus - minus).tolist()))
    return GridProfile(len(thetas), tuple(thetas.tolist()), triples)


def _disagreeing(profile: IndexProfile, thetas: np.ndarray, sampled) -> np.ndarray:
    """The indices of the grid angles where the profile disagrees with the
    sampled counts, (i_plus, i_minus, i_zero) arrays with one entry per
    angle, by the rules of grid_profile_disagreements."""
    t = thetas % TWO_PI
    t[t >= TWO_PI] = 0.0  # as canonical_angle
    dom = profile.domain
    todo = np.array(dom.cells)[_cells(dom.cuts, t)]
    bps = np.sort(profile.breakpoint_angles())
    if len(bps):
        # the distance to the nearest breakpoint on either side, across the
        # seam too, by subtraction on the breakpoints extended by a turn
        j = np.searchsorted(bps, t)
        ext = np.concatenate(([bps[-1] - TWO_PI], bps, [bps[0] + TWO_PI]))
        near = np.minimum(t - ext[j], ext[j + 1] - t)
        # the per-angle rule measures abs((theta - b + PI) % TWO_PI - PI),
        # which rounds otherwise, by a few ulps of the angles: where that can
        # decide the guard, it is measured as the rule measures it
        slack = 16.0 * np.spacing(max(2.0 * TWO_PI, float(np.abs(thetas).max(initial=0.0))))
        edge = np.flatnonzero(abs(near - CLUSTER_TOL) <= slack)
        if len(edge):
            th, k = thetas[edge], j[edge]
            near[edge] = np.minimum(abs((th - bps[k - 1] + PI) % TWO_PI - PI),
                                    abs((th - bps[k % len(bps)] + PI) % TWO_PI - PI))
        todo &= near > CLUSTER_TOL
    # each count of each cell, -1 where no value is recorded: no sample equals it
    recorded = np.array([(-1, -1, -1) if v is None else v for v in profile.cells]).T
    cell = _cells(profile.cuts, t)
    wrong = np.zeros(len(t), dtype=bool)
    for counts, got in zip(recorded, sampled):
        wrong |= counts[cell] != got
    return np.flatnonzero(todo & wrong)


def _grid_check(profile: IndexProfile, p: QuadraticPencil,
                grid_n: int) -> tuple[int, np.ndarray]:
    """(R, the angles where the profile disagrees): grid_profile_disagreements
    against grid_index_profile(p, grid_n), of resolution R, with the counts
    kept in arrays from the solve to the comparison."""
    thetas, plus, minus = _grid_counts(p, grid_n)
    bad = _disagreeing(profile, thetas, (plus, minus, p.dim - plus - minus))
    return len(thetas), thetas[bad]


def grid_profile_disagreements(profile: IndexProfile, grid: GridProfile) -> list[float]:
    """Grid angles of the profile's domain where it disagrees with sampling.

    Grid angles outside the domain are not compared; inside it, an angle the
    profile records no value for counts as a disagreement.  Angles within
    CLUSTER_TOL, ten angular tolerances, of a recorded breakpoint are skipped: there the
    inertia of a nearly-singular matrix is not decidable.

    The grid is checked in one array pass (_disagreeing), with the per-angle
    rules: the domain and the profile are both cyclic cell tuples on cuts,
    each angle's cell found by circle._cells, the rule of
    CircleSubset.contains and IndexProfile.value_at_angle, and the guard
    measures the nearest sorted breakpoint on either side.
    """
    sampled = np.fromiter(chain.from_iterable(grid.triples), dtype=np.int64,
                          count=3 * len(grid.thetas)).reshape(-1, 3)
    bad = _disagreeing(profile, np.array(grid.thetas, dtype=float), sampled.T)
    return [grid.thetas[k] for k in bad]


# ---------------------------------------------------------------------------
# component counting by rejection sampling
# ---------------------------------------------------------------------------

def _cone_distance(cone: PlanarCone, y0: np.ndarray, y1: np.ndarray) -> np.ndarray:
    """Vectorized Euclidean distance from plane points to the cone."""
    if cone.kind == "full":
        return np.zeros_like(y0)
    if cone.kind == "zero":
        return np.hypot(y0, y1)
    r = np.hypot(y0, y1)
    ang = np.arctan2(y1, y0)
    if cone.kind == "line":
        return np.abs(r * np.sin(ang - cone.start))
    rel = (ang - cone.start) % TWO_PI
    inside = rel <= cone.sweep
    d = np.full_like(y0, np.inf)
    for edge in (cone.start, cone.start + cone.sweep):
        t = np.maximum(r * np.cos(ang - edge), 0.0)
        d_edge = np.sqrt(np.maximum(r * r - t * t, 0.0))
        d_edge = np.where(r * np.cos(ang - edge) > 0.0, d_edge, r)
        d = np.minimum(d, d_edge)
    return np.where(inside, 0.0, d)


class _DisjointSet:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[rj] = ri


def sample_components(p: QuadraticPencil, cone: PlanarCone, space: str,
                      seed: int = 0, target: int = 900) -> int:
    """Connected components of the solution set, recovered from point samples.

    Accepts sphere points whose image lies within a thin band around the
    cone, links samples closer than three expected nearest-neighbour spacings
    (taken as a high quantile of the empirical distances, which is robust to
    the transverse scatter of the acceptance band), and counts union-find
    roots.  Projective mode also glues antipodes.  Only component counts are
    claimed, and only for a handful of variables.  seed drives the draws.
    """
    if space not in ("sphere", "projective"):
        raise InvalidInputError("space must be 'sphere' or 'projective'")
    if p.n > 3:
        raise InvalidInputError("sampling oracle is limited to n <= 3")
    # imported on first use, not with the module: scipy.spatial costs about 7 MB and 0.1 s
    from scipy.spatial import cKDTree
    dim = p.dim
    scale = max(p.scale(), 1e-12)
    delta = MEMBERSHIP_DELTA * scale
    rng = np.random.default_rng(seed)
    accepted: list[np.ndarray] = []
    total = 0
    for step in range(SAMPLE_BATCHES):
        x = rng.standard_normal((SAMPLE_BATCH, dim))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        y0 = np.einsum("ij,jk,ik->i", x, p.q0, x)
        y1 = np.einsum("ij,jk,ik->i", x, p.q1, x)
        d = _cone_distance(cone, y0, y1)
        hits = x[d < delta]
        if hits.size:
            accepted.append(hits)
            total += len(hits)
        if total >= target:
            break
        if total == 0 and step >= 14:
            break
    pts = np.vstack(accepted) if accepted else np.empty((0, dim))
    if len(pts) == 0:
        return 0
    if len(pts) < 40:
        raise NumericalError(
            f"undersampled variety: only {len(pts)} accepted points")
    if dim == 1:
        # every sample is +-1, the two points of S^0 and the one of RP^0; a
        # point and its antipode have one image, so both were accepted
        return 2 if space == "sphere" else 1
    if len(pts) > 4 * target:
        pts = pts[rng.choice(len(pts), 4 * target, replace=False)]
    if space == "projective":
        m = len(pts)
        pts = np.vstack([pts, -pts])
    else:
        m = 0
    tree = cKDTree(pts)
    nn, _ = tree.query(pts, k=2)
    base = max(3.0 * float(np.quantile(nn[:, 1], 0.9)), 1e-9)

    def count_at(radius: float) -> int:
        ds = _DisjointSet(len(pts))
        for i, j in tree.query_pairs(radius):
            ds.union(i, j)
        for i in range(m):
            ds.union(i, i + m)
        return len({ds.find(i) for i in range(len(pts))})

    # the count as a function of the linking radius plateaus at the true
    # component count: sampling gaps along a component close well before
    # distinct components fuse
    prev = count_at(base)
    for k in range(1, 9):
        cur = count_at(base * 2.0 ** k)
        if cur == prev:
            return cur
        prev = cur
    return prev


# ---------------------------------------------------------------------------
# orientation monodromy
# ---------------------------------------------------------------------------

def stiefel_whitney(p: QuadraticPencil, profile: IndexProfile,
                    start_resolution: int = 64,
                    max_resolution: int = 1 << 14) -> tuple[bool, int, str]:
    """Orientability of the bundle of top positive eigenspaces, by transport.

    Returns (w1_nonzero, resolution, reason).  The class vanishes unless the
    domain is the whole circle and the index is constant on it.  Then an
    orthonormal basis of the positive eigenspace is carried around the
    circle from start_resolution equal steps, and the sign of the product of
    the overlap determinants is the orientation of the holonomy.  Steps are
    halved until each passes its rule; resolution is the final sample count,
    and more than max_resolution samples raise NumericalError.

    Regular pencils (dim = 2 mu) halve every step until every overlap's
    smallest singular value exceeds one half.  Near the kernel of a singular
    pencil that rule has aliased a half turn, so there each step is
    certified: |M(t) - M(theta)| <= L h with L = sqrt(2) * scale, so by Weyl
    and Davis-Kahan (SIAM J. Numer. Anal. 7, 1970) the eigenspace turns less
    than 30 degrees when 3 L h is below the gap between the positive
    eigenvalues and the rest, at both ends.  For regular pencils that is too
    pessimistic to stay under the cap.
    """
    nu, mu = profile._index_range[:2]
    if mu == 0:
        return (False, 0, "rank-zero bundle")
    if not (profile.domain.is_full() and nu == mu):
        return (False, 0, "top superlevel set is not the whole circle")

    dim = p.dim
    thr = TOL_EIG * p.scale()
    lip = math.sqrt(2.0) * p.scale()
    thetas, gaps, frames = np.empty(0), np.empty(0), np.empty((0, dim, mu))
    new = np.linspace(0.0, TWO_PI, max(start_resolution, 8 * dim), endpoint=False)
    while len(new):
        if len(thetas) + len(new) > max_resolution:
            raise NumericalError(f"transport needs {len(thetas) + len(new)} samples near "
                                 f"angle {new[0]}, past the cap {max_resolution}")
        w, v = _lapack(np.linalg.eigh, p.at_many(new))
        off_rank = np.sum(w > thr, axis=1) != mu
        if np.any(off_rank):
            th = new[int(np.argmax(off_rank))]
            raise NumericalError(
                f"positive eigenspace rank is not constant at angle {th}")
        # eigenvalues ascend, so the positive eigenspace is the last mu columns
        order = np.argsort(np.concatenate([thetas, new]), kind="stable")
        thetas = np.concatenate([thetas, new])[order]
        gaps = np.concatenate([gaps, w[:, dim - mu] - w[:, dim - mu - 1]])[order]
        frames = np.concatenate([frames, v[:, :, dim - mu:]])[order]
        steps = np.diff(thetas, append=TWO_PI)  # the first sample is angle 0
        overlaps = frames.transpose(0, 2, 1) @ np.roll(frames, -1, axis=0)
        if 2 * mu < dim:
            loose = 3.0 * lip * steps >= np.minimum(gaps, np.roll(gaps, -1))
        else:
            smin = _lapack(np.linalg.svd, overlaps, compute_uv=False,
                           what="singular value")[:, -1]
            loose = np.full(len(steps), smin.min() <= 0.5)
        new = thetas[loose] + 0.5 * steps[loose]
    det = _lapack(np.linalg.det, overlaps, what="determinant")
    reversals = int(np.sum(np.signbit(det)))
    return (reversals % 2 == 1, len(thetas), "monodromy determinant sign")


@dataclass(frozen=True)
class MonodromyCheck:
    stable: bool
    values: tuple[bool, bool, bool]
    base_resolution: int


def monodromy_refine(filt: FiltrationReport) -> MonodromyCheck:
    """The analysis's orientation class against two transports: one from the
    default start, one from twice the resolution (base_resolution) it needs."""
    if not (filt.mu > 0 and filt.top_fills_circle):
        raise InvalidInputError(
            "monodromy refinement needs the top superlevel set to fill the circle")
    w1a = filt.w1_nonzero
    w1b, res, _ = stiefel_whitney(filt.pencil, filt.profile)
    w1c, _, _ = stiefel_whitney(filt.pencil, filt.profile, start_resolution=2 * res)
    return MonodromyCheck(w1a == w1b == w1c, (w1a, w1b, w1c), res)


# ---------------------------------------------------------------------------
# exact arithmetic on the stored doubles
# ---------------------------------------------------------------------------
# Every double is m * 2^e, so the forms times one power of two are integer
# matrices.  This section uses Python integers only and shares no code with
# the pipeline.  A polynomial is a list of integer coefficients, highest
# first, with no leading zero; the zero polynomial is the empty list.

class ExactLocusCounts(NamedTuple):
    """Roots of det(x Q0 + y Q1) on RP^1, counted exactly."""

    real: int  # real roots, with multiplicity
    distinct: int  # distinct real roots
    theta_pairs: int  # conjugate pairs of non-real roots, with multiplicity
    square_free: bool  # every root is simple


def _integer_matrices(*forms) -> list[list[list[int]]]:
    """Nested lists of floats times the one power of two that makes all integers."""
    ratios = [[[v.as_integer_ratio() for v in row] for row in f] for f in forms]
    den = max(d for f in ratios for row in f for _, d in row)
    return [[[n * (den // d) for n, d in row] for row in f] for f in ratios]


def _integer_inertia(m: list[list[int]]) -> tuple[int, int, int]:
    """(i_plus, i_minus, i_zero) of a symmetric integer matrix.

    Symmetric elimination: a nonzero diagonal entry b = m[i][i] is a 1 x 1
    pivot; with the diagonal all zero, an entry b = m[i][j] != 0 is the pivot
    block [[0, b], [b, 0]], with one positive and one negative eigenvalue.
    By Haynsworth the rest is the inertia of the Schur complement
    m_rc - (m_ri m_jc + m_rj m_ic) / ((1 + [i = j]) b), kept integer by
    multiplying it with (1 + [i = j]) |b| and dividing it by its content.
    """
    dim, plus, minus = len(m), 0, 0
    while m:
        i, j = next(((i, i) for i in range(len(m)) if m[i][i]), None) or next(
            ((i, j) for i, row in enumerate(m) for j, v in enumerate(row) if v), (-1, -1))
        if i < 0:
            break
        b = m[i][j]
        plus, minus = plus + (b > 0 or i != j), minus + (b < 0 or i != j)
        f, sign = (1 + (i == j)) * abs(b), (1 if b > 0 else -1)
        rest = [r for r in range(len(m)) if r not in (i, j)]
        m = [[f * m[r][c] - sign * (m[r][i] * m[j][c] + m[r][j] * m[i][c]) for c in rest]
             for r in rest]
        g = math.gcd(*(v for row in m for v in row))
        m = [[v // g for v in row] for row in m] if g > 1 else m
    return plus, minus, dim - plus - minus


def exact_inertia(p: QuadraticPencil, x: float, y: float) -> tuple[int, int, int]:
    """(i_plus, i_minus, i_zero) of x Q0 + y Q1 for the stored doubles, exactly."""
    a0, a1, ((u, v),) = _integer_matrices(p.q0.tolist(), p.q1.tolist(), [[float(x), float(y)]])
    return _integer_inertia([[u * s + v * t for s, t in zip(r0, r1)] for r0, r1 in zip(a0, a1)])


def _bareiss_det(m: list[list[int]]) -> int:
    """The determinant of an integer matrix by fraction-free elimination."""
    m = [row[:] for row in m]
    sign, prev = 1, 1
    for k in range(len(m) - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, len(m)) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        pk, mk = m[k][k], m[k]
        for row in m[k + 1:]:
            rk = row[k]
            row[k + 1:] = [(pk * a - rk * b) // prev for a, b in zip(row[k + 1:], mk[k + 1:])]
        prev = pk
    return sign * m[-1][-1]


def _trim(a: list[int]) -> list[int]:
    return a[next((i for i, c in enumerate(a) if c), len(a)):]


def _primitive(a: list[int]) -> list[int]:
    """a divided by its content, which is positive, so no sign changes."""
    g = math.gcd(*a)
    return [c // g for c in a] if g > 1 else a


def _derivative(a: list[int]) -> list[int]:
    return _trim([c * (len(a) - 1 - i) for i, c in enumerate(a[:-1])])


def _remainder(a: list[int], b: list[int]) -> list[int]:
    """A positive multiple of the remainder of a by b.

    The remainder by b is the remainder by -b, so b is taken with a positive
    leading coefficient l and each step multiplies by l.  A negative l would
    flip the sign of a Sturm sequence's next term, and its count.
    """
    b = b if b[0] > 0 else [-c for c in b]
    while len(a) >= len(b):
        a = _trim([b[0] * u - a[0] * v for u, v in zip(a[1:], b[1:] + [0] * len(a))])
    return a


def _quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b when b divides a; integer when b is primitive, by Gauss's lemma."""
    a, q = a[:], []
    for i in range(len(a) - len(b) + 1):
        q.append(a[i] // b[0])
        for j, c in enumerate(b):
            a[i + j] -= q[-1] * c
    return q


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """A primitive greatest common divisor, by primitive remainders."""
    while b:
        a, b = b, _primitive(_remainder(a, b))
    return _primitive(a)


def _sturm_count(g: list[int]) -> int:
    """Distinct real roots of a square-free g, by Sturm's theorem."""
    seq = [g, _derivative(g)]
    while len(seq[-1]) > 1:
        seq.append(_primitive([-c for c in _remainder(seq[-2], seq[-1])]))
    top = [s[0] > 0 for s in seq if s]  # signs at +infinity
    bottom = [(s[0] > 0) == (len(s) % 2 == 1) for s in seq if s]  # and at -infinity
    return sum(map(operator.ne, bottom, bottom[1:])) - sum(map(operator.ne, top, top[1:]))


def exact_locus_counts(p: QuadraticPencil) -> ExactLocusCounts | None:
    """The roots of det(x Q0 + y Q1) for the stored doubles, counted exactly.

    f(t) = det(t A0 + A1), A0 and A1 the integer forms, is interpolated from
    its Bareiss determinants at t = 0 .. dim in Newton's form, whose
    coefficients are integers.  Yun's square-free factors g_1, g_2, ... of f,
    f = c g_1 g_2^2 g_3^3 ..., and a Sturm count of each give its real roots
    with multiplicity; the degree f lacks below dim is the root at infinity.
    None when the determinant vanishes identically.
    """
    a0, a1 = _integer_matrices(p.q0.tolist(), p.q1.tolist())
    dim = len(a0)
    diffs = [_bareiss_det([[t * u + v for u, v in zip(r0, r1)] for r0, r1 in zip(a0, a1)])
             for t in range(dim + 1)]
    newton = []  # the k-th forward difference at 0, over k!
    for k in range(dim + 1):
        newton.append(diffs[0] // math.factorial(k))
        diffs = [v - u for u, v in zip(diffs, diffs[1:])]
    f = [newton[-1]]  # f = newton[0] + t (newton[1] + (t - 1) (newton[2] + ...))
    for k in range(dim - 1, -1, -1):
        f = [a - k * b for a, b in zip([*f, 0], [0, *f])]
        f[-1] += newton[k]
    f = _trim(f)
    if not f:
        return None
    df = _derivative(f)  # Yun's algorithm
    a = _gcd(f, df)
    factors, b, c = [], _quotient(f, a), _quotient(df, a)
    while len(b) > 1:
        db = _derivative(b)
        n = max(len(c), len(db))
        d = _trim([u - v for u, v in zip([0] * (n - len(c)) + c, [0] * (n - len(db)) + db)])
        factors.append(_gcd(b, d))
        b, c = _quotient(b, factors[-1]), _quotient(d, factors[-1])
    roots = [_sturm_count(g) if len(g) > 1 else 0 for g in factors]
    finite = sum(i * r for i, r in enumerate(roots, 1))
    infinite = dim + 1 - len(f)
    return ExactLocusCounts(finite + infinite, sum(roots) + (infinite > 0),
                            (len(f) - 1 - finite) // 2, len(factors) <= 1 and infinite <= 1)


# ---------------------------------------------------------------------------
# aggregate verification
# ---------------------------------------------------------------------------

def verify_analysis(result: AnalysisResult, *, grid_n: int = 720, seed: int = 0) -> dict:
    """Run every applicable oracle against an analysis's answer.

    The pencil and cone are the result's own.  grid_n is the grid oracle's
    resolution and seed, a non-negative integer whether or not the sampling
    oracle runs, drives that oracle.  Raises OracleDisagreement on any
    mismatch; otherwise returns a summary of what was checked.
    """
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise InvalidInputError(f"the oracle seed must be an integer, not {seed!r}")
    if seed < 0:  # numpy's generators take none, and only n <= 3 would reach one
        raise InvalidInputError(f"the oracle seed must be non-negative, not {seed}")
    filt = result.filtration
    p = filt.pencil
    out: dict = {}

    out["grid_points"], bad = _grid_check(filt.profile, p, grid_n)
    out["grid_disagreements"] = len(bad)
    if len(bad):
        raise OracleDisagreement(
            f"index profile disagrees with the grid at {len(bad)} angles, "
            f"first at {bad[0]:.6f}")

    if p.n <= 3:
        b0 = sample_components(p, result.cone, "projective", seed=seed)
        out["sampled_b0"] = b0
        expected = result.report.b[0] if not result.report.empty else 0
        if b0 != expected:
            raise OracleDisagreement(
                f"sampled component count {b0} differs from b_0 = {expected}")

    if filt.mu > 0 and filt.top_fills_circle:
        check = monodromy_refine(filt)
        out["monodromy_values"] = list(check.values)
        if not check.stable:
            raise OracleDisagreement(
                "orientation monodromy changed under resolution refinement")
        if check.values[0] != result.table.w1_nonzero:
            raise OracleDisagreement("orientation class mismatch")
    return out
