"""Independent brute-force verifiers for the analytic pipeline.

Dense-grid inertia sampling cross-checks index profiles; rejection sampling
on the sphere with union-find recovers component counts of the solution set;
multi-start descent decides level-set feasibility with a support-function
margin; the orientation class is measured by transporting the top positive
eigenspace around the circle.  Nothing here shares code paths with the
combinatorial machinery it verifies, except the paper's own cross-check:
the closed sets where a positively shifted family omega Q - eps * p has
negative index at most n - k (sublevel_eps), read by the profile's arc
reader, have the Betti numbers of the superlevel sets at j = k + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.optimize import minimize
from scipy.spatial import cKDTree

from . import pencil
from .applications import LevelProblem
from .betti import AnalysisResult, analyze
from .circle import CircleSubset, PlanarCone, canonical_angle
from .config import DEFAULT_CONFIG, ToleranceConfig
from .errors import InvalidInputError, NumericalError, OracleDisagreement
from .filtration import FiltrationReport, IndexProfile, _build_profile, sublevel
from .pencil import (AT_MANY_SLICE, FamilySpectrum, InertiaTriple, QuadraticPencil,
                     _cluster_periodic, _eigvalsh, _lapack, cluster_tol, degenerate_locus,
                     shared_triple)

PI = math.pi
TWO_PI = 2.0 * math.pi

# acceptance band for sampling the solution variety, relative to form scale
MEMBERSHIP_DELTA = 5e-3
# absolute residual scale below which a descent iterate counts as a witness
FEAS_TOL = 1e-6


@dataclass(frozen=True)
class GridProfile:
    """Inertia triples at uniformly spaced angles."""

    resolution: int
    thetas: tuple[float, ...]
    triples: tuple[InertiaTriple, ...]


def grid_index_profile(p: QuadraticPencil,
                       cfg: ToleranceConfig = DEFAULT_CONFIG) -> GridProfile:
    """Sample the inertia of the family at a uniform angular grid.

    M(theta + pi) = -M(theta), so i_plus and i_minus swap at antipodes.  When
    the resolution R is even, grid angle i + R/2 is theta_i + pi to within an
    ulp, and only angles 0 .. R/2 - 1 are solved: the other half takes their
    counts swapped.  An odd R has no antipodal pairs and is solved in full.
    The solved angles go in stacks of at most AT_MANY_SLICE entries, as
    at_many fills its own, one eigvalsh call each, so no stack grows with
    the resolution; only the eigenvalues of every member are kept.  Each
    member equals QuadraticPencil.at bit for bit, so the counts match
    per-angle sampling.
    """
    dim = p.dim
    resolution = max(cfg.grid_n, 4 * dim)
    thr = cfg.tol_eig * p.scale()
    thetas = np.linspace(0.0, TWO_PI, resolution, endpoint=False).tolist()
    solved = thetas[:resolution // 2] if resolution % 2 == 0 else thetas
    step = max(1, AT_MANY_SLICE // (dim * dim))
    w = np.concatenate([_lapack(np.linalg.eigvalsh, p.at_many(solved[lo:lo + step]))
                        for lo in range(0, len(solved), step)])
    plus = np.count_nonzero(w > thr, axis=1)
    minus = np.count_nonzero(w < -thr, axis=1)
    if len(solved) < resolution:
        plus, minus = np.concatenate((plus, minus)), np.concatenate((minus, plus))
    triples = tuple(map(shared_triple, plus.tolist(), minus.tolist(),
                        (dim - plus - minus).tolist()))
    return GridProfile(resolution, tuple(thetas), triples)


def _steps_at(cuts: tuple, at, after, whole, tol: float, t: np.ndarray) -> np.ndarray:
    """A step function on the circle at every canonical angle, by the rules
    of circle._locate: at[i] within tol of cuts[i], after[i] on the open arc
    after it, whole with no cuts.  Each value is a scalar or a triple."""
    if not cuts:
        return np.full((len(t), *np.shape(whole)), whole)
    c = np.array(cuts)
    t = np.where(t >= TWO_PI - tol, 0.0, t)
    i = np.searchsorted(c, t, side="right") - 1
    nxt = np.minimum(i + 1, len(c) - 1)
    on_cut = (i >= 0) & (t - c[i] <= tol)
    on_next = ~on_cut & (i + 1 < len(c)) & (c[nxt] - t <= tol)
    i = np.where(on_next, nxt, i % len(c))
    on_cut = (on_cut | on_next).reshape(-1, *[1] * np.ndim(whole))
    return np.where(on_cut, np.asarray(at)[i], np.asarray(after)[i])


def grid_profile_disagreements(profile: IndexProfile, grid: GridProfile,
                               cfg: ToleranceConfig = DEFAULT_CONFIG) -> list[float]:
    """Grid angles of the profile's domain where it disagrees with sampling.

    Grid angles outside the domain are not compared; inside it, an angle the
    profile records no value for counts as a disagreement.  Angles within ten
    angular tolerances of a recorded breakpoint are skipped: there the
    inertia of a nearly-singular matrix is not decidable.

    The grid is checked in one array pass, with the per-angle rules: the
    domain and the profile are both step functions on cuts, read as
    CircleSubset.contains and IndexProfile.value_at_angle read them, and
    the guard measures the nearest sorted breakpoint on either side.
    """
    th = np.array(grid.thetas, dtype=float)
    t = th % TWO_PI
    t[t >= TWO_PI] = 0.0  # as canonical_angle
    dom = profile.domain
    todo = _steps_at(dom.cuts, dom.at, dom.after, dom.full, dom.tol, t)
    bps = np.sort(profile.breakpoint_angles())
    if len(bps):
        j = np.searchsorted(bps, t)
        near = np.minimum(abs((th - bps[j - 1] + PI) % TWO_PI - PI),
                          abs((th - bps[j % len(bps)] + PI) % TWO_PI - PI))
        todo &= near > 10.0 * cfg.tol_angle

    def triple(v):  # no value recorded: a triple no sample equals
        return (-1, -1, -1) if v is None else v

    recorded = _steps_at(profile.cuts, [*map(triple, profile.at)],
                         [*map(triple, profile.after)], triple(profile.whole),
                         cfg.tol_angle, t)
    sampled = np.fromiter(chain.from_iterable(grid.triples), dtype=np.int64,
                          count=3 * len(t)).reshape(-1, 3)
    bad = todo & np.any(recorded != sampled, axis=1)
    return [grid.thetas[k] for k in np.flatnonzero(bad)]


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
                      cfg: ToleranceConfig = DEFAULT_CONFIG,
                      target: int = 900, max_batches: int = 120,
                      batch: int = 200_000) -> int:
    """Connected components of the solution set, recovered from point samples.

    Accepts sphere points whose image lies within a thin band around the
    cone, links samples closer than three expected nearest-neighbour spacings
    (taken as a high quantile of the empirical distances, which is robust to
    the transverse scatter of the acceptance band), and counts union-find
    roots.  Projective mode also glues antipodes.  Only component counts are
    claimed, and only for a handful of variables.
    """
    if space not in ("sphere", "projective"):
        raise InvalidInputError("space must be 'sphere' or 'projective'")
    if p.n > 3:
        raise InvalidInputError("sampling oracle is limited to n <= 3")
    dim = p.dim
    scale = max(p.scale(), 1e-12)
    delta = MEMBERSHIP_DELTA * scale
    rng = np.random.default_rng(cfg.seed)
    accepted: list[np.ndarray] = []
    total = 0
    for step in range(max_batches):
        x = rng.standard_normal((batch, dim))
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
# level-set feasibility by descent
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeasibilitySample:
    found: bool
    witness: tuple | None
    margin: float
    residual: float


def _support_margin(problem: LevelProblem, directions: int = 1024) -> float:
    """Signed slack of c against the supporting halfplanes of the image.

    Positive margins mean every sampled supporting constraint holds strictly;
    negative means some constraint is violated by that amount.  Infinity when
    no sampled direction supports the image at the origin.
    """
    p = problem.pencil
    c = np.asarray(problem.c)
    scale = max(p.scale(), 1e-12)
    thetas = np.linspace(0.0, TWO_PI, directions, endpoint=False)
    cos = np.array([math.cos(t) for t in thetas])
    sin = np.array([math.sin(t) for t in thetas])
    keep = np.ones(directions, dtype=bool)
    if problem.mode == "ineq":  # only directions in the nonpositive quadrant
        keep = (cos <= 1e-12) & (sin <= 1e-12)
    top = _lapack(np.linalg.eigvalsh, p.at_many(thetas[keep]))[:, -1]
    supporting = top <= 1e-10 * scale
    slack = -(cos[keep] * c[0] + sin[keep] * c[1])
    return float(np.min(slack[supporting], initial=math.inf))


def feasibility_sample(problem: LevelProblem,
                       cfg: ToleranceConfig = DEFAULT_CONFIG,
                       starts: int | None = None) -> FeasibilitySample:
    """Multi-start descent on the squared residual of the level problem.

    found is True when some run drives the residual below tolerance; the
    witness is the final iterate.  The margin comes from an independent
    support-function scan and is reliable only when it clears the tolerance
    by a healthy factor.
    """
    p = problem.pencil
    c = np.asarray(problem.c, dtype=float)
    dim = p.dim
    rng = np.random.default_rng(cfg.seed)
    n_starts = starts if starts is not None else 6 + 2 * dim
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
    for k in range(n_starts):
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


# ---------------------------------------------------------------------------
# orientation monodromy
# ---------------------------------------------------------------------------

def stiefel_whitney(p: QuadraticPencil, profile: IndexProfile,
                    cfg: ToleranceConfig = DEFAULT_CONFIG,
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
    thr = cfg.tol_eig * p.scale()
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


def monodromy_refine(p: QuadraticPencil, filtration: FiltrationReport,
                     cfg: ToleranceConfig = DEFAULT_CONFIG) -> MonodromyCheck:
    """The analysis's orientation class against two transports: one from the
    default start, one from twice the resolution (base_resolution) it needs."""
    if not (filtration.mu > 0 and filtration.top_fills_circle):
        raise InvalidInputError(
            "monodromy refinement needs the top superlevel set to fill the circle")
    w1a = filtration.w1_nonzero
    w1b, res, _ = stiefel_whitney(p, filtration.profile, cfg)
    w1c, _, _ = stiefel_whitney(p, filtration.profile, cfg, start_resolution=2 * res)
    return MonodromyCheck(w1a == w1b == w1c, (w1a, w1b, w1c), res)


# ---------------------------------------------------------------------------
# the paper's positive-definite shift
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularizedPencil:
    """The family omega -> omega Q - epsilon * p with p a positive form.

    p is the identity form by default; on repeated failure of the simplicity
    checks a seeded random positive perturbation of the identity is drawn.
    """

    pencil: QuadraticPencil
    epsilon: float
    shift: np.ndarray  # the positive-definite form p (matrix)
    breakpoints: tuple[float, ...]

    def at(self, theta: float) -> np.ndarray:
        return self.pencil.at(theta) - self.epsilon * self.shift

    def at_many(self, thetas) -> np.ndarray:
        stack = self.pencil.at_many(thetas)
        stack -= self.epsilon * self.shift
        return stack


def _regularized_root_angles(p: QuadraticPencil, eps: float, shift: np.ndarray,
                             cfg: ToleranceConfig) -> list[tuple[float, int]]:
    """Clustered roots of det(omega Q - eps*shift) on the full circle.

    Uses a half-angle chart centered away from any root: with
    theta = phi0 + 2*atan(u), (1+u^2) * (M(theta(u)) - eps*shift) is the
    quadratic matrix polynomial A0 + u*A1 + u^2*A2 with A0 = M(phi0) - eps*shift,
    A1 = 2*M(phi0 + pi/2) and A2 = -M(phi0) - eps*shift.  QZ on its 2d x 2d
    companion pencil [[A1, A0], [-I, 0]] + u*[[A2, 0], [0, I]] finds every
    root; spurious ones are pruned downstream against the actual spectrum.
    """
    dim = p.dim
    scale = max(p.scale(), eps)
    a0, a1 = p.q0 / scale, p.q1 / scale
    sh = (eps / scale) * shift

    # pick a chart center whose antipode is far from singular
    cands = (0.123456, 0.987654, 1.543210, 2.246810, 0.555555)
    m = p.at_many([t + PI for t in cands]) / scale - sh
    gaps = np.min(np.abs(_eigvalsh(m)), axis=1)
    phi0 = cands[int(np.argmax(gaps))]

    c, s = math.cos(phi0), math.sin(phi0)
    m0 = c * a0 + s * a1
    eye, zero = np.eye(dim), np.zeros((dim, dim))
    roots, _ = pencil._qz_root_angles(
        np.block([[2.0 * (c * a1 - s * a0), m0 - sh], [-eye, zero]]),
        np.block([[-m0 - sh, zero], [zero, eye]]))
    angles = [canonical_angle(phi0 + 2.0 * r) for r in roots]
    return _cluster_periodic(angles, TWO_PI, cluster_tol(cfg))


def _validate_regularization(p: QuadraticPencil, eps: float, shift: np.ndarray,
                             clusters: list[tuple[float, int]],
                             cfg: ToleranceConfig) -> tuple[float, ...] | None:
    """Prune roots to crossings, then verify simplicity and unit index jumps."""
    eye_term = eps * shift
    thr_scale = cfg.tol_eig * max(p.scale(), eps)
    # a nearly real pair of non-real roots passes as real; drop every QZ
    # cluster centre at which the spectrum does not actually cross zero
    # (the caller's root-count accounting guards against over-pruning)
    genuine: list[tuple[float, int]] = []
    if clusters:
        gaps = np.min(np.abs(_eigvalsh(
            p.at_many([z for z, _ in clusters]) - eye_term)), axis=1)
        genuine = [(z, mult) for gap, (z, mult) in zip(gaps, clusters)
                   if gap <= 1e2 * thr_scale]
    if any(mult != 1 for _, mult in genuine):
        return None
    # cluster centres are more than cluster_tol >= 10 * tol_angle apart
    crossings = sorted(z for z, _ in genuine)
    if not crossings:
        return ()
    # each crossing and the midpoint of the arc after it, in one stacked solve
    ends = crossings[1:] + [crossings[0] + TWO_PI]
    probes = [t for z, z_next in zip(crossings, ends) for t in (z, 0.5 * (z + z_next))]
    w = _eigvalsh(p.at_many(probes) - eye_term)
    minus = []
    for wz, wm in zip(w[0::2], w[1::2]):
        if int(np.sum(np.abs(wz) <= 1e2 * thr_scale)) != 1:
            return None
        if float(np.min(np.abs(wm))) <= 1e2 * thr_scale:
            return None
        minus.append(int(np.sum(wm < 0.0)))
    for i in range(len(minus)):
        if abs(minus[i] - minus[i - 1]) != 1:
            return None
    return tuple(crossings)


def regularize(p: QuadraticPencil,
               cfg: ToleranceConfig = DEFAULT_CONFIG) -> RegularizedPencil:
    """Choose a shift size that makes the degenerate locus simple.

    Starts from a size scaled to the pencil and to the smallest gap of its
    locus, and halves until the shifted family has only simple roots with
    inertia jumps of exactly one.  The positive form is the identity; if
    every halving fails, a seeded random positive perturbation of the
    identity is tried.
    """
    dim = p.dim
    s = p.scale()
    if s == 0.0:
        raise NumericalError("zero pencil cannot be regularized")
    locus = degenerate_locus(p, cfg)
    # Root-count accounting against the original locus.  With simple original
    # roots each contributes exactly one crossing of the shifted family, so
    # any deficit means the shift exceeds the height of an eigenvalue bump
    # between two roots (a lost component) and any surplus means a positive
    # eigenvalue dips below the shift without vanishing (a fake cut); both
    # violate the spectrum separation the shift must preserve.  Multiple
    # roots split into several crossings, so only the lower bound applies.
    if locus.identically_singular:
        expected_roots, exact_count = None, False
    else:
        expected_roots = len(locus.points)
        exact_count = all(pt.multiplicity == 1 for pt in locus.points)
    angs = locus.angles
    gaps = [(b - a) % TWO_PI for a, b in zip(angs, angs[1:] + angs[:1])]
    gap = min([d for d in gaps if d > 0], default=TWO_PI)
    eps0 = max(s * min(1e-4, gap / 16.0), s * 1e-8)

    rng = np.random.default_rng(cfg.seed)
    shift = np.eye(dim)
    for trial in range(3):
        eps = eps0
        for _ in range(36):
            try:
                clusters = _regularized_root_angles(p, eps, shift, cfg)
            except NumericalError:
                eps *= 0.5
                continue
            bp = _validate_regularization(p, eps, shift, clusters, cfg)
            if bp is not None and (expected_roots is None or (
                    len(bp) >= expected_roots
                    and (not exact_count or len(bp) == expected_roots))):
                return RegularizedPencil(p, eps, shift, bp)
            eps *= 0.5
        # crossings of a shifted multiple eigenvalue are separated by the
        # spread of the perturbation's spectrum times the shift size, so the
        # perturbation must be generous to clear the clustering tolerance
        perturb = rng.standard_normal((dim, dim))
        perturb = 0.5 * (perturb + perturb.T)
        shift = np.eye(dim) + 0.3 * perturb / max(1.0, float(np.linalg.norm(perturb, 2)))
        if float(np.min(_eigvalsh(shift))) <= 0.1:
            shift = np.eye(dim)
    raise NumericalError("failed to find a regularizing shift size")


def regularized_profile(reg: RegularizedPencil,
                        cfg: ToleranceConfig = DEFAULT_CONFIG) -> IndexProfile:
    """Profile of the shifted family omega Q - eps * p over the full circle.

    The breakpoints are the shift's crossings, read by index_profile's
    builder with the family's scale max(scale, |family at 0|).  The family
    is not antisymmetric, so no half is mirrored.
    """
    scale = max(reg.pencil.scale(), float(np.linalg.norm(reg.at(0.0), 2)))
    return _build_profile(FamilySpectrum(reg, scale, cfg), CircleSubset.full_circle(),
                          list(reg.breakpoints), cfg, mirror=False)


def sublevel_eps(p: QuadraticPencil, k: int, cfg: ToleranceConfig = DEFAULT_CONFIG,
                 reg: RegularizedPencil | None = None) -> CircleSubset:
    """The closed set where the shifted family has negative index at most n - k.

    For a small enough shift this has the same first two Betti numbers as the
    open superlevel set at j = k + 1.
    """
    if reg is None:
        reg = regularize(p, cfg)
    return sublevel(regularized_profile(reg, cfg), p.n - k)


# ---------------------------------------------------------------------------
# aggregate verification
# ---------------------------------------------------------------------------

def verify_analysis(p: QuadraticPencil, cone: PlanarCone,
                    cfg: ToleranceConfig = DEFAULT_CONFIG,
                    result: AnalysisResult | None = None) -> dict:
    """Run every applicable oracle against the analytic answer.

    result is the AnalysisResult of (p, cone, cfg) when the caller already
    has it; otherwise the analysis runs here.  Raises OracleDisagreement on
    any mismatch; otherwise returns a summary of what was checked.
    """
    res = result if result is not None else analyze(p, cone, cfg)
    out: dict = {}

    grid = grid_index_profile(p, cfg)
    bad = grid_profile_disagreements(res.filtration.profile, grid, cfg)
    out["grid_points"] = grid.resolution
    out["grid_disagreements"] = len(bad)
    if bad:
        raise OracleDisagreement(
            f"index profile disagrees with the grid at {len(bad)} angles, "
            f"first at {bad[0]:.6f}")

    if p.n <= 3:
        b0 = sample_components(p, cone, "projective", cfg)
        out["sampled_b0"] = b0
        expected = res.report.b[0] if not res.report.empty else 0
        if b0 != expected:
            raise OracleDisagreement(
                f"sampled component count {b0} differs from b_0 = {expected}")

    filt = res.filtration
    if filt.mu > 0 and filt.top_fills_circle:
        check = monodromy_refine(p, filt, cfg)
        out["monodromy_values"] = list(check.values)
        if not check.stable:
            raise OracleDisagreement(
                "orientation monodromy changed under resolution refinement")
        if check.values[0] != res.table.w1_nonzero:
            raise OracleDisagreement("orientation class mismatch")
    return out
