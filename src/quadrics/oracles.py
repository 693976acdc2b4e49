"""Independent brute-force verifiers for the analytic pipeline.

Dense-grid inertia sampling cross-checks index profiles; rejection sampling
on the sphere with union-find recovers component counts of the solution set;
multi-start descent decides level-set feasibility with a support-function
margin; the orientation monodromy is re-run at doubled resolutions.  Nothing
here shares code paths with the combinatorial machinery it verifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.spatial import cKDTree

from .applications import LevelProblem
from .betti import AnalysisResult
from .circle import PlanarCone
from .config import DEFAULT_CONFIG, ToleranceConfig
from .errors import InvalidInputError, NumericalError, OracleDisagreement
from .filtration import FiltrationReport, IndexProfile, stiefel_whitney
from .pencil import InertiaTriple, QuadraticPencil

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

    All grid members are solved in one stacked eigvalsh call.  Their
    coefficients come from math.cos/math.sin, so each member equals
    QuadraticPencil.at bit for bit and the counts match per-angle sampling.
    """
    dim = p.dim
    resolution = max(cfg.grid_n, 4 * dim)
    thr = cfg.tol_eig * p.scale()
    thetas = [float(t) for t in np.linspace(0.0, TWO_PI, resolution, endpoint=False)]
    c = np.array([math.cos(t) for t in thetas])[:, None, None]
    s = np.array([math.sin(t) for t in thetas])[:, None, None]
    try:
        w = np.linalg.eigvalsh(c * p.q0 + s * p.q1)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue solver failed: {exc}") from exc
    plus = np.count_nonzero(w > thr, axis=1).tolist()
    minus = np.count_nonzero(w < -thr, axis=1).tolist()
    triples = tuple(InertiaTriple(a, b, dim - a - b) for a, b in zip(plus, minus))
    return GridProfile(resolution, tuple(thetas), triples)


def grid_profile_disagreements(profile: IndexProfile, grid: GridProfile,
                               cfg: ToleranceConfig = DEFAULT_CONFIG) -> list[float]:
    """Grid angles of the profile's domain where it disagrees with sampling.

    Grid angles outside the domain are not compared; inside it, an angle the
    profile records no value for counts as a disagreement.  Angles within ten
    angular tolerances of a recorded breakpoint are skipped: there the
    inertia of a nearly-singular matrix is not decidable.
    """
    guard = 10.0 * cfg.tol_angle
    breakpoints = profile.breakpoint_angles()
    bad: list[float] = []
    for th, triple in zip(grid.thetas, grid.triples):
        if not profile.domain.contains(th):
            continue
        if breakpoints and min(
                abs((th - b + PI) % TWO_PI - PI) for b in breakpoints) <= guard:
            continue
        recorded = profile.value_at_angle(th, cfg.tol_angle)
        if recorded is None or recorded != triple:
            bad.append(th)
    return bad


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
    top = np.linalg.eigvalsh(p.at_many(thetas[keep]))[:, -1]
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
# monodromy stability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonodromyCheck:
    stable: bool
    values: tuple[bool, bool, bool]
    base_resolution: int


def monodromy_refine(p: QuadraticPencil, filtration: FiltrationReport,
                     cfg: ToleranceConfig = DEFAULT_CONFIG) -> MonodromyCheck:
    """Re-run the orientation transport at twice and four times the resolution
    the filtration report's own transport settled on."""
    res = filtration.w1_resolution
    if res == 0:
        raise InvalidInputError(
            "monodromy refinement needs the top superlevel set to fill the circle")
    w1a = filtration.w1_nonzero
    w1b, _, _ = stiefel_whitney(p, filtration.profile, cfg, start_resolution=2 * res)
    w1c, _, _ = stiefel_whitney(p, filtration.profile, cfg, start_resolution=4 * res)
    return MonodromyCheck(w1a == w1b == w1c, (w1a, w1b, w1c), res)


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
    from .betti import analyze

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
    if filt.mu > 0 and filt.profile.domain.is_full() and filt.nu == filt.mu:
        check = monodromy_refine(p, filt, cfg)
        out["monodromy_values"] = list(check.values)
        if not check.stable:
            raise OracleDisagreement(
                "orientation monodromy changed under resolution refinement")
        if check.values[0] != res.table.w1_nonzero:
            raise OracleDisagreement("orientation class mismatch")
    return out
