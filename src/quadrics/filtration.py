"""Index profiles over circle domains and the level-set machinery built on them.

An index profile records the inertia of a one-parameter symmetric family on
every arc and breakpoint of a circle domain.  Superlevel sets of the positive
index give the central filtration; sublevel sets of the shifted family's
negative index give closed approximations with the same low-degree homology.
The monodromy of the top positive eigenspace around the full circle decides
the first Stiefel-Whitney class of the associated bundle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .circle import (
    Arc,
    CircleSubset,
    Point,
    canonical_angle,
    omega_set,
)
from .config import DEFAULT_CONFIG, ToleranceConfig
from .errors import NumericalError
from .pencil import (
    FamilySpectrum,
    InertiaTriple,
    QuadraticPencil,
    RegularizedPencil,
    cluster_tol,
    degenerate_locus,
    regularize,
)

TWO_PI = 2.0 * math.pi
PI = math.pi

# hard cap on breakpoints discovered per component during refinement
_MAX_EXTRA_BREAKPOINTS = 96


@dataclass(frozen=True)
class PointProfile:
    theta: float
    value: InertiaTriple


@dataclass(frozen=True)
class FullCircleProfile:
    """Profile over the whole circle: cyclic arcs between breakpoints.

    arc i runs counterclockwise from breakpoints[i] to breakpoints[(i+1) % m].
    Without breakpoints the family is constant and arc_values has one entry.
    """

    breakpoints: tuple[float, ...]
    arc_values: tuple[InertiaTriple, ...]
    point_values: tuple[InertiaTriple, ...]


@dataclass(frozen=True)
class ArcComponentProfile:
    """Profile over one arc component of the domain.

    Interior breakpoints split the arc; endpoint values are present only when
    the domain includes the endpoint.
    """

    start: float
    end: float
    include_start: bool
    include_end: bool
    breakpoints: tuple[float, ...]
    arc_values: tuple[InertiaTriple, ...]
    point_values: tuple[InertiaTriple, ...]
    value_start: InertiaTriple | None
    value_end: InertiaTriple | None


@dataclass(frozen=True)
class IndexProfile:
    """Inertia data of a family over a circle domain."""

    domain: CircleSubset
    components: tuple

    def all_values(self) -> list[InertiaTriple]:
        out: list[InertiaTriple] = []
        for comp in self.components:
            if isinstance(comp, PointProfile):
                out.append(comp.value)
            elif isinstance(comp, FullCircleProfile):
                out.extend(comp.arc_values)
                out.extend(comp.point_values)
            else:
                out.extend(comp.arc_values)
                out.extend(comp.point_values)
                if comp.value_start is not None:
                    out.append(comp.value_start)
                if comp.value_end is not None:
                    out.append(comp.value_end)
        return out

    def max_positive_index(self) -> int:
        vals = self.all_values()
        return max((v.i_plus for v in vals), default=0)

    def min_positive_index(self) -> int:
        vals = self.all_values()
        return min((v.i_plus for v in vals), default=0)

    def breakpoint_angles(self) -> list[float]:
        out: list[float] = []
        for comp in self.components:
            if isinstance(comp, FullCircleProfile):
                out.extend(comp.breakpoints)
            elif isinstance(comp, ArcComponentProfile):
                out.extend(canonical_angle(b) for b in comp.breakpoints)
                if comp.include_start:
                    out.append(canonical_angle(comp.start))
                if comp.include_end:
                    out.append(canonical_angle(comp.end))
            else:
                out.append(comp.theta)
        return sorted(out)

    def value_at_angle(self, theta: float,
                       tol: float = DEFAULT_CONFIG.tol_angle) -> InertiaTriple | None:
        """The recorded inertia at an angle, or None outside the domain."""
        t = canonical_angle(theta)
        for comp in self.components:
            if isinstance(comp, PointProfile):
                if abs(t - comp.theta) <= tol or TWO_PI - abs(t - comp.theta) <= tol:
                    return comp.value
            elif isinstance(comp, FullCircleProfile):
                m = len(comp.breakpoints)
                if m == 0:
                    return comp.arc_values[0]
                for i in range(m):
                    b = comp.breakpoints[i]
                    if abs(t - b) <= tol or TWO_PI - abs(t - b) <= tol:
                        return comp.point_values[i]
                lifted = comp.breakpoints[0] + ((t - comp.breakpoints[0]) % TWO_PI)
                for i in range(m):
                    nxt = comp.breakpoints[i + 1] if i + 1 < m else comp.breakpoints[0] + TWO_PI
                    if comp.breakpoints[i] < lifted < nxt:
                        return comp.arc_values[i]
                return comp.arc_values[m - 1]
            else:
                d = (t - comp.start) % TWO_PI
                if d >= TWO_PI - tol:
                    d = 0.0
                lifted = comp.start + d
                if lifted > comp.end + tol:
                    continue
                if abs(lifted - comp.start) <= tol:
                    return comp.value_start
                if abs(lifted - comp.end) <= tol:
                    return comp.value_end
                edges = [comp.start, *comp.breakpoints, comp.end]
                for b, pv in zip(comp.breakpoints, comp.point_values):
                    if abs(lifted - b) <= tol:
                        return pv
                for i in range(len(comp.arc_values)):
                    if edges[i] < lifted < edges[i + 1]:
                        return comp.arc_values[i]
        return None

    def rows(self) -> list[tuple[float, int, int, bool]]:
        """Flat (theta, i_plus, i_minus, is_breakpoint) rows for CSV export."""
        rows: list[tuple[float, int, int, bool]] = []
        for comp in self.components:
            if isinstance(comp, PointProfile):
                rows.append((comp.theta, comp.value.i_plus, comp.value.i_minus, True))
            elif isinstance(comp, FullCircleProfile):
                m = len(comp.breakpoints)
                if m == 0:
                    v = comp.arc_values[0]
                    rows.append((0.0, v.i_plus, v.i_minus, False))
                for i in range(m):
                    b = comp.breakpoints[i]
                    pv = comp.point_values[i]
                    rows.append((b, pv.i_plus, pv.i_minus, True))
                    nxt = comp.breakpoints[(i + 1) % m] + (TWO_PI if i == m - 1 else 0.0)
                    av = comp.arc_values[i]
                    rows.append((canonical_angle(0.5 * (b + nxt)), av.i_plus, av.i_minus, False))
            else:
                edges = [comp.start, *comp.breakpoints, comp.end]
                if comp.value_start is not None:
                    rows.append((canonical_angle(comp.start),
                                 comp.value_start.i_plus, comp.value_start.i_minus, True))
                for i, av in enumerate(comp.arc_values):
                    mid = 0.5 * (edges[i] + edges[i + 1])
                    rows.append((canonical_angle(mid), av.i_plus, av.i_minus, False))
                for b, pv in zip(comp.breakpoints, comp.point_values):
                    rows.append((canonical_angle(b), pv.i_plus, pv.i_minus, True))
                if comp.value_end is not None:
                    rows.append((canonical_angle(comp.end),
                                 comp.value_end.i_plus, comp.value_end.i_minus, True))
        rows.sort(key=lambda r: r[0])
        return rows


# ---------------------------------------------------------------------------
# profile construction
# ---------------------------------------------------------------------------

def _find_jump(evalf, a: float, b: float, va: InertiaTriple, vb: InertiaTriple,
               tol: float) -> float:
    """Bisect a value change of the inertia function down to angle tolerance."""
    lo, hi = a, b
    vlo = va
    while hi - lo > max(tol, 1e-12):
        mid = 0.5 * (lo + hi)
        vm = evalf(mid)
        if vm == vlo:
            lo, vlo = mid, vm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _thirds(a: float, b: float) -> tuple[float, float]:
    length = b - a
    return a + length / 3.0, a + 2.0 * length / 3.0


def _scan_segment(evalf, a: float, b: float, cfg: ToleranceConfig,
                  found: list[float], depth: int = 0) -> InertiaTriple:
    """Verify constancy on the open segment (a, b), collecting jump angles.

    Two interior samples at the thirds; a disagreement is located by bisection
    and both halves are re-scanned.  Samples stay well inside the segment:
    close to a degenerate endpoint the inertia of a nearly-vanishing
    eigenvalue is not trustworthy.
    """
    if len(found) > _MAX_EXTRA_BREAKPOINTS or depth > 24:
        raise NumericalError("breakpoint refinement did not converge")
    samples = _thirds(a, b)
    values = [evalf(t) for t in samples]
    if values[0] != values[1]:
        z = _find_jump(evalf, samples[0], samples[1],
                       values[0], values[1], cfg.tol_angle)
        found.append(z)
        _scan_segment(evalf, a, z, cfg, found, depth + 1)
        _scan_segment(evalf, z, b, cfg, found, depth + 1)
    return values[0]


def _segment_values(spectrum: FamilySpectrum, edges: list[float], cfg: ToleranceConfig
                    ) -> tuple[list[float], list[InertiaTriple]]:
    """Split [edges] further until every open segment carries constant inertia.

    The edges and the thirds of every segment are solved in one stacked call.
    """
    work = list(edges)
    spectrum.prefetch([*work, *(t for a, b in zip(work, work[1:]) for t in _thirds(a, b))])
    values: list[InertiaTriple] = []
    i = 0
    guard = 0
    while i < len(work) - 1:
        guard += 1
        if guard > 4 * _MAX_EXTRA_BREAKPOINTS:
            raise NumericalError("segment refinement exceeded its budget")
        found: list[float] = []
        v = _scan_segment(spectrum, work[i], work[i + 1], cfg, found)
        if found:
            work[i + 1:i + 1] = sorted(found)
            continue
        values.append(v)
        i += 1
    return work, values


def _find_dips(p: QuadraticPencil, spectrum: FamilySpectrum, edges: list[float],
               arc_vals: list[InertiaTriple], ctol: float) -> list[float]:
    """Newton search for isolated interior zeros of the smallest eigenvalue.

    A family whose determinant vanishes identically can drop rank at single
    points strictly inside an arc of the partition; interior samples never
    land on them.  The zero of the crossing eigenvalue is sought from every
    arc midpoint at once, one stacked eigh per Newton step; a hit counts only
    when it changes the inertia triple.  Returns the hits in arc order.
    """
    thr = spectrum.thr
    arcs = list(zip(edges, edges[1:]))
    theta = [0.5 * (lo + hi) for lo, hi in arcs]
    missed = [False] * len(arcs)
    active = list(range(len(arcs)))
    for _ in range(8):
        if not active:
            break
        w, v = np.linalg.eigh(spectrum.family.at_many([theta[i] for i in active]))
        moving = []
        for j, i in enumerate(active):
            k = int(np.argmin(np.abs(w[j])))
            lam = float(w[j][k])
            if abs(lam) <= 0.01 * thr:
                continue
            vec = v[j][:, k]
            slope = float(vec @ p.derivative_at(theta[i]) @ vec)
            if abs(slope) < 1e-12:
                missed[i] = True
                continue
            theta[i] -= lam / slope
            lo, hi = arcs[i]
            if not (lo + ctol < theta[i] < hi - ctol):
                missed[i] = True
                continue
            moving.append(i)
        active = moving
    hits = [i for i in range(len(arcs)) if not missed[i]]
    spectrum.prefetch([theta[i] for i in hits])
    return [theta[i] for i in hits
            if min(map(abs, spectrum.eigenvalues(theta[i]))) <= thr
            and spectrum(theta[i]) != arc_vals[i]]


def _refine_partition(p: QuadraticPencil, value_at: FamilySpectrum, edges: list[float],
                      cfg: ToleranceConfig, cyclic: bool, find_dips: bool
                      ) -> tuple[list[float], list[InertiaTriple], list[InertiaTriple]]:
    """Arc and breakpoint values over a partition, with semicontinuity repair.

    A breakpoint whose inertia exceeds a neighbouring arc value signals a jump
    hiding between the arc's interior samples and the breakpoint (candidates
    from a shifted family sit near, not on, the true jumps); such jumps are
    located by bisection and the partition is rebuilt.  The dip search
    contributes isolated interior rank drops that sampling cannot see.

    edges is ascending; for a cyclic partition the last edge repeats the first
    plus a full turn and the breakpoints are edges[:-1], otherwise the
    endpoints are domain boundary and the breakpoints are edges[1:-1].
    """
    ctol = cluster_tol(cfg)
    for _ in range(8):
        edges, arc_vals = _segment_values(value_at, edges, cfg)
        m = len(arc_vals)
        points = edges[:-1] if cyclic else edges[1:-1]
        value_at.prefetch(points)  # edges the scan inserted
        point_vals = [value_at(b) for b in points]
        inserts: list[float] = []
        if find_dips:
            for dip in _find_dips(p, value_at, edges, arc_vals, ctol):
                if min(abs(dip - e) for e in edges) > ctol:
                    inserts.append(dip)
        for idx in range(len(points)):
            pv = point_vals[idx]
            if cyclic:
                left_lo, left_hi = (edges[m - 1], edges[m]) if idx == 0 else (edges[idx - 1], edges[idx])
                right_lo, right_hi = edges[idx], edges[idx + 1]
                left, right = arc_vals[idx - 1], arc_vals[idx]
            else:
                left_lo, left_hi = edges[idx], edges[idx + 1]
                right_lo, right_hi = edges[idx + 1], edges[idx + 2]
                left, right = arc_vals[idx], arc_vals[idx + 1]
            if pv.i_plus > left.i_plus or pv.i_minus > left.i_minus:
                s = left_lo + (left_hi - left_lo) * 2.0 / 3.0
                z = _find_jump(value_at, s, left_hi, left, pv, cfg.tol_angle)
                if min(abs(z - e) for e in edges) > ctol:
                    inserts.append(z)
            if pv.i_plus > right.i_plus or pv.i_minus > right.i_minus:
                s = right_lo + (right_hi - right_lo) / 3.0
                z = _find_jump(value_at, right_lo, s, pv, right, cfg.tol_angle)
                if min(abs(z - e) for e in edges) > ctol:
                    inserts.append(z)
        if not inserts:
            return edges, arc_vals, point_vals
        edges = sorted(set(edges) | set(inserts))
    raise NumericalError("semicontinuity repair did not converge")


def _dedupe_sorted(angles: list[float], tol: float) -> list[float]:
    out: list[float] = []
    for a in angles:
        if not out or a - out[-1] > tol:
            out.append(a)
    return out


def index_profile(p: QuadraticPencil, domain: CircleSubset,
                  cfg: ToleranceConfig = DEFAULT_CONFIG,
                  family: QuadraticPencil | RegularizedPencil | None = None,
                  candidates: list[float] | None = None,
                  find_dips: bool = True) -> IndexProfile:
    """Inertia profile of a family over a circle domain.

    By default the family is the pencil itself and candidate breakpoints come
    from its degenerate locus (from the regularized locus when the determinant
    vanishes identically).  Arcs are verified constant by interior samples;
    disagreements trigger bisection refinement, so missed candidates are
    recovered rather than silently absorbed.  Every inertia value comes from
    one FamilySpectrum, so each angle is solved once per profile.
    """
    if family is None:
        family = p
        family_scale = p.scale()  # already bounds the member at 0, which is Q0
    else:
        family_scale = max(p.scale(), float(np.linalg.norm(family.at(0.0), 2)))
    value_at = FamilySpectrum(family, family_scale, cfg)

    if domain.is_empty():
        return IndexProfile(domain, ())

    if candidates is None:
        if p.scale() == 0.0:
            candidates = []  # the zero pencil has constant (vanishing) inertia
        else:
            locus = degenerate_locus(p, cfg)
            if locus.identically_singular:
                candidates = list(regularize(p, cfg).breakpoints)
            else:
                candidates = locus.angles

    ctol = cluster_tol(cfg)
    components: list = []
    if domain.is_full():
        bps = _dedupe_sorted(sorted(canonical_angle(c) for c in candidates), ctol)
        if len(bps) >= 2 and (bps[0] + TWO_PI) - bps[-1] <= ctol:
            bps = bps[:-1]
        if not bps:
            found: list[float] = []
            v = _scan_segment(value_at, 0.0, TWO_PI, cfg, found)
            if found:
                bps = sorted(canonical_angle(z) for z in found)
            else:
                components.append(FullCircleProfile((), (v,), ()))
        if bps:
            edges = bps + [bps[0] + TWO_PI]
            edges, arc_vals, point_vals = _refine_partition(p, value_at, edges, cfg,
                                                            cyclic=True,
                                                            find_dips=find_dips)
            bps = [canonical_angle(e) for e in edges[:-1]]
            # canonicalization may wrap trailing angles past the seam; rotate
            # the cyclic data back into ascending order
            k = 0
            for i in range(1, len(bps)):
                if bps[i] < bps[i - 1]:
                    k = i
                    break
            bps = bps[k:] + bps[:k]
            arc_vals = list(arc_vals[k:]) + list(arc_vals[:k])
            point_vals = list(point_vals[k:]) + list(point_vals[:k])
            components.append(FullCircleProfile(tuple(bps), tuple(arc_vals),
                                                tuple(point_vals)))
        profile = IndexProfile(domain, tuple(components))
        _validate_semicontinuity(profile)
        return profile

    for s, e, cs, ce in domain.recs:
        if e == s:
            components.append(PointProfile(s, value_at(s)))
            continue
        inner = []
        for c in candidates:
            lift = s + ((canonical_angle(c) - s) % TWO_PI)
            if s + ctol < lift < e - ctol:
                inner.append(lift)
        inner = _dedupe_sorted(sorted(inner), ctol)
        edges = [s, *inner, e]
        edges, arc_vals, point_vals = _refine_partition(p, value_at, edges, cfg,
                                                        cyclic=False,
                                                        find_dips=find_dips)
        inner = edges[1:-1]
        components.append(ArcComponentProfile(
            start=s, end=e, include_start=cs, include_end=ce,
            breakpoints=tuple(inner),
            arc_values=tuple(arc_vals),
            point_values=tuple(point_vals),
            value_start=value_at(s) if cs else None,
            value_end=value_at(e) if ce else None,
        ))
    profile = IndexProfile(domain, tuple(components))
    _validate_semicontinuity(profile)
    return profile


def _validate_semicontinuity(profile: IndexProfile) -> None:
    """Breakpoint inertia never exceeds the neighbouring arc inertia."""
    for comp in profile.components:
        if isinstance(comp, FullCircleProfile):
            m = len(comp.breakpoints)
            for i in range(m):
                left = comp.arc_values[i - 1]
                right = comp.arc_values[i]
                pv = comp.point_values[i]
                if pv.i_plus > min(left.i_plus, right.i_plus) or \
                        pv.i_minus > min(left.i_minus, right.i_minus):
                    raise NumericalError(
                        f"semicontinuity violated at breakpoint {comp.breakpoints[i]}")
        elif isinstance(comp, ArcComponentProfile):
            for i, pv in enumerate(comp.point_values):
                left = comp.arc_values[i]
                right = comp.arc_values[i + 1]
                if pv.i_plus > min(left.i_plus, right.i_plus) or \
                        pv.i_minus > min(left.i_minus, right.i_minus):
                    raise NumericalError(
                        f"semicontinuity violated at breakpoint {comp.breakpoints[i]}")
            first, last = comp.arc_values[0], comp.arc_values[-1]
            if comp.value_start is not None and (
                    comp.value_start.i_plus > first.i_plus
                    or comp.value_start.i_minus > first.i_minus):
                raise NumericalError(
                    f"semicontinuity violated at domain endpoint {comp.start}")
            if comp.value_end is not None and (
                    comp.value_end.i_plus > last.i_plus
                    or comp.value_end.i_minus > last.i_minus):
                raise NumericalError(
                    f"semicontinuity violated at domain endpoint {comp.end}")


def regularized_profile(reg: RegularizedPencil, domain: CircleSubset,
                        cfg: ToleranceConfig = DEFAULT_CONFIG) -> IndexProfile:
    """Profile of the shifted family omega Q - eps * p over the domain."""
    return index_profile(reg.pencil, domain, cfg, family=reg,
                         candidates=list(reg.breakpoints), find_dips=False)


# ---------------------------------------------------------------------------
# level subsets
# ---------------------------------------------------------------------------

def level_subset(profile: IndexProfile,
                 predicate: Callable[[InertiaTriple], bool]) -> CircleSubset:
    """The subset of the domain where the pointwise inertia satisfies predicate.

    Arcs enter as open arcs and qualifying breakpoints as points; the union is
    canonicalized, so closures happen exactly where point values qualify.
    """
    items: list = []
    full_and_constant = False
    for comp in profile.components:
        if isinstance(comp, PointProfile):
            if predicate(comp.value):
                items.append(Point(comp.theta))
        elif isinstance(comp, FullCircleProfile):
            m = len(comp.breakpoints)
            if m == 0:
                if predicate(comp.arc_values[0]):
                    full_and_constant = True
                continue
            for i in range(m):
                b = comp.breakpoints[i]
                nxt = comp.breakpoints[(i + 1) % m] + (TWO_PI if i == m - 1 else 0.0)
                if predicate(comp.arc_values[i]):
                    items.append(Arc(b, nxt, False, False))
                if predicate(comp.point_values[i]):
                    items.append(Point(b))
        else:
            edges = [comp.start, *comp.breakpoints, comp.end]
            for i, av in enumerate(comp.arc_values):
                if predicate(av):
                    items.append(Arc(canonical_angle(edges[i]),
                                     canonical_angle(edges[i]) + (edges[i + 1] - edges[i]),
                                     False, False))
            for b, pv in zip(comp.breakpoints, comp.point_values):
                if predicate(pv):
                    items.append(Point(canonical_angle(b)))
            if comp.value_start is not None and predicate(comp.value_start):
                items.append(Point(canonical_angle(comp.start)))
            if comp.value_end is not None and predicate(comp.value_end):
                items.append(Point(canonical_angle(comp.end)))
    if full_and_constant:
        return CircleSubset.full_circle(profile.domain.tol)
    return CircleSubset.from_items(items, profile.domain.tol)


def superlevel(profile: IndexProfile, j: int) -> CircleSubset:
    """{omega in the domain : i_plus(omega) >= j}."""
    if j <= 0:
        return profile.domain
    return level_subset(profile, lambda v: v.i_plus >= j)


def sublevel_eps(p: QuadraticPencil, domain: CircleSubset, k: int,
                 cfg: ToleranceConfig = DEFAULT_CONFIG,
                 reg: RegularizedPencil | None = None) -> CircleSubset:
    """Closed set where the shifted family has negative index at most n - k.

    For a small enough shift this has the same first two Betti numbers as the
    open superlevel set at j = k + 1.
    """
    if reg is None:
        reg = regularize(p, cfg)
    prof = regularized_profile(reg, domain, cfg)
    bound = p.n - k
    return level_subset(prof, lambda v: v.i_minus <= bound)


# ---------------------------------------------------------------------------
# filtration report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiltrationReport:
    """Superlevel filtration data of a pencil over its domain."""

    profile: IndexProfile
    omega_j: tuple[CircleSubset, ...]  # superlevel sets for j = 1 .. n+1
    mu: int
    nu: int
    w1_nonzero: bool
    w1_resolution: int
    w1_reason: str

    def omega(self, j: int) -> CircleSubset:
        """The superlevel set at level j (j = 0 gives the whole domain)."""
        if j <= 0:
            return self.profile.domain
        if j > len(self.omega_j):
            return CircleSubset.empty(self.profile.domain.tol)
        return self.omega_j[j - 1]


def stiefel_whitney(p: QuadraticPencil, profile: IndexProfile,
                    cfg: ToleranceConfig = DEFAULT_CONFIG,
                    start_resolution: int = 64,
                    max_resolution: int = 1 << 14) -> tuple[bool, int, str]:
    """Orientability of the bundle of top positive eigenspaces.

    Returns (w1_nonzero, resolution, reason).  When the top superlevel set is
    not the whole circle the class vanishes and no transport is needed.
    Otherwise an orthonormal basis of the positive eigenspace is transported
    around the circle; the sign of the product of overlap determinants decides
    whether the holonomy reverses orientation.  Each overlap must stay well
    conditioned (smallest singular value above one half); the resolution is
    doubled until it does.
    """
    mu = profile.max_positive_index()
    omega_mu = superlevel(profile, mu)
    if mu == 0:
        return (False, 0, "rank-zero bundle")
    if not omega_mu.is_full():
        return (False, 0, "top superlevel set is not the whole circle")

    dim = p.dim
    thr = cfg.tol_eig * p.scale()
    resolution = max(start_resolution, 8 * dim)
    while resolution <= max_resolution:
        thetas = np.linspace(0.0, TWO_PI, resolution, endpoint=False)
        w, v = np.linalg.eigh(p.at_many(thetas))
        off_rank = np.sum(w > thr, axis=1) != mu
        if np.any(off_rank):
            th = thetas[int(np.argmax(off_rank))]
            raise NumericalError(
                f"positive eigenspace rank is not constant at angle {th}")
        # eigenvalues ascend, so the positive eigenspace is the last mu columns
        frames = np.ascontiguousarray(v[:, :, dim - mu:])
        overlaps = frames.transpose(0, 2, 1) @ np.roll(frames, -1, axis=0)
        smin = np.linalg.svd(overlaps, compute_uv=False)[:, -1]
        worst = int(np.argmin(smin))
        if smin[worst] > 0.5:
            reversals = int(np.sum(np.signbit(np.linalg.det(overlaps))))
            return (reversals % 2 == 1, resolution, "monodromy determinant sign")
        worst_angle = thetas[worst]
        resolution *= 2
    raise NumericalError(
        f"overlap conditioning stayed poor near angle {worst_angle}")


def filtration_report(p: QuadraticPencil, domain: CircleSubset,
                      cfg: ToleranceConfig = DEFAULT_CONFIG,
                      profile: IndexProfile | None = None) -> FiltrationReport:
    """Compute the superlevel filtration, its extremes and the monodromy class."""
    if profile is None:
        profile = index_profile(p, domain, cfg)
    dim = p.dim
    if domain.is_empty():
        empty = CircleSubset.empty(domain.tol)
        return FiltrationReport(profile, tuple([empty] * dim), 0, 0,
                                False, 0, "empty domain")
    mu = profile.max_positive_index()
    nu = profile.min_positive_index()
    omegas = tuple(superlevel(profile, j) for j in range(1, dim + 1))
    if mu == nu and domain.is_full() and mu > dim // 2:
        raise NumericalError(
            "constant index exceeds half the dimension; tolerances inconsistent")
    w1, res, reason = stiefel_whitney(p, profile, cfg)
    return FiltrationReport(profile, omegas, mu, nu, w1, res, reason)


def filtration_for_cone(p: QuadraticPencil, cone, cfg: ToleranceConfig = DEFAULT_CONFIG
                        ) -> FiltrationReport:
    return filtration_report(p, omega_set(cone, cfg.tol_angle), cfg)
