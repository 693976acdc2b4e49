"""Index profiles over circle domains and the level-set machinery built on them.

An index profile records the inertia of a pencil's family on every arc and
breakpoint of a circle domain.  The breakpoints are the family's degenerate
locus and nothing else: the inertia is constant between consecutive roots,
so each arc is read once, and a reading that shows a root the locus lacks
raises NumericalError.  Superlevel sets of the positive index give the
central filtration.  The paper's closed approximations of them, sublevel
sets of a positively shifted family's negative index, are a cross-check in
quadrics.oracles.  When the top superlevel set is the whole circle, the
first Stiefel-Whitney class of its positive eigenspace bundle is the parity
of the conjugate root pairs of the pencil's regular part; the eigenspace
transport that measures it directly is an oracle
(quadrics.oracles.stiefel_whitney).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

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
    cluster_tol,
    degenerate_locus,
    shared_triple,
)

TWO_PI = 2.0 * math.pi

@dataclass(frozen=True)
class IndexProfile:
    """Inertia data of a family over a circle domain.

    cells pairs circle items with the inertia the family has on them: a
    Point for each breakpoint and each included domain endpoint, an Arc open
    at both ends for each stretch between them, and, for a constant family
    on the full circle, one closed full-turn Arc.  Cells are sorted by start
    angle; a breakpoint comes before the arc that starts at it.
    """

    domain: CircleSubset
    cells: tuple[tuple[Point | Arc, InertiaTriple], ...]

    @cached_property
    def _index_range(self) -> tuple[int, int, int, int]:
        """(min, max) of i_plus, then of i_minus, over the cells; zeros with none."""
        plus = [v.i_plus for _, v in self.cells] or [0]
        minus = [v.i_minus for _, v in self.cells] or [0]
        return (min(plus), max(plus), min(minus), max(minus))

    def max_positive_index(self) -> int:
        return self._index_range[1]

    def min_positive_index(self) -> int:
        return self._index_range[0]

    def breakpoint_angles(self) -> list[float]:
        return [item.theta for item, _ in self.cells if isinstance(item, Point)]

    @cached_property
    def _starts(self) -> list[float]:
        return [item.start for item, _ in self.cells]

    def value_at_angle(self, theta: float,
                       tol: float = DEFAULT_CONFIG.tol_angle) -> InertiaTriple | None:
        """The recorded inertia at an angle, or None outside the domain.

        Only the last cell starting at or before the angle and its two
        neighbours can hold it: the one before is the breakpoint an arc
        starts at, the one after a breakpoint within tol ahead.
        """
        n = len(self.cells)
        if n == 0:
            return None
        t = canonical_angle(theta)
        i = bisect_right(self._starts, t) - 1
        for k in (i, i - 1, i + 1):
            item, value = self.cells[k % n]
            if item.contains(t, tol):
                return value
        return None

    def rows(self) -> list[tuple[float, int, int, bool]]:
        """Flat (theta, i_plus, i_minus, is_breakpoint) rows for CSV export.

        An arc is listed at its midpoint, the full turn of a constant family
        at angle zero.
        """
        rows: list[tuple[float, int, int, bool]] = []
        for item, v in self.cells:
            if isinstance(item, Point):
                rows.append((item.theta, v.i_plus, v.i_minus, True))
            else:
                mid = 0.0 if item.closed_start else \
                    canonical_angle(0.5 * (item.start + item.end))
                rows.append((mid, v.i_plus, v.i_minus, False))
        rows.sort(key=lambda r: r[0])
        return rows


# ---------------------------------------------------------------------------
# profile construction
# ---------------------------------------------------------------------------

def _read_arcs(spectrum: FamilySpectrum, edges: list[float],
               points: list[float] | tuple = ()) -> list[InertiaTriple]:
    """The inertia on each open arc between consecutive ascending edges.

    Both thirds of every arc and the points the caller reads next are solved
    in one stacked pass; an edge that is not one of the points is not solved.
    Each arc is read at its two thirds.  On the full circle the edges may
    span only half of it: index_profile mirrors the other half.  The family
    is constant on an arc that holds no root, so the readings agree, except
    that a third inside the zero band of a nearby multiple root reads extra
    zeros and no count above the other reading: the arc takes the other
    reading then.  Any other disagreement is a root the candidates miss and
    raises NumericalError.
    """
    arcs = list(zip(edges, edges[1:]))
    thirds = [(a + (b - a) / 3.0, a + 2.0 * (b - a) / 3.0) for a, b in arcs]
    spectrum.prefetch([*points, *(t for pair in thirds for t in pair)])
    values: list[InertiaTriple] = []
    for (a, b), (s, t) in zip(arcs, thirds):
        u, v = spectrum(s), spectrum(t)
        if not _exceeds(u, v):
            u = v  # equal, or u read in a zero band
        elif _exceeds(v, u):
            raise NumericalError(
                f"inertia changes inside the arc ({a}, {b}): {tuple(u)} at {s}, "
                f"{tuple(v)} at {t}; a root is missing from the candidates")
        values.append(u)
    return values


def _antipodally_paired(bps: list[float], tol: float) -> bool:
    """Whether the sorted breakpoints split into halves half a turn apart."""
    h = len(bps) // 2
    return len(bps) == 2 * h and all(
        abs(bps[i + h] - bps[i] - math.pi) <= tol for i in range(h))


def _antipode(v: InertiaTriple) -> InertiaTriple:
    """The inertia of -M given that of M."""
    return shared_triple(v.i_minus, v.i_plus, v.i_zero)


def _dedupe_sorted(angles: list[float], tol: float) -> list[float]:
    out: list[float] = []
    for a in angles:
        if not out or a - out[-1] > tol:
            out.append(a)
    return out


def index_profile(p: QuadraticPencil, domain: CircleSubset,
                  cfg: ToleranceConfig = DEFAULT_CONFIG,
                  candidates: list[float] | None = None) -> IndexProfile:
    """Inertia profile of the pencil's family over a circle domain.

    By default the candidate breakpoints are the pencil's degenerate locus,
    which degenerate_locus finds by one QZ solve for every pencil,
    identically singular ones included.  The candidates are the only
    breakpoints: the inertia is constant between them, and _read_arcs reads
    each arc once, at its two thirds, in one stacked FamilySpectrum pass per
    domain component, together with the component's breakpoints and
    included endpoints.  Readings that disagree other than by a zero band
    mean a missing candidate and raise NumericalError, as does a point whose
    inertia exceeds that of an arc it bounds.

    On the full circle the family has M(theta + pi) = -M(theta), so i_plus
    and i_minus swap at antipodes.  When the B sorted breakpoints pair
    antipodally within cluster_tol, as the locus's always do, only the arcs
    from bps[0] to bps[B/2] and the first B/2 breakpoints are solved, and the
    rest are their antipodes' values swapped: 3 B/2 matrices, not 3 B.
    Custom candidates need not pair; unpaired ones are read in full.
    """
    value_at = FamilySpectrum(p, p.scale(), cfg)

    if domain.is_empty():
        return IndexProfile(domain, ())

    if candidates is None:
        candidates = degenerate_locus(p, cfg).angles

    ctol = cluster_tol(cfg)
    cells: list = []
    if domain.is_full():
        bps = _dedupe_sorted(sorted(canonical_angle(c) for c in candidates), ctol)
        if len(bps) >= 2 and (bps[0] + TWO_PI) - bps[-1] <= ctol:
            bps = bps[:-1]
        if not bps:
            v, = _read_arcs(value_at, [0.0, TWO_PI])
            return IndexProfile(domain, ((Arc(0.0, TWO_PI, True, True), v),))
        edges = bps + [bps[0] + TWO_PI]
        h = len(bps) // 2
        if _antipodally_paired(bps, ctol):
            # M(theta + pi) = -M(theta): the second half is the first, swapped
            arc_vals = _read_arcs(value_at, edges[:h + 1], bps[:h])
            point_vals = [value_at(b) for b in bps[:h]]
            arc_vals += [_antipode(v) for v in arc_vals]
            point_vals += [_antipode(v) for v in point_vals]
        else:
            arc_vals = _read_arcs(value_at, edges, bps)
            point_vals = [value_at(b) for b in bps]
        for i, (b, pv) in enumerate(zip(bps, point_vals)):
            _require_semicontinuous("breakpoint", b, pv, arc_vals[i - 1], arc_vals[i])
            cells += [(Point(b), pv), (Arc(b, edges[i + 1], False, False), arc_vals[i])]
        return IndexProfile(domain, tuple(cells))

    for item in domain.items:
        s, e = item.start, item.end
        if e == s:
            cells.append((item, value_at(s)))
            continue
        inner = []
        for c in candidates:
            lift = s + ((canonical_angle(c) - s) % TWO_PI)
            if s + ctol < lift < e - ctol:
                inner.append(lift)
        inner = _dedupe_sorted(sorted(inner), ctol)
        edges = [s, *inner, e]
        ends = [b for included, b in ((item.closed_start, s), (item.closed_end, e))
                if included]
        arc_vals = _read_arcs(value_at, edges, [*inner, *ends])
        for i, b in enumerate(inner):
            pv = value_at(b)
            _require_semicontinuous("breakpoint", b, pv, arc_vals[i], arc_vals[i + 1])
            cells.append((Point(canonical_angle(b)), pv))
        for lo, hi, av in zip(edges, edges[1:], arc_vals):
            cl = canonical_angle(lo)
            cells.append((Arc(cl, cl + (hi - lo), False, False), av))
        for included, b, arc in ((item.closed_start, s, arc_vals[0]),
                                 (item.closed_end, e, arc_vals[-1])):
            if included:
                v = value_at(b)
                _require_semicontinuous("domain endpoint", b, v, arc)
                cells.append((Point(canonical_angle(b)), v))
    cells.sort(key=_cell_key)
    return IndexProfile(domain, tuple(cells))


def _cell_key(cell) -> tuple[float, float]:
    """Sort by start; a point comes before the arc that starts at it."""
    return (cell[0].start, cell[0].end)


def _exceeds(point: InertiaTriple, arc: InertiaTriple) -> bool:
    """Whether a point's inertia breaks semicontinuity against an arc it bounds."""
    return point.i_plus > arc.i_plus or point.i_minus > arc.i_minus


def _require_semicontinuous(where: str, theta: float, value: InertiaTriple,
                            *arcs: InertiaTriple) -> None:
    if any(_exceeds(value, arc) for arc in arcs):
        raise NumericalError(f"semicontinuity violated at {where} {theta}")


# ---------------------------------------------------------------------------
# level subsets
# ---------------------------------------------------------------------------

def _cells_where(profile: IndexProfile,
                 keep: Callable[[InertiaTriple], bool]) -> CircleSubset:
    """The union of the cells whose inertia satisfies keep.

    The cells enter as they are and the union is canonicalized, so arcs close
    exactly where their endpoint values qualify.
    """
    items = [item for item, v in profile.cells if keep(v)]
    return CircleSubset.from_items(items, profile.domain.tol)


def superlevel(profile: IndexProfile, j: int) -> CircleSubset:
    """{omega in the domain : i_plus(omega) >= j}.

    i_plus ranges over [nu, mu] on the cells, so every level j <= nu is the
    whole domain and every level j > mu is empty: the union of all cells is
    the domain and the union of none is empty.  Only the levels in between
    take a pass over the cells.
    """
    nu, mu = profile._index_range[:2]
    if j <= nu:
        return profile.domain
    if j > mu:
        return CircleSubset.empty(profile.domain.tol)
    return _cells_where(profile, lambda v: v.i_plus >= j)


def sublevel(profile: IndexProfile, k: int) -> CircleSubset:
    """{omega in the domain : i_minus(omega) <= k}, by the same range rule."""
    lo, hi = profile._index_range[2:]
    if k >= hi:
        return profile.domain
    if k < lo:
        return CircleSubset.empty(profile.domain.tol)
    return _cells_where(profile, lambda v: v.i_minus <= k)


# ---------------------------------------------------------------------------
# filtration report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiltrationReport:
    """Superlevel filtration data of a pencil over its domain.

    The superlevel sets and the orientation class are computed when first
    read, once each.
    """

    pencil: QuadraticPencil
    profile: IndexProfile
    mu: int
    nu: int
    cfg: ToleranceConfig = DEFAULT_CONFIG
    _omegas: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def omega(self, j: int) -> CircleSubset:
        """The superlevel set at level j (j = 0 gives the whole domain).

        Only the levels in (nu, mu] are kept: the others are the domain or
        the empty set, which superlevel returns as they are.
        """
        if j <= self.nu or j > self.mu:
            return superlevel(self.profile, j)
        if j not in self._omegas:
            self._omegas[j] = superlevel(self.profile, j)
        return self._omegas[j]

    @property
    def omega_j(self) -> tuple[CircleSubset, ...]:
        """The superlevel sets for j = 1 .. dim."""
        return tuple(self.omega(j) for j in range(1, self.pencil.dim + 1))

    @property
    def top_fills_circle(self) -> bool:
        """Whether Omega^mu is the circle: the domain is, and i_plus is constant."""
        return self.profile.domain.is_full() and self.nu == self.mu

    @cached_property
    def w1_nonzero(self) -> bool:
        """The first Stiefel-Whitney class of the top positive eigenspace bundle.

        It vanishes unless mu > 0 and Omega^mu = S^1.  Then every root-free
        2 x 2 block of the regular part adds a Moebius band and an
        L_eps + L_eps' block an orientable bundle (Lancaster and Rodman, SIAM
        Review 47, 2005), so w1 is the parity of the regular part's conjugate
        root pairs: mu of them when dim = 2 mu, and otherwise the locus's
        count, with rank deficit dim - 2 mu.
        """
        if self.mu == 0 or not self.top_fills_circle:
            return False
        dim = self.pencil.dim
        if dim == 2 * self.mu:
            return self.mu % 2 == 1
        locus = degenerate_locus(self.pencil, self.cfg)
        if locus.rank_deficit != dim - 2 * self.mu:
            raise NumericalError(
                f"constant index {self.mu} leaves {dim - 2 * self.mu} zeros at every "
                f"angle, but the rank deficit is {locus.rank_deficit}")
        return locus.theta_pairs % 2 == 1


def filtration_report(p: QuadraticPencil, domain: CircleSubset,
                      cfg: ToleranceConfig = DEFAULT_CONFIG,
                      profile: IndexProfile | None = None) -> FiltrationReport:
    """The superlevel filtration of the pencil over the domain and its extremes.

    The superlevel sets and the orientation class are computed on first read.
    """
    if profile is None:
        profile = index_profile(p, domain, cfg)
    mu = profile.max_positive_index()
    nu = profile.min_positive_index()
    if mu == nu and domain.is_full() and mu > p.dim // 2:
        raise NumericalError(
            "constant index exceeds half the dimension; tolerances inconsistent")
    return FiltrationReport(p, profile, mu, nu, cfg)


def filtration_for_cone(p: QuadraticPencil, cone, cfg: ToleranceConfig = DEFAULT_CONFIG
                        ) -> FiltrationReport:
    return filtration_report(p, omega_set(cone, cfg.tol_angle), cfg)
