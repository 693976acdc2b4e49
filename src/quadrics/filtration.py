"""Index profiles over circle domains and the level-set machinery built on them.

An index profile records the inertia of a pencil's family on every arc and
breakpoint of a circle domain.  The breakpoints are the family's degenerate
locus and nothing else: the inertia is constant between consecutive roots,
so each arc is read once, and a reading that shows a root the locus lacks
raises NumericalError.  Superlevel sets of the positive index give the
central filtration.  When the top superlevel set is the whole circle, the
first Stiefel-Whitney class of its positive eigenspace bundle is the parity
of the conjugate root pairs of the pencil's regular part; the eigenspace
transport that measures it directly is an oracle
(quadrics.oracles.stiefel_whitney).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from .circle import CircleSubset, _locate, canonical_angle, omega_set
from .errors import NumericalError
from .pencil import (
    CLUSTER_TOL,
    DegenerateLocus,
    FamilySpectrum,
    InertiaTriple,
    QuadraticPencil,
    degenerate_locus,
    shared_triple,
)

TWO_PI = 2.0 * math.pi

@dataclass(frozen=True)
class IndexProfile:
    """Inertia of a family over a circle domain, as a step function.

    cuts are ascending canonical angles: the breakpoints inside the domain
    and the domain's own cuts.  at[i] is the inertia at cuts[i] and after[i]
    that on the open arc from it to the next cut (cyclically), or None where
    the domain does not reach.  With no cuts, whole is the inertia of a
    constant family on the full circle, or None for the empty domain.
    """

    domain: CircleSubset
    cuts: tuple[float, ...] = ()
    at: tuple[InertiaTriple | None, ...] = ()
    after: tuple[InertiaTriple | None, ...] = ()
    whole: InertiaTriple | None = None

    @cached_property
    def _index_range(self) -> tuple[int, int, int, int]:
        """(min, max) of i_plus, then of i_minus, over the values; zeros with none."""
        values = [v for v in (*self.at, *self.after, self.whole) if v is not None]
        plus = [v.i_plus for v in values] or [0]
        minus = [v.i_minus for v in values] or [0]
        return (min(plus), max(plus), min(minus), max(minus))

    def max_positive_index(self) -> int:
        return self._index_range[1]

    def min_positive_index(self) -> int:
        return self._index_range[0]

    def breakpoint_angles(self) -> list[float]:
        """The cuts whose point holds a value: breakpoints and included domain ends."""
        return [c for c, v in zip(self.cuts, self.at) if v is not None]

    def value_at_angle(self, theta: float) -> InertiaTriple | None:
        """The recorded inertia at an angle, or None outside the domain.

        Within TOL_ANGLE of a cut the cut's value holds, as in
        CircleSubset.contains.
        """
        if not self.cuts:
            return self.whole
        i, on_cut = _locate(self.cuts, theta)
        return self.at[i] if on_cut else self.after[i]

    def rows(self) -> list[tuple[float, int, int, bool]]:
        """Flat (theta, i_plus, i_minus, is_breakpoint) rows for CSV export.

        An arc is listed at its midpoint, the full turn of a constant family
        at angle zero.
        """
        if not self.cuts:
            w = self.whole
            return [] if w is None else [(0.0, w.i_plus, w.i_minus, False)]
        rows: list[tuple[float, int, int, bool]] = []
        ends = (*self.cuts[1:], self.cuts[0] + TWO_PI)
        for c, e, v, a in zip(self.cuts, ends, self.at, self.after):
            if v is not None:
                rows.append((c, v.i_plus, v.i_minus, True))
            if a is not None:
                rows.append((canonical_angle(0.5 * (c + e)), a.i_plus, a.i_minus, False))
        rows.sort(key=lambda r: r[0])
        return rows


# ---------------------------------------------------------------------------
# profile construction
# ---------------------------------------------------------------------------

def _read_arcs(spectrum: FamilySpectrum, arcs: list[tuple[float, float]],
               points: list[float] | tuple = ()) -> list[InertiaTriple]:
    """The inertia on each open arc (start, end), end past start.

    Both thirds of every arc and the points the caller reads next are solved
    in one stacked pass; an arc's ends are not solved unless they are among
    the points.  The family is constant on an arc that holds no root, so the
    readings agree, except that a third inside the zero band of a nearby
    multiple root reads extra zeros and no count above the other reading:
    the arc takes the other reading then.  Any other disagreement is a root
    the candidates miss and raises NumericalError.
    """
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


def _antipodally_paired(bps: list[float]) -> bool:
    """Whether the sorted breakpoints split into halves half a turn apart,
    within CLUSTER_TOL."""
    h = len(bps) // 2
    return len(bps) == 2 * h and all(
        abs(bps[i + h] - bps[i] - math.pi) <= CLUSTER_TOL for i in range(h))


def _antipode(v: InertiaTriple) -> InertiaTriple:
    """The inertia of -M given that of M."""
    return shared_triple(v.i_minus, v.i_plus, v.i_zero)


def _dedupe_sorted(angles: list[float]) -> list[float]:
    """The sorted angles less those within CLUSTER_TOL of the last one kept."""
    out: list[float] = []
    for a in angles:
        if not out or a - out[-1] > CLUSTER_TOL:
            out.append(a)
    return out


def _profile_steps(domain: CircleSubset, candidates: list[float]
                   ) -> list[tuple[float, bool, tuple[float, float] | None]]:
    """(cut, point held, held arc after it or None) in ascending cut order.

    On the full domain the cuts are the candidates, clustered within
    CLUSTER_TOL, and every point and arc is held.  Otherwise they are the
    domain's cuts and the candidates more than CLUSTER_TOL inside its held
    arcs; an arc's ends are lifted past its start.
    """
    if domain.is_full():
        bps = _dedupe_sorted(sorted(canonical_angle(c) for c in candidates))
        if len(bps) >= 2 and (bps[0] + TWO_PI) - bps[-1] <= CLUSTER_TOL:
            bps.pop()
        return [(b, True, (b, e)) for b, e in zip(bps, [*bps[1:], bps[0] + TWO_PI])] \
            if bps else []
    d = domain.cuts
    steps = []
    for s, e, held, arc_held in zip(d, (*d[1:], d[0] + TWO_PI), domain.at, domain.after):
        if not arc_held:
            steps.append((s, held, None))
            continue
        lifts = (s + (canonical_angle(c) - s) % TWO_PI for c in candidates)
        inner = _dedupe_sorted(sorted(b for b in lifts
                                      if s + CLUSTER_TOL < b < e - CLUSTER_TOL))
        edges = [s, *inner, e]
        steps += [(canonical_angle(a), k > 0 or held, (a, b))
                  for k, (a, b) in enumerate(zip(edges, edges[1:]))]
    # the inner cuts of an arc across angle zero come first
    return sorted(steps, key=lambda step: step[0])


def index_profile(p: QuadraticPencil, domain: CircleSubset,
                  candidates: list[float] | None = None) -> IndexProfile:
    """Inertia profile of the pencil's family over a circle domain.

    By default the candidate breakpoints are the pencil's degenerate locus,
    which degenerate_locus finds by one QZ solve for every pencil,
    identically singular ones included.  The candidates are the only
    breakpoints: the inertia is constant between them.  The profile's cuts
    are the domain's cuts and the candidates inside its held arcs; one
    stacked FamilySpectrum pass reads every held point, and every held arc
    at its two thirds (_read_arcs).  Readings that disagree other than by a
    zero band mean a missing candidate and raise NumericalError, as does a
    point whose inertia exceeds that of a held arc it bounds.

    On the full circle the family has M(theta + pi) = -M(theta), so i_plus
    and i_minus swap at antipodes.  When the B sorted breakpoints pair
    antipodally within CLUSTER_TOL, as the locus's always do, only the arcs
    from bps[0] to bps[B/2] and the first B/2 breakpoints are solved, and the
    rest are their antipodes' values swapped: 3 B/2 matrices, not 3 B.
    Custom candidates need not pair; unpaired ones are read in full.
    """
    if domain.is_empty():
        return IndexProfile(domain)
    if candidates is None:
        candidates = degenerate_locus(p).angles
    spectrum = FamilySpectrum(p, p.scale())
    steps = _profile_steps(domain, candidates)
    if not steps:
        whole, = _read_arcs(spectrum, [(0.0, TWO_PI)])
        return IndexProfile(domain, whole=whole)
    cuts = [c for c, _, _ in steps]
    points = [c for c, held, _ in steps if held]
    arcs = [arc for _, _, arc in steps if arc]
    h = len(cuts) // 2
    if domain.is_full() and _antipodally_paired(cuts):
        arc_vals = _read_arcs(spectrum, arcs[:h], points[:h])
        point_vals = [spectrum(b) for b in points[:h]]
        arc_vals += [_antipode(v) for v in arc_vals]
        point_vals += [_antipode(v) for v in point_vals]
    else:
        arc_vals = _read_arcs(spectrum, arcs, points)
        point_vals = [spectrum(b) for b in points]
    point_vals, arc_vals = iter(point_vals), iter(arc_vals)
    at = tuple(next(point_vals) if held else None for _, held, _ in steps)
    after = tuple(next(arc_vals) if arc else None for _, _, arc in steps)
    for i, (c, v) in enumerate(zip(cuts, at)):
        if v is not None and any(arc is not None and _exceeds(v, arc)
                                 for arc in (after[i - 1], after[i])):
            raise NumericalError(f"semicontinuity violated at breakpoint {c}")
    return IndexProfile(domain, tuple(cuts), at, after)


def _exceeds(point: InertiaTriple, arc: InertiaTriple) -> bool:
    """Whether a point's inertia breaks semicontinuity against an arc it bounds."""
    return point.i_plus > arc.i_plus or point.i_minus > arc.i_minus


# ---------------------------------------------------------------------------
# level subsets
# ---------------------------------------------------------------------------

def _where(profile: IndexProfile, keep: Callable[[InertiaTriple], bool]) -> CircleSubset:
    """The points of the domain whose inertia satisfies keep."""
    def held(v: InertiaTriple | None) -> bool:
        return v is not None and keep(v)

    rows = [(c, held(v), held(a)) for c, v, a in zip(profile.cuts, profile.at, profile.after)]
    return CircleSubset.from_steps(rows, held(profile.whole))


def _plateaus(cells: list[int], edge: int) -> list[int]:
    """The values of the runs of equal cells of a cyclic sequence, read from
    just after its first cell equal to edge, so the last run holds that cell."""
    start = cells.index(edge) + 1
    return [v for v, _ in itertools.groupby(cells[start:] + cells[:start])]


def superlevel(profile: IndexProfile, j: int) -> CircleSubset:
    """{omega in the domain : i_plus(omega) >= j}.

    i_plus ranges over [nu, mu] on the profile, so every level j <= nu is
    the whole domain and every level j > mu is empty.  Only the levels in
    between take a pass over the cuts.
    """
    nu, mu = profile._index_range[:2]
    if j <= nu:
        return profile.domain
    if j > mu:
        return CircleSubset.empty()
    return _where(profile, lambda v: v.i_plus >= j)


def sublevel(profile: IndexProfile, k: int) -> CircleSubset:
    """{omega in the domain : i_minus(omega) <= k}, by the same range rule."""
    lo, hi = profile._index_range[2:]
    if k >= hi:
        return profile.domain
    if k < lo:
        return CircleSubset.empty()
    return _where(profile, lambda v: v.i_minus <= k)


# ---------------------------------------------------------------------------
# filtration report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiltrationReport:
    """Superlevel filtration data of a pencil over its domain.

    The superlevel sets, their Betti numbers and the orientation class are
    computed when first read, once each.  locus is the degenerate locus the
    profile was read from, None only for the empty domain.
    """

    pencil: QuadraticPencil
    profile: IndexProfile
    mu: int
    nu: int
    locus: DegenerateLocus | None = None
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

    @cached_property
    def betti_levels(self) -> tuple[tuple[int, int], ...]:
        """(b0, b1) of the superlevel set at each level j = 0 .. dim + 1, as
        betti_circle(self.omega(j)) gives them, in one pass over the profile.

        The profile's cyclic cells at[0], after[0], at[1], ... carry i_plus,
        or -1 outside the domain.  Read from just after a cell of least value
        low, a component of {i_plus >= j} is a maximal run of cells of value
        at least j, and a plateau of value v after one of value prev < v
        starts a run at every level in (prev, v]: a prefix sum counts them.
        Levels j <= low hold every cell, so low >= 0 and the domain is the
        circle; only then is b1 = 1.
        """
        prof = self.profile
        top = self.pencil.dim + 2
        if not prof.cuts:
            low = -1 if prof.whole is None else prof.whole.i_plus
            return tuple((1, 1) if j <= low else (0, 0) for j in range(top))
        cells = [-1 if v is None else v.i_plus for pair in zip(prof.at, prof.after)
                 for v in pair]
        low = min(cells)
        plateaus = _plateaus(cells, low)
        starts = [0] * (top + 1)
        for prev, v in zip([low, *plateaus], plateaus):
            if v > prev:
                starts[prev + 1] += 1
                starts[v + 1] -= 1
        return tuple((1, 1) if j <= low else (runs, 0)
                     for j, runs in zip(range(top), itertools.accumulate(starts)))

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
        locus = self.locus  # the domain is the full circle
        if locus.rank_deficit != dim - 2 * self.mu:
            raise NumericalError(
                f"constant index {self.mu} leaves {dim - 2 * self.mu} zeros at every "
                f"angle, but the rank deficit is {locus.rank_deficit}")
        return locus.theta_pairs % 2 == 1


def filtration_report(p: QuadraticPencil, domain: CircleSubset) -> FiltrationReport:
    """The superlevel filtration of the pencil over the domain and its extremes.

    The superlevel sets and the orientation class are computed on first read.
    The locus is found once, for the profile and the orientation class alike;
    an empty domain needs none.
    """
    locus = None if domain.is_empty() else degenerate_locus(p)
    profile = index_profile(p, domain, locus and locus.angles)
    mu = profile.max_positive_index()
    nu = profile.min_positive_index()
    if mu == nu and domain.is_full() and mu > p.dim // 2:
        raise NumericalError(
            "constant index exceeds half the dimension; tolerances inconsistent")
    return FiltrationReport(p, profile, mu, nu, locus)


def filtration_for_cone(p: QuadraticPencil, cone) -> FiltrationReport:
    return filtration_report(p, omega_set(cone))
