"""Index profiles over circle domains and the level-set machinery built on them.

An index profile records the inertia of a pencil's family on every arc and
breakpoint of a circle domain.  The breakpoints are the angles of the
family's degenerate locus and nothing else: the inertia is constant between
consecutive roots, so each arc is read once, and a reading that shows a root
the locus lacks raises NumericalError.  Superlevel sets of the positive index
give the central filtration.  One pass over the plateaus of the profile's
cells counts the Betti numbers of every superlevel set and of every pair of
consecutive ones, and, on the negative index, of every sublevel set a level
set is read from (quadrics.applications).  When the top superlevel set is the whole circle, the
first Stiefel-Whitney class of its positive eigenspace bundle is the parity
of the conjugate root pairs of the pencil's regular part; the eigenspace
transport that measures it directly is an oracle
(quadrics.oracles.stiefel_whitney).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

from .circle import CircleSubset, _locate, canonical_angle, omega_set
from .errors import NumericalError
from .pencil import (
    CLUSTER_TOL,
    DegenerateLocus,
    InertiaTriple,
    QuadraticPencil,
    degenerate_locus,
    family_counts,
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
        values = {*self.at, *self.after, self.whole} - {None}  # few distinct, shared triples
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

def _read_arcs(p: QuadraticPencil, arcs: list[tuple[float, float]],
               points: list[float] | tuple = ()
               ) -> tuple[list[int], list[int], list[int], list[int]]:
    """(i_plus, i_minus) on each open arc (start, end), end past start, then
    (i_plus, i_minus) at each point, as four int lists.

    The points and both thirds of every arc are counted in one stacked pass
    (family_counts); an arc's ends are not solved unless they are among
    the points.  The family is constant on an arc that holds no root, so the
    readings agree, except that a third inside the zero band of a nearby
    multiple root reads extra zeros and no count above the other reading:
    the arc takes the other reading then.  Any other disagreement is a root
    the locus misses and raises NumericalError.  When the two thirds' lists
    agree, as they do on most pencils, no arc is read on its own.
    """
    thirds = [t for a, b in arcs for t in (a + (b - a) / 3.0, a + 2.0 * (b - a) / 3.0)]
    plus, minus = family_counts(p, [*points, *thirds], p.scale())
    k = len(points)
    first_plus, first_minus = plus[k::2], minus[k::2]
    arc_plus, arc_minus = plus[k + 1::2], minus[k + 1::2]
    if first_plus != arc_plus or first_minus != arc_minus:
        for i, u in enumerate(zip(first_plus, first_minus)):
            v = (arc_plus[i], arc_minus[i])
            if u[0] > v[0] or u[1] > v[1]:
                if v[0] > u[0] or v[1] > u[1]:
                    (a, b), dim = arcs[i], p.dim
                    raise NumericalError(
                        f"inertia changes inside the arc ({a}, {b}): {(*u, dim - sum(u))} at "
                        f"{thirds[2 * i]}, {(*v, dim - sum(v))} at {thirds[2 * i + 1]}; "
                        "a root is missing from the locus")
                arc_plus[i], arc_minus[i] = u  # v read in a zero band
    return arc_plus, arc_minus, plus[:k], minus[:k]


def _profile_steps(domain: CircleSubset, angles: list[float]
                   ) -> list[tuple[float, bool, tuple[float, float] | None]]:
    """(cut, point held, held arc after it or None) in ascending cut order,
    on an arc domain (none on the full circle).

    The cuts are the domain's cuts and the locus angles more than CLUSTER_TOL
    inside its held arcs; an arc's ends are lifted past its start.
    """
    d = domain.cuts
    steps = []
    for s, e, held, arc_held in zip(d, (*d[1:], d[0] + TWO_PI), domain.at, domain.after):
        if not arc_held:
            steps.append((s, held, None))
            continue
        lifts = (s + (c - s) % TWO_PI for c in angles)
        edges = [s, *sorted(b for b in lifts if s + CLUSTER_TOL < b < e - CLUSTER_TOL), e]
        steps += [(canonical_angle(a), k > 0 or held, (a, b))
                  for k, (a, b) in enumerate(zip(edges, edges[1:]))]
    # the inner cuts of an arc across angle zero come first
    return sorted(steps, key=lambda step: step[0])


def _full_circle_profile(p: QuadraticPencil, domain: CircleSubset,
                         angles: list[float]) -> IndexProfile:
    """The profile on the full circle, whose cuts are the B > 0 locus angles.

    Only the first B/2 points and the arcs between angles[0] and angles[B/2]
    are read (_read_arcs); the rest are their antipodes' counts swapped.
    Semicontinuity is checked at the read points, against the read arc after
    each and the arc before it, which at point 0 is the antipode of the last
    read arc.  Every pass is over whole int lists; the mirrored half's
    triples are made from the same lists, swapped.
    """
    h = len(angles) // 2
    starts = angles[:h]
    arc_plus, arc_minus, at_plus, at_minus = _read_arcs(p, list(zip(starts, angles[1:h + 1])),
                                                        starts)
    before_plus = [arc_minus[-1], *arc_plus[:-1]]
    before_minus = [arc_plus[-1], *arc_minus[:-1]]
    if not (all(map(operator.le, at_plus, arc_plus)) and all(map(operator.le, at_minus, arc_minus))
            and all(map(operator.le, at_plus, before_plus))
            and all(map(operator.le, at_minus, before_minus))):
        i = next(i for i, (a, b, c, d, e, f) in enumerate(zip(
            at_plus, at_minus, arc_plus, arc_minus, before_plus, before_minus))
            if a > min(c, e) or b > min(d, f))
        raise NumericalError(f"semicontinuity violated at breakpoint {angles[i]}")
    dim = p.dim
    at_zero = [dim - a - b for a, b in zip(at_plus, at_minus)]
    arc_zero = [dim - a - b for a, b in zip(arc_plus, arc_minus)]
    at = map(shared_triple, at_plus + at_minus, at_minus + at_plus, at_zero + at_zero)
    after = map(shared_triple, arc_plus + arc_minus, arc_minus + arc_plus, arc_zero + arc_zero)
    return IndexProfile(domain, tuple(angles), tuple(at), tuple(after))


def index_profile(p: QuadraticPencil, domain: CircleSubset,
                  locus: DegenerateLocus | None = None) -> IndexProfile:
    """Inertia profile of the pencil's family over a circle domain.

    locus is the pencil's degenerate locus, found here by one QZ solve when
    not given.  Its angles, ascending, canonical, more than CLUSTER_TOL apart
    and in antipodal pairs, are the only breakpoints: the inertia is constant
    between them.  The profile's cuts are the domain's cuts and the locus
    angles inside its held arcs; one stacked family_counts pass reads every
    held point, and every held arc at its two thirds (_read_arcs).  Readings
    that disagree other than by a zero band mean a root the locus misses and
    raise NumericalError, as does a point whose inertia exceeds that of a
    held arc it bounds.  The counts stay plain ints until the end, where
    each cell gets its shared triple.

    On the full circle the family has M(theta + pi) = -M(theta), so i_plus
    and i_minus swap at antipodes.  The B locus angles pair as angles[i] and
    angles[i + B/2], so only the arcs from angles[0] to angles[B/2] and the
    first B/2 breakpoints are solved, and the rest are their antipodes'
    counts swapped: 3 B/2 matrices, not 3 B (_full_circle_profile).
    Semicontinuity is checked at the solved breakpoints only: at a mirrored
    one it is the same inequalities swapped, so the first breakpoint that
    fails is the same.  An arc domain is read in full.
    """
    if domain.is_empty():
        return IndexProfile(domain)
    if locus is None:
        locus = degenerate_locus(p)
    angles = locus.angles
    dim = p.dim
    if domain.is_full():
        if angles:
            return _full_circle_profile(p, domain, angles)
        (plus,), (minus,), _, _ = _read_arcs(p, [(0.0, TWO_PI)])
        return IndexProfile(domain, whole=shared_triple(plus, minus, dim - plus - minus))
    steps = _profile_steps(domain, angles)
    cuts = [c for c, _, _ in steps]
    arc_plus, arc_minus, point_plus, point_minus = _read_arcs(
        p, [arc for _, _, arc in steps if arc], [c for c, held, _ in steps if held])
    point_vals, arc_vals = zip(point_plus, point_minus), zip(arc_plus, arc_minus)
    at = [next(point_vals) if held else None for _, held, _ in steps]
    after = [next(arc_vals) if arc else None for _, _, arc in steps]
    for i, v in enumerate(at):
        if v is None:
            continue
        for arc in (after[i - 1], after[i]):
            if arc is not None and (v[0] > arc[0] or v[1] > arc[1]):
                raise NumericalError(f"semicontinuity violated at breakpoint {cuts[i]}")

    def triple(v: tuple[int, int] | None) -> InertiaTriple | None:
        return None if v is None else shared_triple(v[0], v[1], dim - v[0] - v[1])

    return IndexProfile(domain, tuple(cuts), tuple(map(triple, at)), tuple(map(triple, after)))


# ---------------------------------------------------------------------------
# level subsets
# ---------------------------------------------------------------------------

def _where(profile: IndexProfile, keep: Callable[[InertiaTriple], bool]) -> CircleSubset:
    """The points of the domain whose inertia satisfies keep."""
    def held(v: InertiaTriple | None) -> bool:
        return v is not None and keep(v)

    rows = [(c, held(v), held(a)) for c, v, a in zip(profile.cuts, profile.at, profile.after)]
    return CircleSubset.from_steps(rows, held(profile.whole))


def _runs_and_births(cells: list[int], top: int) -> tuple[list[int], list[int]]:
    """(runs, births) at each level j = 0 .. top of a cyclic sequence of
    integer cells, none above top.

    runs[j] counts the maximal runs of cells of value at least j, and
    births[j] those of them whose largest cell is exactly j, at every level
    above the least cell; a level at or below it holds every cell and reads
    0 for both.  Read from just after a cell of least value, the cells group
    into plateaus of equal value, and the last holds that cell.  A plateau
    of value v after one of value prev < v starts a run at every level in
    (prev, v], which a prefix sum counts, and when the next plateau is lower
    too it is a run of its own at level v: a birth.
    """
    low = min(cells)
    start = cells.index(low) + 1
    plateaus = [v for v, _ in itertools.groupby(cells[start:] + cells[:start])]
    starts = [0] * (top + 2)
    births = [0] * (top + 1)
    # the last plateau, of value low, starts no run, so zip may drop it
    for prev, v, nxt in zip([low, *plateaus], plateaus, plateaus[1:]):
        if v > prev:
            starts[prev + 1] += 1
            starts[v + 1] -= 1
            if v > nxt:
                births[v] += 1
    return list(itertools.accumulate(starts))[:top + 1], births


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

@lru_cache(maxsize=4096)
def _shared_pair(b0: int, b1: int) -> tuple[int, int]:
    """The one shared pair of these Betti numbers: a kept analysis keeps its
    levels, which hold few distinct pairs."""
    return (b0, b1)


@dataclass(frozen=True)
class FiltrationReport:
    """Superlevel filtration data of a pencil over its domain.

    omega(j) builds a superlevel set each time it is asked for; the Betti
    numbers of every level and of every pair of consecutive levels, and the
    orientation class, are computed when first read, once each.  locus is the degenerate locus the
    profile was read from, None only for the empty domain.
    """

    pencil: QuadraticPencil
    profile: IndexProfile
    mu: int
    nu: int
    locus: DegenerateLocus | None = None

    def omega(self, j: int) -> CircleSubset:
        """The superlevel set at level j (j = 0 gives the whole domain)."""
        return superlevel(self.profile, j)

    @cached_property
    def _superlevel_counts(self) -> tuple[int, list[int], list[int]]:
        """The least of the profile's cyclic cells at[0], after[0], at[1], ...,
        which carry i_plus or -1 outside the domain (a profile with no cuts is
        one cell), and their _runs_and_births up to level dim + 1."""
        prof = self.profile
        cells = [-1 if v is None else v.i_plus
                 for pair in (zip(prof.at, prof.after) if prof.cuts else [(prof.whole,)])
                 for v in pair]
        return (min(cells), *_runs_and_births(cells, self.pencil.dim + 1))

    @cached_property
    def betti_levels(self) -> tuple[tuple[int, int], ...]:
        """(b0, b1) of the superlevel set at each level j = 0 .. dim + 1, as
        betti_circle(self.omega(j)) gives them.

        A component of {i_plus >= j} is a maximal run of cells of value at
        least j.  Levels j at or below the least cell hold every cell, so
        that cell is not -1 and the domain is the circle; only then is
        b1 = 1.  Levels past mu hold none.
        """
        low, runs, _ = self._superlevel_counts
        top = low + 1  # the levels below it hold every cell, those past mu none
        return (((1, 1),) * top + tuple(_shared_pair(b0, 0) for b0 in runs[top:self.mu + 1])
                + ((0, 0),) * (self.pencil.dim + 1 - self.mu))

    @cached_property
    def betti_pairs(self) -> tuple[tuple[int, int], ...]:
        """(b0, b1) of the pair (Omega^j, Omega^(j+1)) at each level
        j = 0 .. dim: the relative Betti numbers of the nested pair of circle
        subsets self.omega(j) and self.omega(j + 1).

        b0 counts the components of Omega^j that miss Omega^(j+1): the runs
        whose largest cell is j, or, when Omega^j holds every cell, one
        exactly when Omega^(j+1) is empty.  b1 follows by exactness,
        chi(A, B) = chi(A) - chi(B).
        """
        low, _, births = self._superlevel_counts
        levels = self.betti_levels
        pairs = []
        for j in range(self.pencil.dim + 1):
            b0 = int(levels[j + 1] == (0, 0)) if j <= low else births[j]
            (a0, a1), (c0, c1) = levels[j], levels[j + 1]
            pairs.append(_shared_pair(b0, b0 - a0 + a1 + c0 - c1))
        return tuple(pairs)

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
    profile = index_profile(p, domain, locus)
    mu = profile.max_positive_index()
    nu = profile.min_positive_index()
    if mu == nu and domain.is_full() and mu > p.dim // 2:
        raise NumericalError(
            "constant index exceeds half the dimension; tolerances inconsistent")
    return FiltrationReport(p, profile, mu, nu, locus)


def filtration_for_cone(p: QuadraticPencil, cone) -> FiltrationReport:
    return filtration_report(p, omega_set(cone))
