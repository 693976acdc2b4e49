"""Exact combinatorial arithmetic for subsets of the unit circle and for
closed convex cones in the plane.

A circle subset is stored as its indicator function: ascending cut
angles, and one cyclic tuple of cells, the point at each cut and the open
arc after it, each held or not; with no cuts, the one cell says whether the
set is empty or the full circle.  An index profile (quadrics.filtration)
stores its values in the same layout, and _cells finds the cell holding an
angle for both.  A point or an arc is built from its cuts directly;
complement flips the cells; union and intersection are one counting sweep
over the cuts.  Angles are compared modulo 2*pi up to TOL_ANGLE: cuts closer
than it are one cut.  Homotopy-type outputs (component counts, Betti
numbers) depend only on the cells' cyclic order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

TWO_PI = 2.0 * math.pi
PI = math.pi
# angles closer than this, modulo 2*pi, are one angle
TOL_ANGLE = 1e-9


def canonical_angle(theta: float) -> float:
    """Canonical representative of an angle in [0, 2*pi)."""
    t = math.fmod(theta, TWO_PI)
    if t < 0.0:
        t += TWO_PI
    if t >= TWO_PI:
        t -= TWO_PI
    return t


def angle_of(x: float, y: float) -> float:
    return canonical_angle(math.atan2(y, x))


def unit(theta: float) -> tuple[float, float]:
    return (math.cos(theta), math.sin(theta))


def _finite_angle(theta: float) -> float:
    """theta, checked to be finite: the check of every public angle input."""
    if not math.isfinite(theta):
        raise InvalidInputError(f"angle {theta!r} is not finite")
    return theta


def _fold(theta: float) -> float:
    """The canonical angle, with the last TOL_ANGLE below 2*pi read as 0.

    An angle already in (0, 2*pi - TOL_ANGLE) is returned as it is, not a copy.
    """
    if 0.0 < theta < TWO_PI - TOL_ANGLE:
        return theta
    t = theta % TWO_PI
    return 0.0 if t >= TWO_PI - TOL_ANGLE else t


def _arc(start: float, end: float, closed_start: bool, closed_end: bool) -> "CircleSubset":
    """The counterclockwise arc from the canonical angle start to the angle
    end, each end held when its flag is set; the end cut is end's own folded
    angle.

    A sweep (end - start) mod 2*pi within TOL_ANGLE of 0 is the point start
    (held when either flag is); one within TOL_ANGLE of 2*pi is the circle,
    less the point start when neither flag is set.
    """
    length = (_finite_angle(end) - start) % TWO_PI
    s = _fold(start)
    e = s if length <= TOL_ANGLE or length >= TWO_PI - TOL_ANGLE else _fold(end)
    if abs(e - s) <= TOL_ANGLE:
        return CircleSubset.from_steps([(s, closed_start or closed_end, length > PI)])
    if e < s:
        return CircleSubset.from_steps([(e, closed_end, False), (s, closed_start, True)])
    return CircleSubset.from_steps([(s, closed_start, True), (e, closed_end, False)])


def _cells(cuts: tuple[float, ...], theta) -> np.ndarray:
    """The cell of a step function on the ascending cuts that holds each
    angle of theta, a float or an array: 2i within TOL_ANGLE of cuts[i],
    2i + 1 on the open arc after it, and 0 for every angle with no cuts.
    The angles are taken modulo 2*pi, with the last TOL_ANGLE below 2*pi
    read as 0, as _fold reads them.
    """
    t = np.asarray(theta, dtype=float) % TWO_PI
    if not cuts:
        return np.zeros(t.shape, dtype=np.intp)
    c = np.array(cuts)
    t = np.where(t >= TWO_PI - TOL_ANGLE, 0.0, t)
    i = np.searchsorted(c, t, side="right") - 1
    nxt = np.minimum(i + 1, len(c) - 1)
    on_cut = (i >= 0) & (t - c[i] <= TOL_ANGLE)
    on_next = ~on_cut & (i + 1 < len(c)) & (c[nxt] - t <= TOL_ANGLE)
    return np.where(on_next, 2 * nxt, 2 * (i % len(c)) + ~on_cut)


def _interleave(at, after) -> tuple:
    """The cyclic cells at[0], after[0], at[1], ... of a step function on
    cuts: the value at each cut, then the value on the open arc after it."""
    cells = [None] * (2 * len(at))
    cells[::2], cells[1::2] = at, after
    return tuple(cells)


def _sweep(operands: list[tuple], need: int) -> "CircleSubset":
    """The points and arcs that at least `need` operands hold.

    An operand is its (cut, at, after) triples in ascending order and whether
    it holds the arc before its first cut (with no cuts, the whole circle).
    One pass visits all operands' cuts in ascending order.  A cluster holds
    the cuts within TOL_ANGLE of its first cut and becomes one cut of the
    result.
    At each cluster the sweep counts the operands holding its point and the
    arc after it; an operand with no cut in the cluster holds what its
    current arc holds.
    """
    tol = TOL_ANGLE
    state = [held for _, held in operands]
    events = sorted([(c, k, a, f) for k, (cuts, _) in enumerate(operands) for c, a, f in cuts])
    count = sum(state)
    rows = []  # (first cut, point held, arc after held) of each cluster
    first, points = None, 0
    # an operand's cuts are more than tol apart: at most one per cluster
    for c, k, a, f in events:
        if first is None or c > first + tol:
            if first is not None:
                rows.append((first, points >= need, count >= need))
            first, points = c, count
        was = state[k]
        points += a - was
        count += f - was
        state[k] = f
    if first is not None:
        rows.append((first, points >= need, count >= need))
    return CircleSubset.from_steps(rows, count >= need)


@dataclass(frozen=True, slots=True)
class CircleSubset:
    """A finite union of points and arcs of the unit circle, as its indicator.

    cuts are ascending canonical angles, more than TOL_ANGLE apart.
    cells[2i] says whether the point cuts[i] is in the set, cells[2i + 1]
    whether the open arc from cuts[i] to the next cut (cyclically) is.  No
    cut is redundant; with no cuts, the one cell decides between the empty
    set and the whole circle.
    """

    cuts: tuple[float, ...] = ()
    cells: tuple[bool, ...] = (False,)

    # -- constructors -------------------------------------------------
    @staticmethod
    @functools.cache
    def empty() -> "CircleSubset":
        """The empty set, one shared instance: subsets are immutable."""
        return CircleSubset()

    @staticmethod
    def full_circle() -> "CircleSubset":
        return CircleSubset((), (True,))

    @staticmethod
    def from_steps(rows, full: bool = False) -> "CircleSubset":
        """The set holding the point (at) and the open arc after it (after) of
        each (cut, at, after) row, with ascending cuts more than TOL_ANGLE
        apart.

        A cut whose point and arcs on both sides agree is dropped.  With none
        left the set is the whole circle if its arcs are held, and with no
        rows if full is.
        """
        kept = [r for r, prev in zip(rows, rows[-1:] + rows[:-1]) if not r[1] == r[2] == prev[2]]
        if not kept:
            return CircleSubset((), (rows[-1][2] if rows else full,))
        cuts, at, after = zip(*kept)
        return CircleSubset(cuts, _interleave(at, after))

    @staticmethod
    def point(theta: float) -> "CircleSubset":
        t = canonical_angle(_finite_angle(theta))
        return _arc(t, t, True, True)

    @staticmethod
    def arc(start: float, end: float, closed_start: bool = True,
            closed_end: bool = True) -> "CircleSubset":
        """Counterclockwise arc from start to end (sweep taken mod 2*pi)."""
        return _arc(canonical_angle(_finite_angle(start)), end, closed_start, closed_end)

    # -- basic queries ------------------------------------------------
    def _components(self) -> list[tuple[float, float, bool, bool]]:
        """(start, end, closed_start, closed_end) of each component, by start.

        A point has end == start; an arc's end is lifted past its start, by a
        full turn for the circle minus one point.  The full circle has none.
        """
        c, cells, n = self.cuts, self.cells, len(self.cuts)
        out = []
        for i in range(n):
            if cells[2 * i + 1]:
                j = (i + 1) % n
                out.append((c[i], c[j] if j > i else c[j] + TWO_PI, cells[2 * i], cells[2 * j]))
            elif cells[2 * i] and not cells[2 * i - 1]:
                out.append((c[i], c[i], True, True))
        return out

    def is_empty(self) -> bool:
        return self.cells == (False,)

    def is_full(self) -> bool:
        return self.cells == (True,)

    def n_components(self) -> int:
        """The maximal runs of held cells, cyclically; the full circle is one."""
        cells = self.cells
        return int(self.is_full()) + sum(v and not prev
                                         for v, prev in zip(cells, cells[-1:] + cells[:-1]))

    def contains(self, theta: float) -> bool:
        return self.cells[_cells(self.cuts, _finite_angle(theta))]

    # -- set operations -----------------------------------------------
    def complement(self) -> "CircleSubset":
        return CircleSubset(self.cuts, tuple(not v for v in self.cells))

    def union(self, other: "CircleSubset") -> "CircleSubset":
        return _sweep([self._raw(), other._raw()], 1)

    def intersect(self, other: "CircleSubset") -> "CircleSubset":
        return _sweep([self._raw(), other._raw()], 2)

    def _raw(self) -> tuple:
        """This set as a sweep operand: the arc before the first cut is the last cell."""
        return tuple(zip(self.cuts, self.cells[::2], self.cells[1::2])), self.cells[-1]

    def is_subset_of(self, other: "CircleSubset") -> bool:
        return self.intersect(other.complement()).is_empty()

    # -- serialization -------------------------------------------------
    def to_json(self) -> dict:
        # an end lifted past 2*pi is the first cut: print the cut itself
        items = [{"type": "point" if end == start else "arc", "start": start,
                  "end": end if end < TWO_PI else self.cuts[0],
                  "closed_start": cs, "closed_end": ce}
                 for start, end, cs, ce in self._components()]
        return {"full": self.is_full(), "items": items}


# ---------------------------------------------------------------------------
# Betti numbers of circle subsets
# ---------------------------------------------------------------------------

def betti_circle(a: CircleSubset) -> tuple[int, int]:
    """(b0, b1) of a circle subset: component count, and 1 only for the full circle."""
    if a.is_full():
        return (1, 1)
    return (a.n_components(), 0)


# ---------------------------------------------------------------------------
# Planar convex cones and their polars
# ---------------------------------------------------------------------------

VALID_KINDS = ("zero", "full", "ray", "line", "sector", "halfplane")


@dataclass(frozen=True)
class PlanarCone:
    """A closed convex cone in the plane.

    Angular-span kinds (ray, sector, halfplane) are the set of rays with
    angle in [start, start + sweep] counterclockwise, sweep in [0, pi].
    A halfplane's boundary line has directions start and start + pi with the
    cone on the counterclockwise side.  A line is the degenerate pair of
    opposite rays at start and start + pi.  The sweep is pi for a halfplane,
    strictly between 0 and pi for a sector and 0 for every other kind.
    """

    kind: str
    start: float = 0.0
    sweep: float = 0.0

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise InvalidInputError(f"unknown cone kind {self.kind!r}")
        _finite_angle(self.start)
        _finite_angle(self.sweep)
        if self.kind == "sector":
            if not 0.0 < self.sweep < PI:
                raise InvalidInputError("sector sweep must lie strictly between 0 and pi")
        elif self.sweep != (PI if self.kind == "halfplane" else 0.0):
            # the polar cone follows the sweep, so a contradicting one would
            # answer for another cone than the kind names
            raise InvalidInputError(
                f"{self.kind} cone needs sweep {'pi' if self.kind == 'halfplane' else 0}, "
                f"not {self.sweep!r}")

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "PlanarCone":
        return PlanarCone("zero")

    @staticmethod
    def full() -> "PlanarCone":
        return PlanarCone("full")

    @staticmethod
    def ray(theta: float) -> "PlanarCone":
        return PlanarCone("ray", canonical_angle(_finite_angle(theta)), 0.0)

    @staticmethod
    def line(theta: float) -> "PlanarCone":
        return PlanarCone("line", canonical_angle(_finite_angle(theta)) % PI, 0.0)

    @staticmethod
    def halfplane(theta: float) -> "PlanarCone":
        return PlanarCone("halfplane", canonical_angle(_finite_angle(theta)), PI)

    @staticmethod
    def sector(start: float, sweep: float) -> "PlanarCone":
        if sweep <= 0 or sweep >= PI:
            raise InvalidInputError("sector sweep must lie strictly between 0 and pi")
        return PlanarCone("sector", canonical_angle(_finite_angle(start)), sweep)

    @staticmethod
    def nonpositive_quadrant() -> "PlanarCone":
        """{y0 <= 0, y1 <= 0}: the span from pi to 3*pi/2."""
        return PlanarCone.sector(PI, PI / 2)

    # -- structure ------------------------------------------------------
    @property
    def generators(self) -> list[tuple[float, float]]:
        if self.kind in ("zero", "full"):
            return []
        if self.kind == "ray":
            return [unit(self.start)]
        if self.kind == "line":
            return [unit(self.start), unit(self.start + PI)]
        return [unit(self.start), unit(self.start + self.sweep)]

    # -- serialization -------------------------------------------------
    def to_json(self) -> dict:
        return {"kind": self.kind, "generators": [list(g) for g in self.generators]}

    @staticmethod
    def from_json(data: dict) -> "PlanarCone":
        if not isinstance(data, dict):
            raise InvalidInputError("the cone must be a JSON object")
        kind = data.get("kind")
        gens = data.get("generators", [])
        if not isinstance(gens, list):
            raise InvalidInputError("the cone's generators must be a list")
        gens = [_generator(g) for g in gens]
        if kind in ("zero", "full"):
            if gens:
                raise InvalidInputError(f"{kind} cone takes no generators")
            return PlanarCone.zero() if kind == "zero" else PlanarCone.full()
        if kind == "ray":
            if len(gens) != 1:
                raise InvalidInputError("ray cone needs exactly one generator")
            return PlanarCone.ray(angle_of(*gens[0]))
        if kind == "line":
            # one direction of the line, or both, as to_json writes it
            if not 1 <= len(gens) <= 2 or (
                    len(gens) == 2 and not _antipodal(angle_of(*gens[0]), angle_of(*gens[1]))):
                raise InvalidInputError(
                    "line cone needs one generator or two antipodal ones")
            return PlanarCone.line(angle_of(*gens[0]))
        if kind in ("sector", "halfplane"):
            if len(gens) != 2:
                raise InvalidInputError(f"{kind} cone needs two generators")
            a1, a2 = angle_of(*gens[0]), angle_of(*gens[1])
            sweep = (a2 - a1) % TWO_PI
            if kind == "halfplane":
                if not _antipodal(a1, a2):
                    raise InvalidInputError("halfplane generators must be antipodal")
                return PlanarCone.halfplane(a1)
            if sweep > PI:
                a1, sweep = a2, TWO_PI - sweep
            if sweep == 0.0:
                return PlanarCone.ray(a1)
            return PlanarCone.sector(a1, sweep)
        raise InvalidInputError(f"unknown cone kind {kind!r}")


def _generator(g) -> tuple[float, float]:
    """A cone generator from JSON: a pair of finite numbers, not both zero.
    An integer past the float range is not one: math.isfinite overflows on
    it.  The zero vector has no direction, and atan2(0, 0) would read it as
    angle 0."""
    try:
        ok = isinstance(g, list) and len(g) == 2 and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
            for v in g)
    except OverflowError:
        ok = False
    if not ok:
        raise InvalidInputError(f"cone generator {g!r} is not a pair of finite numbers")
    x, y = float(g[0]), float(g[1])
    if x == 0.0 and y == 0.0:
        raise InvalidInputError(f"cone generator {g!r} is the zero vector")
    return (x, y)


def _antipodal(a1: float, a2: float) -> bool:
    """Whether the canonical angles a1 and a2 are half a turn apart, to 1e-9."""
    return abs((a2 - a1) % TWO_PI - PI) < 1e-9


def polar_cone(k: PlanarCone) -> PlanarCone:
    """The polar cone: directions making a nonpositive pairing with all of k."""
    if k.kind == "zero":
        return PlanarCone.full()
    if k.kind == "full":
        return PlanarCone.zero()
    if k.kind == "line":
        return PlanarCone.line(k.start + PI / 2)
    new_start = k.start + k.sweep + PI / 2
    new_sweep = PI - k.sweep
    if new_sweep == 0.0:
        return PlanarCone.ray(new_start)
    if abs(new_sweep - PI) < 1e-15:
        return PlanarCone.halfplane(new_start)
    return PlanarCone.sector(new_start, new_sweep)


def omega_set(k: PlanarCone) -> CircleSubset:
    """The polar cone's trace on the unit circle."""
    p = polar_cone(k)
    if p.kind == "full":
        return CircleSubset.full_circle()
    if p.kind == "zero":
        return CircleSubset.empty()
    if p.kind == "line":
        return CircleSubset.point(p.start).union(CircleSubset.point(p.start + PI))
    return _arc(p.start, p.start + p.sweep, True, True)


def closed_half_circle(theta: float) -> CircleSubset:
    """The closed arc from theta to theta + pi."""
    t = canonical_angle(_finite_angle(theta))
    return _arc(t, t + PI, True, True)


def open_half_circle(center: float) -> CircleSubset:
    """{omega : <omega, u(center)> > 0}, an open half circle."""
    t = canonical_angle(_finite_angle(center - PI / 2))
    return _arc(t, t + PI, False, False)
