"""Exact combinatorial arithmetic for subsets of the unit circle and for
closed convex cones in the plane.

A circle subset is a finite union of isolated points and arcs (with
endpoint-inclusion flags), or the full circle.  All set operations work on a
canonical representation: items pairwise disjoint, sorted counterclockwise,
touching items merged.  Angles are compared modulo 2*pi with a configurable
tolerance; homotopy-type outputs (component counts, Betti numbers) depend only
on the canonical structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import DEFAULT_CONFIG
from .errors import InvalidInputError

TWO_PI = 2.0 * math.pi
PI = math.pi


def canonical_angle(theta: float) -> float:
    """Canonical representative of an angle in [0, 2*pi)."""
    t = math.fmod(theta, TWO_PI)
    if t < 0.0:
        t += TWO_PI
    if t >= TWO_PI:
        t -= TWO_PI
    return t


def angles_equal(a: float, b: float, tol: float = DEFAULT_CONFIG.tol_angle) -> bool:
    d = abs(canonical_angle(a) - canonical_angle(b))
    return d <= tol or TWO_PI - d <= tol


def angle_of(x: float, y: float) -> float:
    return canonical_angle(math.atan2(y, x))


def unit(theta: float) -> tuple[float, float]:
    return (math.cos(theta), math.sin(theta))


@dataclass(frozen=True, slots=True)
class Point:
    """An isolated point of the circle, canonical angle.

    Like a degenerate arc, it starts and ends at its angle.
    """

    theta: float

    @property
    def start(self) -> float:
        return self.theta

    @property
    def end(self) -> float:
        return self.theta

    def contains(self, theta: float, tol: float = DEFAULT_CONFIG.tol_angle) -> bool:
        """Whether the angle is this point, up to tol."""
        return angles_equal(theta, self.theta, tol)


@dataclass(frozen=True, slots=True)
class Arc:
    """A counterclockwise arc.  start is canonical; start < end <= start + 2*pi.

    An arc of length exactly 2*pi with both flags False is the circle minus
    the point at start.
    """

    start: float
    end: float
    closed_start: bool
    closed_end: bool

    @property
    def length(self) -> float:
        return self.end - self.start

    def contains(self, theta: float, tol: float = DEFAULT_CONFIG.tol_angle) -> bool:
        """Whether the angle lies on the arc; within tol of an endpoint the
        endpoint's flag decides."""
        return _rec_contains(_item_to_rec(self), theta, tol)


# internal record: (s, e, cs, ce); points are s == e with both flags True
_Rec = tuple[float, float, bool, bool]


def _item_to_rec(item) -> _Rec:
    if isinstance(item, Point):
        t = canonical_angle(item.theta)
        return (t, t, True, True)
    return (item.start, item.end, item.closed_start, item.closed_end)


def _rec_to_item(rec: _Rec):
    s, e, cs, ce = rec
    if e == s:
        return Point(s)
    return Arc(s, e, cs, ce)


def _normalize_rec(s: float, e: float, cs: bool, ce: bool, tol: float):
    """Normalize one raw record; returns a rec, "full", or None (empty)."""
    length = e - s
    if length < -tol:
        raise InvalidInputError("arc with negative sweep")
    if length > TWO_PI + tol:
        # a merged sweep past one full turn covers the seam point as interior
        return "full"
    length = min(max(length, 0.0), TWO_PI)
    s = canonical_angle(s)
    if length <= tol:
        if cs or ce:
            return (s, s, True, True)
        return None
    if length >= TWO_PI - tol:
        # the complementary gap degenerates to a single point
        if cs or ce:
            return "full"
        return (s, s + TWO_PI, False, False)
    return (s, s + length, cs, ce)


def _try_merge(cur: _Rec, nxt: _Rec, tol: float) -> _Rec | None:
    """Merge nxt into cur when they overlap or touch at an included point.

    Assumes nxt starts at or after cur in the sweep ordering.  Returns the
    merged record, or None when the two stay separate components.
    """
    s, e, cs_, ce_ = cur
    ns, ne, ncs, nce = nxt
    if ns > e + tol:
        return None
    if ns >= e - tol and not (ce_ or ncs):
        # touching at a junction point that belongs to neither side
        return None
    if abs(ns - s) <= tol:
        cs_ = cs_ or ncs
    if ne > e + tol:
        e, ce_ = ne, nce
    elif ne >= e - tol:
        # the ends agree within tol: keep the farther one, so no coverage is lost
        e, ce_ = max(e, ne), ce_ or nce
    return (s, e, cs_, ce_)


def _canonicalize(recs: list[_Rec], tol: float) -> tuple[tuple[_Rec, ...], bool]:
    """Sort, merge and detect full coverage.  Returns (records, full)."""
    work: list[_Rec] = []
    for s, e, cs, ce in recs:
        norm = _normalize_rec(s, e, cs, ce, tol)
        if norm == "full":
            return (), True
        if norm is not None:
            work.append(norm)
    if not work:
        return (), False
    work.sort(key=lambda r: (r[0], r[1]))
    out: list[_Rec] = [work[0]]
    for rec in work[1:]:
        merged = _try_merge(out[-1], rec, tol)
        if merged is None:
            out.append(rec)
        else:
            out[-1] = merged
    # merge the last item with leading items across the 0/2*pi seam
    while len(out) >= 2:
        first = out[0]
        lifted = (first[0] + TWO_PI, first[1] + TWO_PI, first[2], first[3])
        merged = _try_merge(out[-1], lifted, tol)
        if merged is None:
            break
        out = out[1:-1] + [merged]
    final: list[_Rec] = []
    for rec in out:
        norm = _normalize_rec(rec[0], rec[1], rec[2], rec[3], tol)
        if norm == "full":
            return (), True
        if norm is not None:
            final.append(norm)
    return tuple(final), False


def _rec_contains(rec: _Rec, theta: float, tol: float) -> bool:
    s, e, cs, ce = rec
    t = canonical_angle(theta)
    d = t - s
    while d < 0.0:
        d += TWO_PI
    if d >= TWO_PI - tol:
        d = 0.0
    length = e - s
    if length == 0.0:
        return d <= tol
    if length >= TWO_PI:
        # full sweep: only the seam point may be excluded
        if d <= tol or d >= TWO_PI - tol:
            return cs or ce
        return True
    if d <= tol:
        return cs
    if abs(d - length) <= tol:
        return ce
    return tol < d < length - tol


@dataclass(frozen=True, slots=True)
class CircleSubset:
    """Canonical finite union of points and arcs of the unit circle."""

    items: tuple = ()
    full: bool = False
    tol: float = DEFAULT_CONFIG.tol_angle

    # -- constructors -------------------------------------------------
    @staticmethod
    def empty(tol: float = DEFAULT_CONFIG.tol_angle) -> "CircleSubset":
        return CircleSubset((), False, tol)

    @staticmethod
    def full_circle(tol: float = DEFAULT_CONFIG.tol_angle) -> "CircleSubset":
        return CircleSubset((), True, tol)

    @staticmethod
    def from_items(items, tol: float = DEFAULT_CONFIG.tol_angle) -> "CircleSubset":
        recs = [_item_to_rec(it) for it in items]
        recs, full = _canonicalize(recs, tol)
        return CircleSubset(tuple(_rec_to_item(r) for r in recs), full, tol)

    @staticmethod
    def point(theta: float, tol: float = DEFAULT_CONFIG.tol_angle) -> "CircleSubset":
        return CircleSubset.from_items([Point(theta)], tol)

    @staticmethod
    def arc(start: float, end: float, closed_start: bool = True,
            closed_end: bool = True, tol: float = DEFAULT_CONFIG.tol_angle) -> "CircleSubset":
        """Counterclockwise arc from start to end (sweep taken mod 2*pi)."""
        sweep = (end - start) % TWO_PI
        s = canonical_angle(start)
        return CircleSubset.from_items([Arc(s, s + sweep, closed_start, closed_end)], tol)

    @staticmethod
    def punctured_circle(removed: list[float], tol: float = DEFAULT_CONFIG.tol_angle) -> "CircleSubset":
        """The circle minus a finite set of points."""
        return CircleSubset.full_circle(tol).minus_points(removed)

    # -- basic queries ------------------------------------------------
    @property
    def recs(self) -> list[_Rec]:
        return [_item_to_rec(it) for it in self.items]

    def is_empty(self) -> bool:
        return not self.full and not self.items

    def is_full(self) -> bool:
        return self.full

    def n_components(self) -> int:
        return 1 if self.full else len(self.items)

    def contains(self, theta: float) -> bool:
        if self.full:
            return True
        return any(_rec_contains(r, theta, self.tol) for r in self.recs)

    def components(self) -> list["CircleSubset"]:
        if self.full:
            return [self]
        return [CircleSubset((it,), False, self.tol) for it in self.items]

    # -- set operations -----------------------------------------------
    def complement(self) -> "CircleSubset":
        if self.full:
            return CircleSubset.empty(self.tol)
        if not self.items:
            return CircleSubset.full_circle(self.tol)
        recs = self.recs
        out: list[_Rec] = []
        n = len(recs)
        for i in range(n):
            cur = recs[i]
            nxt = recs[(i + 1) % n]
            ns = nxt[0] + (TWO_PI if i == n - 1 else 0.0)
            gap_s, gap_e = cur[1], ns
            open_at_s = not cur[3]
            open_at_e = not nxt[2]
            if gap_e - gap_s <= self.tol:
                if open_at_s and open_at_e:
                    out.append((canonical_angle(gap_s), canonical_angle(gap_s), True, True))
            else:
                out.append((canonical_angle(gap_s),
                            canonical_angle(gap_s) + (gap_e - gap_s),
                            open_at_s, open_at_e))
        recs2, full = _canonicalize(out, self.tol)
        return CircleSubset(tuple(_rec_to_item(r) for r in recs2), full, self.tol)

    def union(self, other: "CircleSubset") -> "CircleSubset":
        if self.full or other.full:
            return CircleSubset.full_circle(self.tol)
        recs, full = _canonicalize(self.recs + other.recs, self.tol)
        return CircleSubset(tuple(_rec_to_item(r) for r in recs), full, self.tol)

    def intersect(self, other: "CircleSubset") -> "CircleSubset":
        if self.full:
            return other
        if other.full:
            return self
        tol = self.tol
        out: list[_Rec] = []
        for a in self.recs:
            for b in other.recs:
                out.extend(_intersect_recs(a, b, tol))
        recs, full = _canonicalize(out, tol)
        return CircleSubset(tuple(_rec_to_item(r) for r in recs), full, tol)

    def minus_points(self, thetas: list[float]) -> "CircleSubset":
        holes = CircleSubset.from_items([Point(t) for t in thetas], self.tol)
        return self.intersect(holes.complement())

    def is_subset_of(self, other: "CircleSubset") -> bool:
        return self.intersect(other.complement()).is_empty()

    # -- serialization -------------------------------------------------
    def to_json(self) -> dict:
        items = []
        for it in self.items:
            if isinstance(it, Point):
                items.append({"type": "point", "start": it.theta, "end": it.theta,
                              "closed_start": True, "closed_end": True})
            else:
                items.append({"type": "arc", "start": it.start,
                              "end": canonical_angle(it.end) if it.length < TWO_PI else it.start,
                              "closed_start": it.closed_start, "closed_end": it.closed_end})
        return {"full": self.full, "items": items}

    @staticmethod
    def from_json(data: dict, tol: float = DEFAULT_CONFIG.tol_angle) -> "CircleSubset":
        if data.get("full"):
            return CircleSubset.full_circle(tol)
        items = []
        for d in data.get("items", []):
            if d["type"] == "point":
                items.append(Point(canonical_angle(d["start"])))
            else:
                s = canonical_angle(d["start"])
                sweep = (d["end"] - d["start"]) % TWO_PI
                if sweep == 0.0:
                    sweep = TWO_PI
                items.append(Arc(s, s + sweep, d["closed_start"], d["closed_end"]))
        return CircleSubset.from_items(items, tol)


def _intersect_recs(a: _Rec, b: _Rec, tol: float) -> list[_Rec]:
    """Pairwise intersection of two records, as a list of records."""
    out: list[_Rec] = []
    a_s, a_e = a[0], a[1]
    for k in (-1, 0, 1):
        bs, be = b[0] + k * TWO_PI, b[1] + k * TWO_PI
        lo = max(a_s, bs)
        hi = min(a_e, be)
        if hi - lo < -tol:
            continue
        if hi - lo <= tol:
            m = 0.5 * (lo + hi)
            if _rec_contains(a, m, tol) and _rec_contains(b, m, tol):
                t = canonical_angle(m)
                out.append((t, t, True, True))
            continue
        # endpoint flags: binding constraint decides inclusion
        if abs(lo - a_s) <= tol and abs(lo - bs) <= tol:
            cs = a[2] and b[2]
        elif abs(lo - a_s) <= tol:
            cs = a[2]
        else:
            cs = b[2]
        if abs(hi - a_e) <= tol and abs(hi - be) <= tol:
            ce = a[3] and b[3]
        elif abs(hi - a_e) <= tol:
            ce = a[3]
        else:
            ce = b[3]
        out.append((canonical_angle(lo), canonical_angle(lo) + (hi - lo), cs, ce))
    return out


# ---------------------------------------------------------------------------
# Betti numbers and Euler characteristics of circle subsets and pairs
# ---------------------------------------------------------------------------

def subsets_equal(a: CircleSubset, b: CircleSubset) -> bool:
    """Set-level equality up to the angular tolerance."""
    return a.is_subset_of(b) and b.is_subset_of(a)


def betti_circle(a: CircleSubset) -> tuple[int, int]:
    """(b0, b1) of a circle subset: component count, and 1 only for the full circle."""
    if a.is_full():
        return (1, 1)
    return (a.n_components(), 0)


def euler_circle(a: CircleSubset) -> int:
    """Euler characteristic: number of contractible components (full circle: 0)."""
    if a.is_full():
        return 0
    return a.n_components()


def betti_pair(a: CircleSubset, b: CircleSubset) -> tuple[int, int]:
    """Relative (b0, b1) of a nested pair b <= a of circle subsets.

    b0 counts components of a missing b entirely; b1 follows from exactness
    of the homology sequence of the pair.
    """
    if not b.is_subset_of(a):
        raise InvalidInputError("betti_pair requires b to be contained in a")
    if a.is_full():
        b0_rel = 0 if not b.is_empty() else 1
    else:
        b0_rel = sum(1 for comp in a.components() if comp.intersect(b).is_empty())
    b1_rel = b0_rel - euler_circle(a) + euler_circle(b)
    if b1_rel < 0:
        raise InvalidInputError("inconsistent pair: negative relative b1")
    return (b0_rel, b1_rel)


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
    opposite rays at start and start + pi.
    """

    kind: str
    start: float = 0.0
    sweep: float = 0.0

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise InvalidInputError(f"unknown cone kind {self.kind!r}")
        if self.kind == "sector" and not (0.0 < self.sweep < PI):
            raise InvalidInputError("sector sweep must lie strictly between 0 and pi")

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "PlanarCone":
        return PlanarCone("zero")

    @staticmethod
    def full() -> "PlanarCone":
        return PlanarCone("full")

    @staticmethod
    def ray(theta: float) -> "PlanarCone":
        return PlanarCone("ray", canonical_angle(theta), 0.0)

    @staticmethod
    def line(theta: float) -> "PlanarCone":
        return PlanarCone("line", canonical_angle(theta) % PI, 0.0)

    @staticmethod
    def halfplane(theta: float) -> "PlanarCone":
        return PlanarCone("halfplane", canonical_angle(theta), PI)

    @staticmethod
    def sector(start: float, sweep: float) -> "PlanarCone":
        if sweep <= 0 or sweep >= PI:
            raise InvalidInputError("sector sweep must lie strictly between 0 and pi")
        return PlanarCone("sector", canonical_angle(start), sweep)

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

    def contains_direction(self, theta: float, tol: float = DEFAULT_CONFIG.tol_angle) -> bool:
        """Whether the ray at angle theta lies in the cone."""
        if self.kind == "full":
            return True
        if self.kind == "zero":
            return False
        if self.kind == "line":
            return angles_equal(theta, self.start, tol) or angles_equal(theta, self.start + PI, tol)
        d = (canonical_angle(theta) - self.start) % TWO_PI
        return d <= self.sweep + tol or d >= TWO_PI - tol

    def project(self, y: tuple[float, float]) -> tuple[float, float]:
        """Euclidean projection of a plane point onto the cone."""
        if self.kind == "full":
            return y
        if self.kind == "zero":
            return (0.0, 0.0)
        if self.kind == "line":
            u = unit(self.start)
            t = y[0] * u[0] + y[1] * u[1]
            return (t * u[0], t * u[1])
        r = math.hypot(y[0], y[1])
        if r == 0.0:
            return (0.0, 0.0)
        if self.contains_direction(math.atan2(y[1], y[0]), tol=0.0):
            return y
        best = (0.0, 0.0)
        best_d2 = r * r
        for u in self.generators:
            t = max(y[0] * u[0] + y[1] * u[1], 0.0)
            p = (t * u[0], t * u[1])
            d2 = (y[0] - p[0]) ** 2 + (y[1] - p[1]) ** 2
            if d2 < best_d2:
                best, best_d2 = p, d2
        return best

    # -- serialization -------------------------------------------------
    def to_json(self) -> dict:
        return {"kind": self.kind, "generators": [list(g) for g in self.generators]}

    @staticmethod
    def from_json(data: dict) -> "PlanarCone":
        kind = data.get("kind")
        gens = data.get("generators", [])
        if kind == "zero":
            return PlanarCone.zero()
        if kind == "full":
            return PlanarCone.full()
        if kind == "ray":
            if len(gens) != 1:
                raise InvalidInputError("ray cone needs exactly one generator")
            return PlanarCone.ray(angle_of(*gens[0]))
        if kind == "line":
            if not gens:
                raise InvalidInputError("line cone needs a generator")
            return PlanarCone.line(angle_of(*gens[0]))
        if kind in ("sector", "halfplane"):
            if len(gens) != 2:
                raise InvalidInputError(f"{kind} cone needs two generators")
            a1, a2 = angle_of(*gens[0]), angle_of(*gens[1])
            sweep = (a2 - a1) % TWO_PI
            if kind == "halfplane":
                if not abs(sweep - PI) < 1e-9:
                    raise InvalidInputError("halfplane generators must be antipodal")
                return PlanarCone.halfplane(a1)
            if sweep > PI:
                a1, sweep = a2, TWO_PI - sweep
            if sweep == 0.0:
                return PlanarCone.ray(a1)
            return PlanarCone.sector(a1, sweep)
        raise InvalidInputError(f"unknown cone kind {kind!r}")


def cones_equal(k1: PlanarCone, k2: PlanarCone, tol: float = DEFAULT_CONFIG.tol_angle) -> bool:
    if k1.kind != k2.kind:
        return False
    if k1.kind in ("zero", "full"):
        return True
    if k1.kind == "line":
        return angles_equal(k1.start, k2.start, tol) or angles_equal(k1.start + PI, k2.start, tol)
    return angles_equal(k1.start, k2.start, tol) and abs(k1.sweep - k2.sweep) <= tol


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


def omega_set(k: PlanarCone, tol: float = DEFAULT_CONFIG.tol_angle) -> CircleSubset:
    """The polar cone's trace on the unit circle."""
    p = polar_cone(k)
    if p.kind == "full":
        return CircleSubset.full_circle(tol)
    if p.kind == "zero":
        return CircleSubset.empty(tol)
    if p.kind == "line":
        return CircleSubset.from_items(
            [Point(p.start), Point(canonical_angle(p.start + PI))], tol)
    if p.kind == "ray":
        return CircleSubset.point(p.start, tol)
    return CircleSubset.from_items(
        [Arc(p.start, p.start + p.sweep, True, True)], tol)


def closed_half_circle(theta: float, tol: float = DEFAULT_CONFIG.tol_angle) -> CircleSubset:
    """The closed arc from theta to theta + pi."""
    t = canonical_angle(theta)
    return CircleSubset.from_items([Arc(t, t + PI, True, True)], tol)


def open_half_circle(center: float, tol: float = DEFAULT_CONFIG.tol_angle) -> CircleSubset:
    """{omega : <omega, u(center)> > 0}, an open half circle."""
    s = canonical_angle(center - PI / 2)
    return CircleSubset.from_items([Arc(s, s + PI, False, False)], tol)
