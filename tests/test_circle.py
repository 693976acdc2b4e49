import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from quadrics.circle import (
    TOL_ANGLE,
    Arc,
    CircleSubset,
    PlanarCone,
    Point,
    angles_equal,
    betti_circle,
    betti_pair,
    canonical_angle,
    closed_half_circle,
    cones_equal,
    euler_circle,
    omega_set,
    open_half_circle,
    polar_cone,
    subsets_equal,
)
from quadrics.errors import InvalidInputError

PI = math.pi
TWO_PI = 2 * math.pi


# ---------------------------------------------------------------------------
# angles
# ---------------------------------------------------------------------------

def test_canonical_angle_range():
    for t in [-7.0, -PI, 0.0, 1.0, TWO_PI, 13.0]:
        c = canonical_angle(t)
        assert 0.0 <= c < TWO_PI
        assert angles_equal(c, t)


def test_angles_equal_wraps():
    assert angles_equal(0.0, TWO_PI)
    assert angles_equal(-1e-12, 1e-12)
    assert not angles_equal(0.0, 0.1)


# ---------------------------------------------------------------------------
# canonicalization
# ---------------------------------------------------------------------------

def test_overlapping_arcs_merge():
    a = CircleSubset.from_items([Arc(0.0, 1.0, True, True), Arc(0.5, 2.0, True, True)])
    assert a.n_components() == 1
    assert a.contains(1.7)
    assert not a.contains(2.5)


def test_touching_open_arcs_stay_separate():
    a = CircleSubset.from_items([Arc(0.0, 1.0, True, False), Arc(1.0, 2.0, False, True)])
    assert a.n_components() == 2
    assert not a.contains(1.0)


def test_touching_closed_arc_merges():
    a = CircleSubset.from_items([Arc(0.0, 1.0, True, True), Arc(1.0, 2.0, False, True)])
    assert a.n_components() == 1
    assert a.contains(1.0)


def test_point_glues_two_open_arcs():
    a = CircleSubset.from_items(
        [Arc(0.0, 1.0, True, False), Point(1.0), Arc(1.0, 2.0, False, True)])
    assert a.n_components() == 1
    assert a.contains(1.0)


def test_cover_becomes_full():
    a = CircleSubset.from_items(
        [Arc(0.0, PI, True, True), Arc(PI, TWO_PI, False, True)])
    assert a.is_full()


def test_circle_minus_point():
    a = CircleSubset.from_items(
        [Arc(0.0, PI, False, True), Arc(PI, TWO_PI, False, False)])
    assert not a.is_full()
    assert a.n_components() == 1
    assert not a.contains(0.0)
    assert a.contains(PI)
    assert a.contains(3.0)


def test_wraparound_merge():
    a = CircleSubset.from_items(
        [Arc(5.5, 5.5 + 1.5, True, True), Arc(0.2, 1.0, True, True)])
    # first arc ends at 5.5+1.5 - 2pi ~ 0.717 > 0.2, so they overlap across 0
    assert a.n_components() == 1
    assert a.contains(0.0)
    assert a.contains(0.9)
    assert not a.contains(2.0)


def test_degenerate_arc_to_point():
    a = CircleSubset.from_items([Arc(1.0, 1.0 + 1e-12, True, False)])
    assert a.n_components() == 1
    assert isinstance(a.items[0], Point)
    b = CircleSubset.from_items([Arc(1.0, 1.0 + 1e-12, False, False)])
    assert b.is_empty()


# ---------------------------------------------------------------------------
# set operations
# ---------------------------------------------------------------------------

def test_complement_of_arc():
    a = CircleSubset.arc(0.0, PI, True, True)
    c = a.complement()
    assert c.n_components() == 1
    assert not c.contains(0.0)
    assert not c.contains(PI)
    assert c.contains(4.0)
    assert subsets_equal(c.complement(), a)


def test_complement_of_points():
    a = CircleSubset.from_items([Point(0.0), Point(PI)])
    c = a.complement()
    assert c.n_components() == 2
    assert not c.contains(0.0)
    assert c.contains(1.0)
    assert subsets_equal(c.complement(), a)


def test_complement_of_circle_minus_point():
    a = CircleSubset.punctured_circle([1.0])
    assert a.n_components() == 1
    c = a.complement()
    assert c.n_components() == 1
    assert isinstance(c.items[0], Point)
    assert c.contains(1.0)


def test_intersection_arcs_two_pieces():
    # two long arcs overlapping at both ends
    a = CircleSubset.arc(0.0, 4.0, True, True)
    b = CircleSubset.arc(3.0, 1.0, True, True)  # wraps through 0
    i = a.intersect(b)
    assert i.n_components() == 2
    assert i.contains(3.5)
    assert i.contains(0.5)
    assert not i.contains(2.0)


def test_intersection_boundary_flags():
    a = CircleSubset.arc(0.0, 1.0, True, False)
    b = CircleSubset.arc(1.0, 2.0, True, True)
    i = a.intersect(b)
    # the single shared angle 1.0 is open in a
    assert i.is_empty()
    a2 = CircleSubset.arc(0.0, 1.0, True, True)
    i2 = a2.intersect(b)
    assert i2.n_components() == 1
    assert isinstance(i2.items[0], Point)


def test_union_full_detection():
    a = CircleSubset.arc(0.0, 3.5, True, True)
    b = CircleSubset.arc(3.0, 0.5, True, True)
    assert a.union(b).is_full()


def test_subset_checks():
    a = CircleSubset.arc(0.0, 2.0, True, True)
    b = CircleSubset.arc(0.5, 1.5, False, False)
    assert b.is_subset_of(a)
    assert not a.is_subset_of(b)
    # closed endpoint not inside open arc
    c = CircleSubset.arc(0.0, 2.0, True, True)
    d = CircleSubset.arc(0.0, 2.0, False, False)
    assert d.is_subset_of(c)
    assert not c.is_subset_of(d)


def test_minus_points():
    a = CircleSubset.full_circle().minus_points([PI / 2, 3 * PI / 2])
    assert a.n_components() == 2
    assert not a.contains(PI / 2)
    assert a.contains(0.0)


# ---------------------------------------------------------------------------
# Betti numbers / Euler characteristic
# ---------------------------------------------------------------------------

def test_betti_circle_examples():
    assert betti_circle(CircleSubset.full_circle()) == (1, 1)
    two_arcs = CircleSubset.from_items(
        [Arc(0.0, 1.0, True, True), Arc(2.0, 3.0, True, True)])
    assert betti_circle(two_arcs) == (2, 0)
    assert betti_circle(CircleSubset.empty()) == (0, 0)


def test_euler_examples():
    assert euler_circle(CircleSubset.full_circle()) == 0
    assert euler_circle(CircleSubset.punctured_circle([0.0, PI])) == 2
    pts = CircleSubset.from_items([Point(0.0), Point(1.0), Point(2.0)])
    assert euler_circle(pts) == 3


def test_chi_is_b0_minus_b1():
    for a in [CircleSubset.full_circle(), CircleSubset.empty(),
              CircleSubset.arc(0, 1), CircleSubset.punctured_circle([0.0])]:
        b0, b1 = betti_circle(a)
        assert euler_circle(a) == b0 - b1


def test_betti_pair_trivial():
    assert betti_pair(CircleSubset.full_circle(), CircleSubset.empty()) == (1, 1)


def test_betti_pair_wedge_of_two_circles():
    b = CircleSubset.from_items([Arc(0.0, 1.0, True, True), Arc(2.0, 3.0, True, True)])
    assert betti_pair(CircleSubset.full_circle(), b) == (0, 2)


def test_betti_pair_arc_with_two_subarcs():
    a = CircleSubset.arc(0.0, 3.0, True, True)
    b = CircleSubset.from_items([Arc(0.5, 1.0, True, True), Arc(2.0, 2.5, True, True)])
    assert betti_pair(a, b) == (0, 1)


def test_betti_pair_rejects_non_nested():
    a = CircleSubset.arc(0.0, 1.0)
    b = CircleSubset.arc(2.0, 3.0)
    with pytest.raises(InvalidInputError):
        betti_pair(a, b)


def test_betti_pair_with_empty_is_absolute():
    for a in [CircleSubset.full_circle(), CircleSubset.arc(0, 2),
              CircleSubset.from_items([Point(0.0), Arc(1, 2, True, True)])]:
        assert betti_pair(a, CircleSubset.empty()) == betti_circle(a)


# random nested pairs: exact-sequence rank identity
def _random_subset(rng: random.Random) -> CircleSubset:
    items = []
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.25:
            items.append(Point(rng.uniform(0, TWO_PI)))
        else:
            s = rng.uniform(0, TWO_PI)
            sweep = rng.uniform(0.05, 2.5)
            items.append(Arc(s, s + sweep, rng.random() < 0.5, rng.random() < 0.5))
    if not items and rng.random() < 0.3:
        return CircleSubset.full_circle()
    return CircleSubset.from_items(items)


def test_exact_sequence_identity_random_pairs():
    rng = random.Random(20240811)
    checked = 0
    while checked < 1000:
        a = _random_subset(rng)
        b = _random_subset(rng).intersect(a)
        if not b.is_subset_of(a):
            continue
        b0a, b1a = betti_circle(a)
        b0b, b1b = betti_circle(b)
        b0r, b1r = betti_pair(a, b)
        assert b1b - b1a + b1r - b0b + b0a - b0r == 0
        checked += 1


def _nested_subset(rng: random.Random, a: CircleSubset) -> CircleSubset:
    """A random subset of a: a's intersection with a random set, a with some
    points removed, some of a's components, or a's cut points that it holds."""
    kind = rng.randrange(4)
    if kind == 0:
        return _random_subset(rng).intersect(a)
    if kind == 1:
        return a.minus_points([rng.uniform(0, TWO_PI) for _ in range(3)] + list(a.cuts[:1]))
    if kind == 2:
        return CircleSubset.from_items([it for it in a.items if rng.random() < 0.5])
    return a.intersect(CircleSubset.from_items([Point(c) for c in a.cuts]))


def test_betti_pair_b0_matches_per_component_count():
    # the one-pass count against the definition: components of a missing b
    rng = random.Random(20261018)
    for _ in range(1500):
        a = _random_subset(rng)
        b = _nested_subset(rng, a)
        if a.is_full():
            expected = int(b.is_empty())
        else:
            expected = sum(1 for it in a.items
                           if CircleSubset.from_items([it]).intersect(b).is_empty())
        assert betti_pair(a, b)[0] == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(0, TWO_PI), st.floats(0.01, 3.0),
                          st.booleans(), st.booleans()), max_size=5))
# one arc ends within tol of where the other starts
@example([(1.0, 1.0, False, False), (1e-09, 1.0, False, False)])
def test_complement_involution(arcs):
    a = CircleSubset.from_items(
        [Arc(canonical_angle(s), canonical_angle(s) + w, cs, ce)
         for s, w, cs, ce in arcs])
    assert subsets_equal(a.complement().complement(), a)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(0, TWO_PI), st.floats(0.01, 3.0),
                          st.booleans(), st.booleans()), max_size=4),
       st.lists(st.tuples(st.floats(0, TWO_PI), st.floats(0.01, 3.0),
                          st.booleans(), st.booleans()), max_size=4))
# ends within tol of each other: the union must keep the farther end
@example([(0.0, 1.0, False, False)], [(1e-9, 1.0, False, False)])
# starts within tol with different flags: a = (1, 3), b = [1 + 1e-9, 3)
@example([(1.0, 2.0, False, False)], [(1.0 + 1e-9, 2.0 - 1e-9, True, False)])
def test_de_morgan(arcs1, arcs2):
    def build(arcs):
        return CircleSubset.from_items(
            [Arc(canonical_angle(s), canonical_angle(s) + w, cs, ce)
             for s, w, cs, ce in arcs])
    a, b = build(arcs1), build(arcs2)
    lhs = a.intersect(b)
    rhs = a.complement().union(b.complement()).complement()
    assert subsets_equal(lhs, rhs)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.floats(0, TWO_PI), st.floats(0.01, 2.5),
                          st.booleans(), st.booleans()), max_size=3),
       st.lists(st.tuples(st.floats(0, TWO_PI), st.floats(0.01, 2.5),
                          st.booleans(), st.booleans()), max_size=3),
       st.lists(st.tuples(st.floats(0, TWO_PI), st.floats(0.01, 2.5),
                          st.booleans(), st.booleans()), max_size=3))
def test_set_algebra_laws(a1, a2, a3):
    def build(arcs):
        return CircleSubset.from_items(
            [Arc(canonical_angle(s), canonical_angle(s) + w, cs, ce)
             for s, w, cs, ce in arcs])
    a, b, c = build(a1), build(a2), build(a3)
    assert subsets_equal(a.union(a), a)
    assert subsets_equal(a.intersect(a), a)
    assert subsets_equal(a.union(b), b.union(a))
    assert subsets_equal(a.union(b).union(c), a.union(b.union(c)))
    assert subsets_equal(a.intersect(b.union(c)),
                         a.intersect(b).union(a.intersect(c)))


# an angle near one of a few base angles, shifted by 0 or by 0.5-2 tol either way
_near_base = st.builds(lambda base, sign, mult: base + sign * mult * TOL_ANGLE,
                       st.sampled_from([0.0, 1.0, 3.0]), st.sampled_from([-1.0, 0.0, 1.0]),
                       st.floats(0.5, 2.0))
_tol_scale_arcs = st.lists(st.tuples(_near_base, _near_base, st.booleans(), st.booleans()),
                           min_size=1, max_size=3)


def _arcs_between(arcs) -> CircleSubset:
    """The union of the counterclockwise arcs from s to e."""
    items = []
    for s, e, cs, ce in arcs:
        start = canonical_angle(s)
        items.append(Arc(start, start + (e - s) % TWO_PI, cs, ce))
    return CircleSubset.from_items(items)


@settings(max_examples=300, deadline=None)
@given(_tol_scale_arcs, _tol_scale_arcs)
def test_set_laws_at_tolerance_scale(arcs1, arcs2):
    """With endpoints a tol or two apart, De Morgan and involution still hold.

    Associativity and distributivity are not exact at this scale: regrouping
    can change which cuts fall within tol of a cluster's first cut.
    """
    a, b = _arcs_between(arcs1), _arcs_between(arcs2)
    assert subsets_equal(a.complement().complement(), a)
    assert subsets_equal(a.intersect(b), a.complement().union(b.complement()).complement())
    assert subsets_equal(a.union(b), a.complement().intersect(b.complement()).complement())


def test_disjoint_union_b0_adds():
    a = CircleSubset.arc(0.0, 1.0)
    b = CircleSubset.arc(2.0, 3.0)
    u = a.union(b)
    assert betti_circle(u)[0] == betti_circle(a)[0] + betti_circle(b)[0]


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------

def all_cone_kinds():
    return [
        PlanarCone.zero(),
        PlanarCone.full(),
        PlanarCone.ray(0.3),
        PlanarCone.line(1.2),
        PlanarCone.sector(0.5, 1.0),
        PlanarCone.halfplane(2.0),
        PlanarCone.nonpositive_quadrant(),
    ]


def test_polar_examples():
    assert polar_cone(PlanarCone.zero()).kind == "full"
    assert polar_cone(PlanarCone.full()).kind == "zero"
    third_quadrant = PlanarCone.nonpositive_quadrant()
    p = polar_cone(third_quadrant)
    assert p.kind == "sector"
    # first quadrant
    assert p.contains_direction(PI / 4)
    assert p.contains_direction(0.0)
    assert p.contains_direction(PI / 2)
    assert not p.contains_direction(PI)


def test_polar_involution_all_kinds():
    for k in all_cone_kinds():
        assert cones_equal(polar_cone(polar_cone(k)), k), k


def test_polar_ray_halfplane_duality():
    r = PlanarCone.ray(0.7)
    h = polar_cone(r)
    assert h.kind == "halfplane"
    # every direction of the halfplane pairs nonpositively with the ray
    for t in [h.start, h.start + 1.0, h.start + PI]:
        assert math.cos(t - 0.7) <= 1e-12


def test_omega_set_examples():
    assert omega_set(PlanarCone.zero()).is_full()
    assert omega_set(PlanarCone.full()).is_empty()
    om = omega_set(PlanarCone.nonpositive_quadrant())
    assert om.n_components() == 1
    assert om.contains(0.0) and om.contains(PI / 2) and om.contains(PI / 4)
    assert not om.contains(PI)
    # a halfplane cone gives a single point, a line gives two
    assert isinstance(omega_set(PlanarCone.halfplane(0.0)).items[0], Point)
    assert omega_set(PlanarCone.line(0.0)).n_components() == 2


def test_cone_projection():
    q = PlanarCone.nonpositive_quadrant()
    assert q.project((-1.0, -2.0)) == (-1.0, -2.0)
    p = q.project((1.0, -2.0))
    assert abs(p[0]) < 1e-12 and abs(p[1] + 2.0) < 1e-12
    p2 = q.project((1.0, 1.0))
    assert math.hypot(*p2) < 1e-12
    z = PlanarCone.zero()
    assert z.project((3.0, 4.0)) == (0.0, 0.0)


def test_cone_json_roundtrip():
    for k in all_cone_kinds():
        k2 = PlanarCone.from_json(k.to_json())
        assert cones_equal(k, k2), (k, k2)


def test_subset_json_roundtrip():
    subsets = [
        CircleSubset.empty(),
        CircleSubset.full_circle(),
        CircleSubset.arc(0.3, 2.0, True, False),
        CircleSubset.punctured_circle([1.0]),
        CircleSubset.from_items([Point(0.5), Arc(1.0, 2.0, False, True)]),
    ]
    for s in subsets:
        s2 = CircleSubset.from_json(s.to_json())
        assert subsets_equal(s, s2)


def test_half_circles():
    c1 = closed_half_circle(0.0)
    assert c1.contains(0.0) and c1.contains(PI) and c1.contains(PI / 2)
    assert not c1.contains(-PI / 2)
    o = open_half_circle(0.0)
    assert o.contains(0.0)
    assert not o.contains(PI / 2)
    assert not o.contains(-PI / 2)
    assert o.contains(0.3)
