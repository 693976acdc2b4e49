import functools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quadrics import fixtures
from quadrics.applications import extremal_family, support_function
from quadrics.betti import half_circle_bound, index_decomposition
from quadrics.circle import (
    TOL_ANGLE,
    CircleSubset,
    PlanarCone,
    _cells,
    betti_circle,
    canonical_angle,
    closed_half_circle,
    omega_set,
    open_half_circle,
    polar_cone,
)
from quadrics.errors import InvalidInputError
from quadrics.filtration import filtration_for_cone, index_profile
from references import (angles_equal, betti_pair, cones_equal, euler_circle, locate,
                        subsets_equal)

PI = math.pi
TWO_PI = 2 * math.pi
arc, point = CircleSubset.arc, CircleSubset.point


def _union(sets) -> CircleSubset:
    return functools.reduce(CircleSubset.union, sets, CircleSubset.empty())


def _is_one_point(a: CircleSubset) -> bool:
    return len(a.cuts) == 1 and a.cells[1::2] == (False,)


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
    a = arc(0.0, 1.0, True, True).union(arc(0.5, 2.0, True, True))
    assert a.n_components() == 1
    assert a.contains(1.7)
    assert not a.contains(2.5)


def test_touching_open_arcs_stay_separate():
    a = arc(0.0, 1.0, True, False).union(arc(1.0, 2.0, False, True))
    assert a.n_components() == 2
    assert not a.contains(1.0)


def test_touching_closed_arc_merges():
    a = arc(0.0, 1.0, True, True).union(arc(1.0, 2.0, False, True))
    assert a.n_components() == 1
    assert a.contains(1.0)


def test_point_glues_two_open_arcs():
    a = _union([arc(0.0, 1.0, True, False), point(1.0), arc(1.0, 2.0, False, True)])
    assert a.n_components() == 1
    assert a.contains(1.0)


def test_cover_becomes_full():
    a = arc(0.0, PI, True, True).union(arc(PI, TWO_PI, False, True))
    assert a.is_full()


def test_circle_minus_point():
    a = arc(0.0, PI, False, True).union(arc(PI, TWO_PI, False, False))
    assert not a.is_full()
    assert a.n_components() == 1
    assert not a.contains(0.0)
    assert a.contains(PI)
    assert a.contains(3.0)


def test_wraparound_merge():
    a = arc(5.5, 5.5 + 1.5, True, True).union(arc(0.2, 1.0, True, True))
    # first arc ends at 5.5+1.5 - 2pi ~ 0.717 > 0.2, so they overlap across 0
    assert a.n_components() == 1
    assert a.contains(0.0)
    assert a.contains(0.9)
    assert not a.contains(2.0)


def test_degenerate_arc_to_point():
    a = arc(1.0, 1.0 + 1e-12, True, False)
    assert a.n_components() == 1
    assert _is_one_point(a)
    b = arc(1.0, 1.0 + 1e-12, False, False)
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
    a = point(0.0).union(point(PI))
    c = a.complement()
    assert c.n_components() == 2
    assert not c.contains(0.0)
    assert c.contains(1.0)
    assert subsets_equal(c.complement(), a)


def test_complement_of_circle_minus_point():
    a = point(1.0).complement()
    assert a.n_components() == 1
    c = a.complement()
    assert c.n_components() == 1
    assert _is_one_point(c)
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
    assert _is_one_point(i2)


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
    a = point(PI / 2).union(point(3 * PI / 2)).complement()
    assert a.n_components() == 2
    assert not a.contains(PI / 2)
    assert a.contains(0.0)


# ---------------------------------------------------------------------------
# Betti numbers / Euler characteristic
# ---------------------------------------------------------------------------

def test_betti_circle_examples():
    assert betti_circle(CircleSubset.full_circle()) == (1, 1)
    two_arcs = arc(0.0, 1.0, True, True).union(arc(2.0, 3.0, True, True))
    assert betti_circle(two_arcs) == (2, 0)
    assert betti_circle(CircleSubset.empty()) == (0, 0)


def test_euler_examples():
    assert euler_circle(CircleSubset.full_circle()) == 0
    assert euler_circle(point(0.0).union(point(PI)).complement()) == 2
    pts = _union([point(0.0), point(1.0), point(2.0)])
    assert euler_circle(pts) == 3


def test_chi_is_b0_minus_b1():
    for a in [CircleSubset.full_circle(), CircleSubset.empty(),
              CircleSubset.arc(0, 1), point(0.0).complement()]:
        b0, b1 = betti_circle(a)
        assert euler_circle(a) == b0 - b1


def test_betti_pair_trivial():
    assert betti_pair(CircleSubset.full_circle(), CircleSubset.empty()) == (1, 1)


def test_betti_pair_wedge_of_two_circles():
    b = arc(0.0, 1.0, True, True).union(arc(2.0, 3.0, True, True))
    assert betti_pair(CircleSubset.full_circle(), b) == (0, 2)


def test_betti_pair_arc_with_two_subarcs():
    a = CircleSubset.arc(0.0, 3.0, True, True)
    b = arc(0.5, 1.0, True, True).union(arc(2.0, 2.5, True, True))
    assert betti_pair(a, b) == (0, 1)


def test_betti_pair_rejects_non_nested():
    a = CircleSubset.arc(0.0, 1.0)
    b = CircleSubset.arc(2.0, 3.0)
    with pytest.raises(InvalidInputError):
        betti_pair(a, b)


def test_betti_pair_with_empty_is_absolute():
    for a in [CircleSubset.full_circle(), CircleSubset.arc(0, 2),
              point(0.0).union(arc(1, 2, True, True))]:
        assert betti_pair(a, CircleSubset.empty()) == betti_circle(a)


# random nested pairs: exact-sequence rank identity
def _random_subset(rng: random.Random) -> CircleSubset:
    parts = []
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.25:
            parts.append(point(rng.uniform(0, TWO_PI)))
        else:
            s = rng.uniform(0, TWO_PI)
            sweep = rng.uniform(0.05, 2.5)
            parts.append(arc(s, s + sweep, rng.random() < 0.5, rng.random() < 0.5))
    if not parts and rng.random() < 0.3:
        return CircleSubset.full_circle()
    return _union(parts)


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


def _component_sets(a: CircleSubset) -> list[CircleSubset]:
    """Each component of a, as a set (a point is an arc from start to start)."""
    return [arc(s, e, cs, ce) for s, e, cs, ce in a._components()]


def _nested_subset(rng: random.Random, a: CircleSubset) -> CircleSubset:
    """A random subset of a: a's intersection with a random set, a with some
    points removed, some of a's components, or a's cut points that it holds."""
    kind = rng.randrange(4)
    if kind == 0:
        return _random_subset(rng).intersect(a)
    if kind == 1:
        holes = [rng.uniform(0, TWO_PI) for _ in range(3)] + list(a.cuts[:1])
        return a.intersect(_union(point(t) for t in holes).complement())
    if kind == 2:
        return _union([c for c in _component_sets(a) if rng.random() < 0.5])
    return a.intersect(_union(point(c) for c in a.cuts))


def test_betti_pair_b0_matches_per_component_count():
    # the one-pass count against the definition: components of a missing b
    rng = random.Random(20261018)
    for _ in range(1500):
        a = _random_subset(rng)
        b = _nested_subset(rng, a)
        if a.is_full():
            expected = int(b.is_empty())
        else:
            expected = sum(1 for c in _component_sets(a) if c.intersect(b).is_empty())
        assert betti_pair(a, b)[0] == expected


def _from_widths(arcs) -> CircleSubset:
    """The union of the arcs (start, width, closed_start, closed_end)."""
    return _union(arc(canonical_angle(s), canonical_angle(s) + w, cs, ce)
                  for s, w, cs, ce in arcs)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(0, TWO_PI), st.floats(0.01, 3.0),
                          st.booleans(), st.booleans()), max_size=5))
# one arc ends within tol of where the other starts
@example([(1.0, 1.0, False, False), (1e-09, 1.0, False, False)])
def test_complement_involution(arcs):
    a = _from_widths(arcs)
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
    a, b = _from_widths(arcs1), _from_widths(arcs2)
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
    a, b, c = _from_widths(a1), _from_widths(a2), _from_widths(a3)
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
    return _union(arc(s, e, cs, ce) for s, e, cs, ce in arcs)


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
    assert polar_cone(third_quadrant).kind == "sector"
    # first quadrant
    om = omega_set(third_quadrant)
    assert om.contains(PI / 4)
    assert om.contains(0.0)
    assert om.contains(PI / 2)
    assert not om.contains(PI)


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
    assert _is_one_point(omega_set(PlanarCone.halfplane(0.0)))
    assert omega_set(PlanarCone.line(0.0)).n_components() == 2


def test_cone_json_roundtrip():
    for k in all_cone_kinds():
        k2 = PlanarCone.from_json(k.to_json())
        assert cones_equal(k, k2), (k, k2)


def test_a_sweep_that_contradicts_the_kind_is_invalid_input():
    # the polar follows the sweep: the halfplane below once got a sector polar
    # of sweep 2.14, and analyze answered b = (1, 1, 0, 0) on the bouquet
    # where PlanarCone.halfplane(0.0) answers (1, 1, 1, 0)
    for kind, start, sweep in [("halfplane", 0.0, 1.0), ("ray", 0.3, 2.0), ("line", 1.0, PI),
                               ("zero", 0.0, 1.0), ("full", 0.0, PI)]:
        with pytest.raises(InvalidInputError, match=f"{kind} cone needs sweep"):
            PlanarCone(kind, start, sweep)
    # every constructor, its polar and its JSON round trip pass the check
    for k in all_cone_kinds() + [PlanarCone.ray(6.0), PlanarCone.sector(5.5, 0.2),
                                 PlanarCone.halfplane(4.0), PlanarCone.line(5.0)]:
        for cone in (k, polar_cone(k), PlanarCone.from_json(k.to_json())):
            assert PlanarCone(cone.kind, cone.start, cone.sweep) == cone


def _item(kind, start, end, closed_start=True, closed_end=True):
    return {"type": kind, "start": start, "end": end,
            "closed_start": closed_start, "closed_end": closed_end}


def test_subset_to_json():
    # a component's end is canonical; the circle minus a point ends where it starts
    wraps = 0.178035314566679  # canonical_angle(wraps + 2 * pi) is not wraps
    punctured = {"full": False, "items": [_item("arc", 1.0, 1.0, False, False)]}
    cases = [
        (CircleSubset.empty(), {"full": False, "items": []}),
        (CircleSubset.full_circle(), {"full": True, "items": []}),
        (point(0.5), {"full": False, "items": [_item("point", 0.5, 0.5)]}),
        (arc(0.25, 2.0), {"full": False, "items": [_item("arc", 0.25, 2.0)]}),
        (arc(0.5, 1.5, True, False),
         {"full": False, "items": [_item("arc", 0.5, 1.5, True, False)]}),
        (arc(5.5, 0.5, False, True),
         {"full": False, "items": [_item("arc", 5.5, 0.5, False, True)]}),
        (point(1.0).complement(), punctured),
        # an arc across 0 ends at its own cut, bit for bit
        (CircleSubset.from_steps([(wraps, True, False), (5.0, False, True)]),
         {"full": False, "items": [_item("arc", 5.0, wraps, False, True)]}),
        # lengths within TOL_ANGLE of 0: a point, or nothing with both ends open
        (arc(1.0, 1.0 + 0.5 * TOL_ANGLE, False, True),
         {"full": False, "items": [_item("point", 1.0, 1.0)]}),
        (arc(1.0, 1.0 + 0.5 * TOL_ANGLE, False, False), {"full": False, "items": []}),
        # lengths within TOL_ANGLE of 2*pi: the circle, less start with both ends open
        (arc(1.0, 1.0 - 0.5 * TOL_ANGLE, False, False), punctured),
        (arc(1.0, 1.0 - 0.5 * TOL_ANGLE, True, False), {"full": True, "items": []}),
    ]
    for subset, expected in cases:
        assert subset.to_json() == expected, subset


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_angles_are_invalid_input(bad):
    calls = [
        lambda: PlanarCone.ray(bad), lambda: PlanarCone.line(bad),
        lambda: PlanarCone.halfplane(bad), lambda: PlanarCone.sector(bad, 1.0),
        lambda: PlanarCone.sector(0.5, bad), lambda: PlanarCone("ray", bad),
        lambda: PlanarCone("halfplane", 0.0, bad), lambda: PlanarCone("sector", 0.5, bad),
        lambda: point(bad), lambda: arc(bad, 1.0), lambda: arc(1.0, bad),
        lambda: open_half_circle(bad), lambda: closed_half_circle(bad),
        lambda: support_function(fixtures.bouquet(), bad),
        lambda: half_circle_bound(filtration_for_cone(fixtures.bouquet(), PlanarCone.zero()),
                                  bad),
        lambda: index_decomposition(extremal_family(4), bad, 1.0),
        lambda: index_decomposition(extremal_family(4), 0.17, bad),
    ]
    for call in calls:
        with pytest.raises(InvalidInputError):
            call()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_membership_and_profile_values_at_non_finite_angles_are_invalid_input(bad):
    bouquet = fixtures.bouquet()
    sets = [arc(5.0, 1.0), point(1.0), CircleSubset.full_circle(), CircleSubset.empty()]
    profiles = [filtration_for_cone(bouquet, PlanarCone.zero()).profile,
                index_profile(bouquet, arc(5.0, 1.0)),
                index_profile(bouquet, CircleSubset.empty())]
    for call in [s.contains for s in sets] + [prof.value_at_angle for prof in profiles]:
        with pytest.raises(InvalidInputError, match="not finite"):
            call(bad)


def _folded(theta):
    """theta's canonical angle, the last TOL_ANGLE below 2*pi read as 0."""
    t = canonical_angle(theta)
    return 0.0 if t >= TWO_PI - TOL_ANGLE else t


def test_arc_cuts_keep_the_bits_of_their_ends():
    # start plus the sweep (end - start) mod 2*pi can differ from end in its
    # last bit; each cut is the folded angle of the end it was given
    assert arc(5.0, 2.356194490192345).cuts == (2.356194490192345, 5.0)
    rnd = random.Random(0)
    checked = 0
    for _ in range(20000):
        start, end = rnd.uniform(-10.0, 10.0), rnd.uniform(-10.0, 10.0)
        closed = (rnd.random() < 0.5, rnd.random() < 0.5)
        s, e = _folded(start), _folded(end)
        if min(abs(e - s), TWO_PI - abs(e - s)) <= 2 * TOL_ANGLE:
            continue
        assert arc(start, end, *closed).cuts == tuple(sorted((s, e))), (start, end)
        checked += 1
    assert checked > 19900


def _digest_subsets():
    """The circle subsets of scripts/answer_digest.py: the polar traces of
    every cone kind and of the nonpositive quadrant, and the half circles on
    and near the seam, alone and cut by the quadrant's trace."""
    quadrant = omega_set(PlanarCone.nonpositive_quadrant())
    cones = [PlanarCone.zero(), PlanarCone.full(), PlanarCone.ray(0.7), PlanarCone.line(2.0),
             PlanarCone.sector(0.3, 1.9), PlanarCone.halfplane(1.1)]
    out = [omega_set(k) for k in cones] + [quadrant]
    for t in (0.0, PI / 2, PI, 3 * PI / 2, -1e-10, TWO_PI - 5e-10, 7.0):
        out += [open_half_circle(t), closed_half_circle(t),
                quadrant.intersect(open_half_circle(t))]
    return out


def _probes(cuts):
    """Each cut, the angles TOL_ANGLE (1 +- 1e-6) either side of it, and
    angles on and near the seam and past a turn."""
    out = [-1e-10, TWO_PI - 5e-10, TWO_PI, 7.0, -7.0]
    for c in cuts:
        out += [c] + [c + sign * f * TOL_ANGLE for sign in (1, -1) for f in (1 - 1e-6, 1 + 1e-6)]
    return out


def test_the_locate_rule_equals_the_reference_bisection():
    rng = np.random.default_rng(37)
    cones = [PlanarCone.zero(), PlanarCone.ray(0.7), PlanarCone.line(2.0),
             PlanarCone.sector(0.3, 1.9), PlanarCone.halfplane(1.1)]
    pencils = [fixtures.bouquet(), extremal_family(3), extremal_family(7)]
    pencils += [fixtures.random_pencil(rng, dim) for dim in range(2, 9) for _ in range(2)]
    profiles = [index_profile(p, omega_set(k)) for p in pencils for k in cones]
    subsets = _digest_subsets() + [prof.domain for prof in profiles]
    steps = [(s.cuts, s.cells, s.contains) for s in subsets]
    steps += [(prof.cuts, prof.cells, prof.value_at_angle) for prof in profiles]
    for cuts, cells, read in steps:
        probes = _probes(cuts)
        expected = [locate(cuts, t) for t in probes]
        assert _cells(cuts, np.array(probes)).tolist() == expected, cuts
        assert [int(_cells(cuts, t)) for t in probes] == expected, cuts
        assert [read(t) for t in probes] == [cells[k] for k in expected], cuts
    assert sum(len(cuts) for cuts, _, _ in steps) > 400


@pytest.mark.parametrize("generator", [[10 ** 400, 0], [1, -10 ** 400]])
def test_a_generator_past_the_float_range_is_invalid_input(generator):
    with pytest.raises(InvalidInputError, match="finite numbers"):
        PlanarCone.from_json({"kind": "ray", "generators": [generator]})


@pytest.mark.parametrize("kind, generators", [
    ("ray", [[0, 0]]), ("ray", [[-0.0, 0.0]]), ("line", [[0, 0]]),
    ("sector", [[0, 0], [0, 1]]), ("halfplane", [[0, 0], [-1, 0]])])
def test_a_zero_generator_is_invalid_input(kind, generators):
    # the zero vector has no direction: atan2(0, 0) would read it as angle 0
    with pytest.raises(InvalidInputError, match="zero vector"):
        PlanarCone.from_json({"kind": kind, "generators": generators})


@pytest.mark.parametrize("generators", [
    [[1, 0], [0, 1]], [[1, 0], [1, 0]], [[1, 0], [-1, 1e-6]], [[1, 0], [-1, 0], [1, 0]]])
def test_a_line_needs_one_generator_or_two_antipodal_ones(generators):
    with pytest.raises(InvalidInputError, match="antipodal"):
        PlanarCone.from_json({"kind": "line", "generators": generators})


def test_a_line_reads_back_from_its_json():
    # to_json writes both directions of the line; they parse back to it
    for t in (0.0, 1e-12, -1e-12, 0.4, PI / 2, 2.0, PI - 1e-12, PI, PI + 1e-12, 5.0,
              TWO_PI - 1e-12):
        k = PlanarCone.line(t)
        k2 = PlanarCone.from_json(k.to_json())
        assert len(k.to_json()["generators"]) == 2
        assert cones_equal(k2, k) and abs(k2.start - k.start) <= 1e-15, (t, k, k2)
    # one generator, or two within 1e-9 of antipodal, is the line through the first
    assert PlanarCone.from_json({"kind": "line", "generators": [[0, 2]]}) == PlanarCone.line(PI / 2)
    near = {"kind": "line", "generators": [[1, 0], [-1, 1e-12]]}
    assert PlanarCone.from_json(near) == PlanarCone.line(0.0)


def test_half_circles():
    c1 = closed_half_circle(0.0)
    assert c1.contains(0.0) and c1.contains(PI) and c1.contains(PI / 2)
    assert not c1.contains(-PI / 2)
    o = open_half_circle(0.0)
    assert o.contains(0.0)
    assert not o.contains(PI / 2)
    assert not o.contains(-PI / 2)
    assert o.contains(0.3)
