import functools
import math
import re

import numpy as np
from dataclasses import replace

from quadrics import betti, filtration, fixtures, pencil
import pytest
from quadrics.applications import extremal_family
from quadrics.circle import (
    CircleSubset,
    PlanarCone,
    betti_circle,
    canonical_angle,
    omega_set,
    open_half_circle,
)
from quadrics.errors import NumericalError
from quadrics.filtration import (
    _read_arcs,
    filtration_for_cone,
    index_profile,
    sublevel,
    superlevel,
)
from quadrics.oracles import exact_inertia, exact_locus_counts, stiefel_whitney
from quadrics.pencil import (
    CLUSTER_TOL,
    QuadraticPencil,
    degenerate_locus,
    family_counts,
    inertia,
)
from references import angles_equal, betti_pair, subsets_equal

PI = math.pi
TWO_PI = 2 * math.pi
FULL = CircleSubset.full_circle()
SIX_FIXTURES = (fixtures.bouquet, fixtures.complex_squaring, fixtures.doubled_squaring,
                fixtures.tripled_squaring, fixtures.padded_squaring, fixtures.four_lines)
ALL_CONES = (PlanarCone.zero(), PlanarCone.full(), PlanarCone.ray(0.7),
             PlanarCone.line(2.0), PlanarCone.sector(0.3, 1.9), PlanarCone.halfplane(1.1))


def _points(prof):
    return [(c, v) for c, v in zip(prof.cuts, prof.cells[::2]) if v is not None]


def _arcs(prof):
    """(start, end, value) for each held open arc between the profile's cuts,
    its end lifted past its start."""
    ends = [*prof.cuts[1:], *(c + TWO_PI for c in prof.cuts[:1])]
    return [(c, e, v) for c, e, v in zip(prof.cuts, ends, prof.cells[1::2]) if v is not None]


def _arc_values(prof):
    return [v for _, _, v in _arcs(prof)]


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def test_bouquet_profile():
    prof = index_profile(fixtures.bouquet(), FULL)
    # on the full circle every cut is a breakpoint and starts a held arc
    assert len(prof.cuts) == 2 and None not in prof.cells
    points = _points(prof)
    assert len(points) == 2
    assert abs(points[0][0] - PI / 2) <= 1e-7
    assert all(v.i_plus == 2 for v in _arc_values(prof))
    assert all(v.i_plus == 1 for _, v in points)


def test_extremal_profile_n4():
    prof = index_profile(extremal_family(4), FULL)
    assert len(_points(prof)) == 10
    plus = [v.i_plus for v in _arc_values(prof)]
    assert sorted(set(plus)) == [2, 3]
    for i in range(10):
        assert plus[i] != plus[(i + 1) % 10]
    assert plus.count(3) == 5 and plus.count(2) == 5


def test_definite_profile():
    p = fixtures.definite_form(4)
    prof = index_profile(p, FULL)
    points = _points(prof)
    assert len(points) == 2
    assert all(v.i_plus == 0 for _, v in points)
    # right half circle positive definite, left negative definite
    plus = [v.i_plus for v in _arc_values(prof)]
    assert sorted(plus) == [0, 4]


def test_profile_on_arc_domain():
    # domain = closed right half circle for the bouquet pencil
    dom = CircleSubset.arc(-PI / 2, PI / 2, True, True)
    prof = index_profile(fixtures.bouquet(), dom)
    # both endpoints are included; pi/2 is an endpoint here, not an interior
    # breakpoint, so one arc spans the domain
    (start, end, arc_value), = _arcs(prof)
    assert angles_equal(start, -PI / 2) and angles_equal(end, PI / 2)
    ends = {round(theta, 9): v for theta, v in _points(prof)}
    assert sorted(ends) == [round(PI / 2, 9), round(3 * PI / 2, 9)]
    assert ends[round(PI / 2, 9)].i_plus == 1
    assert arc_value.i_plus == 2


def test_profile_point_domain():
    dom = CircleSubset.point(PI / 2)
    prof = index_profile(fixtures.bouquet(), dom)
    assert prof.cuts == dom.cuts and prof.cells[1::2] == (None,)
    assert prof.cells[0].i_plus == 1


def test_profile_empty_domain():
    prof = index_profile(fixtures.bouquet(), CircleSubset.empty())
    assert prof.cuts == () and prof.cells == (None,)
    assert prof.max_positive_index() == 0


def test_value_at_every_breakpoint_is_the_point_value():
    p = extremal_family(3)  # its breakpoints include the seam angle 0.0
    full = index_profile(p, FULL)
    assert any(theta == 0.0 for theta, _ in _points(full))
    # the sector's polar arc runs from 3.7708 to 5.0124, both ends included
    sector = index_profile(p, omega_set(PlanarCone.sector(0.3, 1.9)))
    assert [theta for theta, _ in _points(sector)][0] == sector.domain.cuts[0]
    for prof in (full, sector):
        points = _points(prof)
        assert points
        for theta, value in points:
            assert prof.value_at_angle(theta) == value
            assert prof.value_at_angle(theta + TWO_PI) == value


def test_value_at_an_excluded_endpoint_is_none():
    p = fixtures.bouquet()
    dom = CircleSubset.arc(0.5, 2.5, False, True)
    prof = index_profile(p, dom)
    assert prof.value_at_angle(0.5) is None
    assert prof.value_at_angle(0.5 + 1e-10) is None
    assert prof.value_at_angle(0.6) == inertia(p.at(0.6))
    assert prof.value_at_angle(2.5) == inertia(p.at(2.5))
    assert prof.value_at_angle(3.0) is None


def test_identically_singular_profile_from_the_locus():
    p = fixtures.identically_singular_pair()
    prof = index_profile(p, FULL)
    mu = prof.max_positive_index()
    assert mu == 1
    om1 = superlevel(prof, 1)
    # i+ = 1 exactly where cos+sin > 0: an open half circle
    assert om1.n_components() == 1
    assert om1.contains(PI / 4)
    assert not om1.contains(PI)
    assert not om1.contains(3 * PI / 4)


def test_a_root_missing_from_the_candidates_raises_naming_its_arc():
    # dropping a root and its antipode from the locus merges the two arcs
    # beside each; a simple root between the merged arc's thirds makes them
    # read different inertia on the half circle the profile solves
    rng = np.random.default_rng(5)
    pencils = [extremal_family(4)]
    pencils += [fixtures.random_pencil(rng, dim) for dim in range(3, 13) for _ in range(3)]
    checked = 0
    for p in pencils:
        locus = degenerate_locus(p)
        angles, h = locus.angles, len(locus.points) // 2
        for k in range(1, h):
            a, r, b = angles[k - 1:k + 2]
            if locus.points[k].multiplicity != 1 or not (
                    a + (b - a) / 3 < r < a + 2 * (b - a) / 3):
                continue
            missing = replace(locus, points=tuple(
                pt for i, pt in enumerate(locus.points) if i not in (k, k + h)))
            with pytest.raises(NumericalError, match=re.escape(f"arc ({a}, {b})")):
                index_profile(p, FULL, missing)
            checked += 1
    assert checked > 20


def _corrupt_member(monkeypatch, member, counts):
    """Count every member by _sturm_inertia, with the counts of one member of
    the stack, by its index, replaced by counts(i_plus, i_minus)."""
    count = pencil._sturm_inertia

    def corrupted(p, thetas, *args):
        plus, minus = count(p, thetas, *args)
        plus[member], minus[member] = counts(int(plus[member]), int(minus[member]))
        return plus, minus

    monkeypatch.setattr(pencil, "COUNT_DIM", 0)
    monkeypatch.setattr(pencil, "_sturm_inertia", corrupted)


def test_a_corrupted_count_raises_naming_its_arc_or_breakpoint(monkeypatch):
    # the stack holds the solved points, then both thirds of each solved arc:
    # the first half of the breakpoints and arcs on the full circle, all of
    # them on an arc domain.  A third read one eigenvalue over from the other
    # third names its arc, both thirds and both readings; a point read above
    # an arc it bounds names the first such breakpoint, which on the full
    # circle is a solved one, at cut 0 against the antipode of the last
    # solved arc
    rng = np.random.default_rng(33)
    sector = omega_set(PlanarCone.sector(0.3, 1.9))
    cases = [(make(), FULL) for make in (fixtures.bouquet, fixtures.four_lines)]
    cases += [(extremal_family(4), FULL), (fixtures.random_pencil(rng, 6), FULL)]
    cases += [(extremal_family(4), sector), (fixtures.random_pencil(rng, 6), sector)]
    checked = seam = 0
    for p, domain in cases:
        prof = index_profile(p, domain)
        points, arcs = _points(prof), _arcs(prof)
        if domain.is_full():
            points, arcs = points[:len(points) // 2], arcs[:len(arcs) // 2]
        assert all(a < b < TWO_PI for a, b, _ in arcs)  # no solved arc across the seam
        dim, k = p.dim, len(points)
        for i, (a, b, v) in enumerate(arcs):
            plus, minus = v.i_plus, v.i_minus
            wrong = (plus + 1, minus - 1) if minus else (plus - 1, minus + 1)
            thirds = (a + (b - a) / 3.0, a + 2.0 * (b - a) / 3.0)
            for third in (0, 1):
                read = [(plus, minus, dim - plus - minus)] * 2
                read[third] = (*wrong, dim - plus - minus)
                message = (f"inertia changes inside the arc ({a}, {b}): {read[0]} at "
                           f"{thirds[0]}, {read[1]} at {thirds[1]}; "
                           "a root is missing from the locus")
                with monkeypatch.context() as m:
                    _corrupt_member(m, k + 2 * i + third, lambda *_: wrong)
                    with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
                        index_profile(p, domain)
                checked += 1
        # the first solved point is at cut 0 on the full circle; there it reads
        # the arc after it, where that exceeds the arc before it in one count
        after, before = prof.cells[1], prof.cells[-1]
        if domain.is_full() and (after.i_plus > before.i_plus or after.i_minus > before.i_minus):
            seam += 1
            with monkeypatch.context() as m:
                _corrupt_member(m, 0, lambda *_: (after.i_plus, after.i_minus))
                message = f"semicontinuity violated at breakpoint {prof.cuts[0]}"
                with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
                    index_profile(p, domain)
            checked += 1
        for i, (c, _) in enumerate(points):
            with monkeypatch.context() as m:
                _corrupt_member(m, i, lambda plus, minus: (plus + dim, minus))
                message = f"semicontinuity violated at breakpoint {c}"
                with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
                    index_profile(p, domain)
            checked += 1
    assert checked > 50 and seam >= 2


def test_a_profile_solves_its_domain_in_one_stacked_call(monkeypatch):
    # one eigvalsh stack below COUNT_DIM, one Sturm-counted pass from there on
    calls = []
    solve, count = pencil._eigvalsh, pencil._sturm_inertia

    def solved(stack):
        calls.append(stack.shape)
        return solve(stack)

    def counted(p, thetas, *args):
        calls.append((len(thetas), p.dim, p.dim))
        return count(p, thetas, *args)

    monkeypatch.setattr(pencil, "_eigvalsh", solved)
    monkeypatch.setattr(pencil, "_sturm_inertia", counted)
    cases = [(make(), omega_set(cone)) for make in SIX_FIXTURES for cone in ALL_CONES]
    # the bouquet's half circle of directions ending 1.1e-3 past a quadruple root
    cases.append((fixtures.bouquet(), open_half_circle(
        math.atan2(0.013175866519860812, 12.220942365392403))))
    rng = np.random.default_rng(8)
    cases += [(fixtures.random_pencil(rng, dim), omega_set(cone))
              for dim in (3, 5, 8, pencil.COUNT_DIM, 32) for cone in ALL_CONES]
    full_circles = arc_domains = 0
    for p, domain in cases:
        locus = degenerate_locus(p)
        calls.clear()
        prof = index_profile(p, domain, locus)
        assert len(calls) == min(1, domain.n_components()), (p.dim, domain)
        assert all(len(shape) == 3 for shape in calls)
        h = len(prof.breakpoint_angles()) // 2
        if domain.is_full() and h:
            # the breakpoints and both thirds of every arc of one half circle
            assert calls[0][0] == 3 * h, (p.dim, h)
            full_circles += 1
        elif not domain.is_full():
            # both thirds of every arc, and every point the profile records:
            # no unread edge is solved
            arcs = len(_arc_values(prof))
            assert sum(shape[0] for shape in calls) == 2 * arcs + len(_points(prof)), \
                (p.dim, domain)
            arc_domains += 1
    assert full_circles >= 5
    assert arc_domains >= 20


def test_the_mirrored_half_circle_equals_the_full_read_cell_by_cell():
    # the profile solves one half circle and mirrors the other, since
    # M(theta + pi) = -M(theta); reading every arc and breakpoint directly
    # must give the same inertia on every cell
    rng = np.random.default_rng(12)
    pencils = [make() for make in SIX_FIXTURES]
    pencils += [fixtures.random_pencil(rng, dim) for dim in (3, 4, 6, 9, 16, 24, 32, 48, 64)]
    pencils += [extremal_family(n) for n in (2, 3, 4, 5, 7, 10, 20, 40, 80)]
    mirrored = 0
    for p in pencils:
        prof = index_profile(p, FULL)
        bps = prof.breakpoint_angles()
        if not bps:
            continue
        # the locus the profile mirrors: ascending canonical angles more than
        # CLUSTER_TOL apart, across the seam too, in pairs half a turn apart
        assert bps == degenerate_locus(p).angles, p.dim
        h = len(bps) // 2
        assert len(bps) == 2 * h and bps == sorted(map(canonical_angle, bps)), p.dim
        assert all(b - a > CLUSTER_TOL for a, b in zip(bps, [*bps[1:], bps[0] + TWO_PI])), p.dim
        assert all(abs(bps[i + h] - bps[i] - PI) <= CLUSTER_TOL for i in range(h)), p.dim
        counts = list(zip(*family_counts(p, bps, p.scale())))
        assert [v[:2] for _, v in _points(prof)] == counts, p.dim
        arcs = list(zip(bps, [*bps[1:], bps[0] + TWO_PI]))
        assert [v[:2] for v in _arc_values(prof)] == list(zip(*_read_arcs(p, arcs)[:2])), p.dim
        mirrored += 1
    assert mirrored >= 20


# ---------------------------------------------------------------------------
# superlevel sets
# ---------------------------------------------------------------------------

def test_bouquet_superlevels():
    prof = index_profile(fixtures.bouquet(), FULL)
    om1 = superlevel(prof, 1)
    om2 = superlevel(prof, 2)
    om3 = superlevel(prof, 3)
    assert om1.is_full()
    poles = CircleSubset.point(PI / 2).union(CircleSubset.point(3 * PI / 2))
    assert subsets_equal(om2, poles.complement())
    assert om3.is_empty()
    assert superlevel(prof, 0).is_full()


def test_superlevel_nesting_random():
    rng = np.random.default_rng(2)
    for _ in range(30):
        dim = int(rng.integers(2, 8))
        p = fixtures.random_pencil(rng, dim)
        prof = index_profile(p, FULL)
        sets = [superlevel(prof, j) for j in range(0, dim + 2)]
        for a, b in zip(sets[1:], sets[:-1]):
            assert a.is_subset_of(b)
        assert sets[dim + 1].is_empty() or prof.max_positive_index() == dim + 1


def test_grid_agreement_random():
    rng = np.random.default_rng(4)
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        p = fixtures.random_pencil(rng, dim)
        prof = index_profile(p, FULL)
        bps = prof.breakpoint_angles()
        for th in np.linspace(0, TWO_PI, 160, endpoint=False):
            if bps and min(abs((th - b + PI) % TWO_PI - PI) for b in bps) < 1e-4:
                continue
            direct = inertia(p.at(th))
            j = direct.i_plus
            assert superlevel(prof, j).contains(th)
            assert not superlevel(prof, j + 1).contains(th)


def _range_rule_profiles():
    """Every cone on the eight named fixtures, extremal_family(1..11) and 60
    random pencils of dims 2-16."""
    rng = np.random.default_rng(5)
    pencils = [make() for make in SIX_FIXTURES]
    pencils += [fixtures.identically_singular_pair(), fixtures.definite_form(3)]
    pencils += [extremal_family(n) for n in range(1, 12)]
    pencils += [fixtures.random_pencil(rng, int(dim)) for dim in rng.integers(2, 17, 60)]
    for p in pencils:
        for cone in ALL_CONES:
            yield p, index_profile(p, omega_set(cone))


def _open_cell(cuts, i):
    """The open arc from cuts[i] to the next cut, bounded by the cuts themselves."""
    j = (i + 1) % len(cuts)
    start, end = (cuts[i], False, True), (cuts[j], False, False)
    return CircleSubset.from_steps([start] if i == j else sorted([start, end]))


def _held_cells(prof, keep):
    """The profile's points and open arcs whose value satisfies keep, as sets."""
    if not prof.cuts:
        held = prof.cells[0] is not None and keep(prof.cells[0])
        return [FULL] if held else []
    return [CircleSubset.point(c) for c, v in _points(prof) if keep(v)] + \
        [_open_cell(prof.cuts, i) for i, v in enumerate(prof.cells[1::2])
         if v is not None and keep(v)]


def test_range_rule_equals_the_union_of_cells():
    """Levels outside [nu, mu] (for i_minus, its own range) are the domain or
    empty without a pass over the cuts, and the levels between map the
    values to flags; the union of the held points and arcs is the reference."""
    checked = 0
    for p, prof in _range_rule_profiles():
        for j in range(0, p.dim + 2):
            for level, keep in ((superlevel(prof, j), lambda v: v.i_plus >= j),
                                (sublevel(prof, j), lambda v: v.i_minus <= j)):
                union = functools.reduce(CircleSubset.union, _held_cells(prof, keep),
                                         CircleSubset.empty())
                assert level.to_json() == union.to_json(), (p.dim, j)
                assert level.n_components() == union.n_components(), (p.dim, j)
                checked += 1
    assert checked > 9000


def test_the_level_table_equals_the_betti_numbers_of_every_superlevel_set():
    # one pass over the profile's cells against a CircleSubset per level, on
    # every level 0 .. dim + 1: the domain, the levels between nu and mu, and
    # the empty ones above
    rng = np.random.default_rng(26)
    pencils = [make() for make in SIX_FIXTURES]
    pencils += [fixtures.random_pencil(rng, dim) for dim in range(3, 17)]
    pencils += [extremal_family(n) for n in range(1, 11)]
    pencils += [fixtures.identically_singular_pair(),
                *(fixtures.kronecker_pair(eps, regular, rng)
                  for eps in (1, 2, 3) for regular in (0, 2, 5))]
    kinds = set()
    for p in pencils:
        for cone in ALL_CONES:
            filt = filtration_for_cone(p, cone)
            assert len(filt.betti_levels) == p.dim + 2
            for j in range(p.dim + 2):
                assert filt.betti_levels[j] == betti_circle(filt.omega(j)), (p.dim, cone, j)
            assert len(filt.betti_pairs) == p.dim + 1
            for j in range(p.dim + 1):
                assert filt.betti_pairs[j] == betti_pair(filt.omega(j), filt.omega(j + 1)), \
                    (p.dim, cone, j)
            kinds.update(filt.betti_levels)
    # full circles, empty sets and sets of several components all occur
    assert {(1, 1), (0, 0), (1, 0), (2, 0), (3, 0)} <= kinds


def _plus_rotating_block(p):
    """p plus the root-free block s*(diag(1, -1), [[0, 1], [1, 0]]), s the
    pencil's scale, so the zero band is unchanged.  The block has one positive
    and one negative eigenvalue at every angle, and its positive line bundle
    is a Moebius band."""
    s = p.scale()
    z = np.zeros((p.dim, 2))
    q0 = np.block([[p.q0, z], [z.T, s * np.diag([1.0, -1.0])]])
    q1 = np.block([[p.q1, z], [z.T, s * np.array([[0.0, 1.0], [1.0, 0.0]])]])
    return QuadraticPencil(q0, q1)


def test_root_free_block_shifts_the_filtration_up_by_one():
    rng = np.random.default_rng(61)
    pencils = [make() for make in SIX_FIXTURES]
    pencils += [fixtures.random_pencil(rng, dim) for dim in range(3, 13) for _ in range(5)]
    flips = 0
    for p in pencils:
        q = _plus_rotating_block(p)
        for cone in (PlanarCone.zero(), PlanarCone.sector(0.3, 1.9),
                     PlanarCone.halfplane(1.1)):
            a = filtration_for_cone(p, cone)
            b = filtration_for_cone(q, cone)
            assert (b.mu, b.nu) == (a.mu + 1, a.nu + 1), (p.dim, cone.kind)
            assert len(b.profile.cuts) == len(a.profile.cuts)
            for j in range(0, p.dim + 2):
                assert subsets_equal(b.omega(j + 1), a.omega(j)), (p.dim, cone.kind, j)
            if a.omega(a.mu).is_full():
                assert b.w1_nonzero != a.w1_nonzero
                flips += 1
            else:
                assert not b.w1_nonzero
    assert flips > 0


# ---------------------------------------------------------------------------
# the profile against exact arithmetic on the stored doubles
# ---------------------------------------------------------------------------

def test_bouquet_superlevel_matches_exact_inertia():
    # the bouquet's one root is the exact direction (0, 1); there, at its
    # antipode and at both arcs' midpoints the profile is the exact inertia,
    # and Omega^2 is the circle without the two points
    p = fixtures.bouquet()
    prof = index_profile(p, FULL)
    assert [v for _, v in _points(prof)] == [exact_inertia(p, 0.0, 1.0),
                                             exact_inertia(p, 0.0, -1.0)]
    for start, end, v in _arcs(prof):
        mid = 0.5 * (start + end)
        assert v == exact_inertia(p, math.cos(mid), math.sin(mid))
    assert betti_circle(superlevel(prof, 2)) == (2, 0)


def _random_and_named_pencils():
    """(pencil, whether its stored doubles are the intended input): random
    pencils of dims 2-6, the named fixtures, a definite form and the
    extremal family."""
    rng = np.random.default_rng(9)
    pencils = [(fixtures.random_pencil(rng, int(rng.integers(2, 7))), False)
               for _ in range(200)]
    pencils += [(make(), True) for make in SIX_FIXTURES]
    pencils += [(fixtures.identically_singular_pair(), True), (fixtures.definite_form(3), True)]
    pencils += [(extremal_family(n), False) for n in range(1, 9)]
    return pencils


def _random_pencils_at_dims_7_and_9():
    """12 random pencils each at dims 7 and 9, drawn from seeds whose
    eigenvalue curves have bumps and dips close to zero between roots."""
    pencils = []
    for seed, take_dim in ((4 * 7919, 7), (8 * 7919, 9)):
        rng = np.random.default_rng(seed)
        drawn = []
        while len(drawn) < 12:
            dim = int(rng.integers(2, 11))
            p = fixtures.random_pencil(rng, dim)
            if dim == take_dim:
                drawn.append(p)
        pencils += [(p, False) for p in drawn]
    return pencils


def _check_profile_against_exact_arithmetic(pencils):
    """Every arc of the full-circle profile reads the exact inertia of the
    stored doubles at its midpoint.  The float locus counts the exact roots
    where the input is exact or both loci are simple; where only the exact
    one is, a rounded multiple root may be clustered, and the counts with
    multiplicity still agree.  Where every root is simple the closed sublevel
    set {i_minus <= n - k} is the closure of the open superlevel set
    {i_plus >= k + 1}, so their Betti numbers agree.  Returns the number of
    arcs checked and of pencils with only simple roots."""
    arcs = simple = 0
    for p, exact_input in pencils:
        prof = index_profile(p, FULL)
        values = [(0.0, prof.cells[0])] if not prof.cuts else \
            [(0.5 * (start + end), v) for start, end, v in _arcs(prof)]
        for mid, v in values:
            assert v == exact_inertia(p, math.cos(mid), math.sin(mid)), (p.dim, mid)
            arcs += 1
        locus = degenerate_locus(p)
        counts = exact_locus_counts(p)
        if counts is None:
            assert locus.identically_singular
            continue
        found = (locus.real_projective_count(), len(locus.points) // 2, locus.theta_pairs)
        if exact_input or (counts.square_free and
                           all(pt.multiplicity == 1 for pt in locus.points)):
            assert found == counts[:3], (p.dim, found, counts)
        elif counts.square_free:
            assert (found[0], found[2]) == (counts.real, counts.theta_pairs), p.dim
        if counts.square_free and all(pt.multiplicity == 1 for pt in locus.points):
            simple += 1
            for k in range(p.dim):
                closed = sublevel(prof, p.n - k)
                open_ = superlevel(prof, k + 1)
                assert betti_circle(closed) == betti_circle(open_), (p.dim, k)
    return arcs, simple


def test_profile_arcs_equal_exact_inertia():
    arcs, simple = _check_profile_against_exact_arithmetic(_random_and_named_pencils())
    assert arcs > 900
    assert simple >= 200


def test_profile_arcs_equal_exact_inertia_at_dims_7_and_9():
    arcs, simple = _check_profile_against_exact_arithmetic(_random_pencils_at_dims_7_and_9())
    assert arcs > 100
    assert simple == 24


# ---------------------------------------------------------------------------
# monodromy / first Stiefel-Whitney class
# ---------------------------------------------------------------------------

def test_w1_complex_squaring_nonzero():
    p = fixtures.complex_squaring()
    prof = index_profile(p, FULL)
    w1, res, _ = stiefel_whitney(p, prof)
    assert w1 is True
    assert res >= 16


def test_w1_bouquet_zero():
    p = fixtures.bouquet()
    prof = index_profile(p, FULL)
    w1, _, reason = stiefel_whitney(p, prof)
    assert w1 is False
    assert "not the whole circle" in reason


def test_w1_doubled_squaring_zero():
    p = fixtures.doubled_squaring()
    prof = index_profile(p, FULL)
    w1, _, _ = stiefel_whitney(p, prof)
    assert w1 is False


def test_w1_tripled_squaring_nonzero():
    p = fixtures.tripled_squaring()
    prof = index_profile(p, FULL)
    w1, _, _ = stiefel_whitney(p, prof)
    assert w1 is True


def test_w1_padded_squaring_nonzero():
    # identically singular family with constant index one
    p = fixtures.padded_squaring()
    prof = index_profile(p, FULL)
    assert prof.max_positive_index() == 1
    w1, _, _ = stiefel_whitney(p, prof)
    assert w1 is True


def test_w1_start_resolution_past_the_cap_is_a_numerical_error():
    p = fixtures.complex_squaring()
    prof = index_profile(p, FULL)
    with pytest.raises(NumericalError, match="32768"):
        stiefel_whitney(p, prof, start_resolution=1 << 15)


def test_w1_stable_under_resolution_doubling():
    for p in [fixtures.complex_squaring(), fixtures.doubled_squaring()]:
        prof = index_profile(p, FULL)
        w1a, res, _ = stiefel_whitney(p, prof)
        w1b, _, _ = stiefel_whitney(p, prof, start_resolution=2 * res)
        w1c, _, _ = stiefel_whitney(p, prof, start_resolution=4 * res)
        assert w1a == w1b == w1c


# ---------------------------------------------------------------------------
# filtration report
# ---------------------------------------------------------------------------

def test_report_bouquet():
    rep = filtration_for_cone(fixtures.bouquet(), PlanarCone.zero())
    assert rep.mu == 2
    assert rep.nu == 1
    assert rep.omega(1).is_full()
    assert rep.omega(2).n_components() == 2
    assert rep.omega(3).is_empty()
    assert rep.w1_nonzero is False


def test_report_empty_domain():
    rep = filtration_for_cone(fixtures.bouquet(), PlanarCone.full())
    assert rep.mu == 0 and rep.nu == 0
    assert all(om.is_empty() for om in rep.omega_j)
    assert not rep.top_fills_circle and rep.w1_nonzero is False


def test_report_constant_index_bound():
    # constant index mu on the full circle must satisfy mu <= dim // 2
    rep = filtration_for_cone(fixtures.complex_squaring(), PlanarCone.zero())
    assert rep.mu == 1 and rep.nu == 1
    assert rep.w1_nonzero is True


def test_w1_reads_no_locus_for_a_regular_pencil(monkeypatch):
    # dim = 2 mu: a regular pencil with no real root has mu conjugate pairs
    def refuse(*args, **kwargs):
        raise AssertionError("the locus is not needed")

    for p, w1 in ((fixtures.complex_squaring(), True), (fixtures.doubled_squaring(), False),
                  (fixtures.tripled_squaring(), True)):
        rep = filtration_for_cone(p, PlanarCone.zero())
        monkeypatch.setattr(filtration, "degenerate_locus", refuse)
        assert rep.top_fills_circle and rep.w1_nonzero is w1
        monkeypatch.undo()


def test_w1_of_a_singular_pencil_needs_the_matching_rank_deficit():
    # padded_squaring reads i_zero = 1 = dim - 2 mu at every angle; a locus
    # with another rank deficit contradicts the profile
    rep = filtration_for_cone(fixtures.padded_squaring(), PlanarCone.zero())
    assert rep.w1_nonzero is True
    rep = replace(rep, locus=pencil.DegenerateLocus((), 1, 2))
    with pytest.raises(NumericalError, match="rank deficit is 2"):
        rep.w1_nonzero


def test_an_analysis_finds_the_locus_once(monkeypatch):
    # the profile and the orientation class of an identically singular
    # pencil whose top superlevel set fills the circle share one locus;
    # an empty domain needs none
    calls = []
    find = pencil.degenerate_locus

    def counted(*args):
        calls.append(args[0])
        return find(*args)

    for module in (filtration, betti):
        monkeypatch.setattr(module, "degenerate_locus", counted)
    rng = np.random.default_rng(1)
    kronecker = [fixtures.kronecker_pair(eps, 2, rng) for eps in (1, 2, 3)][-1]
    for p, cone, expected in ((fixtures.padded_squaring(), PlanarCone.zero(), 1),
                              (kronecker, PlanarCone.zero(), 1),
                              (kronecker, PlanarCone.full(), 0)):
        calls.clear()
        res = betti.analyze(p, cone)
        if expected:
            assert res.filtration.top_fills_circle and res.filtration.mu < p.dim / 2
        assert len(calls) == expected, (p.dim, cone.kind)


def test_report_cone_restricts_domain():
    # quadrant cone: domain is a quarter arc
    p = fixtures.definite_form(3)
    rep = filtration_for_cone(p, PlanarCone.nonpositive_quadrant())
    assert rep.mu == 3
    dom = rep.profile.domain
    assert dom.contains(0.0) and dom.contains(PI / 2)
    assert not dom.contains(PI)


def test_filtration_extremes_consistency_random():
    rng = np.random.default_rng(44)
    for _ in range(40):
        dim = int(rng.integers(2, 8))
        p = fixtures.random_pencil(rng, dim)
        rep = filtration_for_cone(p, PlanarCone.zero())
        assert 0 <= rep.nu <= rep.mu <= dim
        assert not rep.omega(rep.mu).is_empty()
        assert rep.omega(rep.mu + 1).is_empty()
        if rep.nu > 0:
            assert rep.omega(rep.nu).is_full()


def test_antipodal_identity_on_profiles():
    rng = np.random.default_rng(31)
    for _ in range(10):
        dim = int(rng.integers(2, 7))
        p = fixtures.random_pencil(rng, dim)
        for th in rng.uniform(0, TWO_PI, 16):
            a = inertia(p.at(th))
            b = inertia(p.at(th + PI))
            assert a.i_plus + b.i_plus + a.i_zero == dim
