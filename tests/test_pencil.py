import copy
import math
from functools import partial

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quadrics import fixtures, pencil
from quadrics.applications import extremal_family
from quadrics.betti import analyze, check_bounds
from quadrics.circle import CircleSubset, PlanarCone, canonical_angle
from quadrics.errors import InvalidInputError, NumericalError
from quadrics.filtration import index_profile
from quadrics.oracles import grid_index_profile, grid_profile_disagreements
from quadrics.pencil import (
    TOL_EIG,
    DegenerateLocus,
    InertiaTriple,
    QuadraticPencil,
    degenerate_locus,
    inertia,
    lapack,
)
from references import sylvester_check

PI = math.pi
TWO_PI = 2 * math.pi


# ---------------------------------------------------------------------------
# inertia
# ---------------------------------------------------------------------------

def test_inertia_identity():
    assert inertia(np.eye(4)) == InertiaTriple(4, 0, 0)


def test_inertia_zero_matrix():
    assert inertia(np.zeros((4, 4))) == InertiaTriple(0, 0, 4)


def test_inertia_bouquet_at_vertical():
    m = fixtures.bouquet().at(PI / 2)
    assert inertia(m) == InertiaTriple(1, 1, 2)


def test_inertia_negation_swaps_signs():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.standard_normal((5, 5))
        m = a + a.T
        i1 = inertia(m)
        i2 = inertia(-m)
        assert i1.i_plus == i2.i_minus
        assert i1.i_minus == i2.i_plus
        assert i1.i_zero == i2.i_zero


def test_inertia_rejects_asymmetric():
    with pytest.raises(InvalidInputError):
        inertia(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_at_examples():
    p = fixtures.definite_form(3)
    assert np.allclose(p.at(0.0), np.eye(3))
    assert np.allclose(p.at(PI), -np.eye(3))
    b = fixtures.bouquet()
    assert np.allclose(b.at(PI / 2), b.q1)


def test_sylvester_law():
    rng = np.random.default_rng(42)
    assert sylvester_check(np.diag([1.0, -1.0]), rng.standard_normal((2, 2)) + 3 * np.eye(2))
    assert sylvester_check(np.eye(3), 2 * np.eye(3))
    count = 0
    while count < 500:
        dim = int(rng.integers(1, 11))
        a = rng.standard_normal((dim, dim))
        m = a + a.T
        t = rng.standard_normal((dim, dim))
        if abs(np.linalg.det(t)) < 1e-3:
            continue
        assert sylvester_check(m, t)
        count += 1


@settings(max_examples=150, deadline=None)
@given(arrays(np.float64, (4, 4),
              elements=st.floats(-10, 10, allow_nan=False)))
def test_inertia_triple_sums_to_dim(a):
    m = a + a.T
    t = inertia(m)
    assert t.i_plus + t.i_minus + t.i_zero == 4
    neg = inertia(-m)
    assert (t.i_plus, t.i_minus) == (neg.i_minus, neg.i_plus)


@settings(max_examples=100, deadline=None)
@example(np.full((3, 3), 5e-324), 0.25)
@given(arrays(np.float64, (3, 3), elements=st.floats(-5, 5, allow_nan=False)),
       st.floats(0.1, 4.0))
def test_inertia_scaling_invariance(a, factor):
    m = a + a.T
    # factor * m is a multiple of m only if no nonzero entry rounds to zero;
    # the example's 1e-323 entries times 0.25 round to 0.0, leaving the zero
    # matrix, whose inertia rightly differs
    assume(np.array_equal(factor * m != 0, m != 0))
    assert inertia(m) == inertia(factor * m)


# ---------------------------------------------------------------------------
# degenerate locus
# ---------------------------------------------------------------------------

def _angles_within(a, b, tol):
    """Whether two angles agree modulo 2*pi within tol."""
    d = abs(canonical_angle(a) - canonical_angle(b))
    return d <= tol or TWO_PI - d <= tol


def _angle_set(locus):
    return sorted(p.theta for p in locus.points)


def test_locus_bouquet():
    loc = degenerate_locus(fixtures.bouquet())
    assert not loc.identically_singular
    assert len(loc.points) == 2
    assert _angles_within(loc.points[0].theta, PI / 2, 1e-7)
    assert _angles_within(loc.points[1].theta, 3 * PI / 2, 1e-7)
    # det = cos^4: a single projective root of multiplicity four, no
    # non-real roots
    assert loc.points[0].multiplicity == 4
    assert loc.theta_pairs == 0
    assert loc.real_projective_count() + 2 * loc.theta_pairs == 4


def test_locus_definite_form():
    p = fixtures.definite_form(4)
    loc = degenerate_locus(p)
    assert len(loc.points) == 2
    assert _angles_within(loc.points[0].theta, PI / 2, 1e-7)
    assert loc.points[0].multiplicity == 4


def test_locus_four_lines():
    loc = degenerate_locus(fixtures.four_lines())
    assert len(loc.points) == 4
    expected = [0.0, PI / 2, PI, 3 * PI / 2]
    for pt, exp in zip(loc.points, expected):
        assert _angles_within(pt.theta, exp, 1e-6)
        assert pt.multiplicity == 2
    assert loc.theta_pairs == 0


def test_locus_complex_squaring_no_real_roots():
    loc = degenerate_locus(fixtures.complex_squaring())
    assert loc.points == ()
    assert loc.theta_pairs == 1


def test_locus_identically_singular():
    # M(theta) = (cos + sin) diag(1, 0) has normal rank one and drops to
    # zero where cos + sin vanishes
    loc = degenerate_locus(fixtures.identically_singular_pair())
    assert loc.identically_singular and loc.rank_deficit == 1
    assert len(loc.points) == 2
    assert _angles_within(loc.points[0].theta, 3 * PI / 4, 1e-7)
    assert _angles_within(loc.points[1].theta, 7 * PI / 4, 1e-7)
    assert loc.theta_pairs == 0


def test_locus_rank_deficit_is_dim_minus_the_normal_rank():
    rng = np.random.default_rng(5)
    assert degenerate_locus(fixtures.random_pencil(rng, 5)).rank_deficit == 0
    assert degenerate_locus(fixtures.padded_squaring()).rank_deficit == 1
    assert degenerate_locus(fixtures.kronecker_pair(2, 3, rng)).rank_deficit == 1
    assert degenerate_locus(_shared_kernel(rng, 8, 2)).rank_deficit == 2
    zero = degenerate_locus(QuadraticPencil(np.zeros((4, 4)), np.zeros((4, 4))))
    assert zero.rank_deficit == 4 and zero.points == ()


def test_locus_antipodal_symmetry_random():
    rng = np.random.default_rng(3)
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        p = fixtures.random_pencil(rng, dim)
        loc = degenerate_locus(p)
        assert not loc.identically_singular
        angs = loc.angles
        for a in angs:
            assert any(_angles_within(a + PI, b, 1e-6) for b in angs)
        # projective root count plus conjugate pairs accounts for the degree
        assert loc.real_projective_count() + 2 * loc.theta_pairs == dim


def test_locus_roots_really_vanish():
    rng = np.random.default_rng(5)
    for _ in range(25):
        dim = int(rng.integers(2, 8))
        p = fixtures.random_pencil(rng, dim)
        for pt in degenerate_locus(p).points:
            m = p.at(pt.theta)
            w = np.linalg.eigvalsh(m)
            assert np.min(np.abs(w)) < 1e-7 * p.scale()


# ---------------------------------------------------------------------------
# unit jumps at simple roots
# ---------------------------------------------------------------------------

def test_jump_law_many_random_pencils():
    # exactly one eigenvalue changes sign across a simple root, so i_minus
    # changes by one and the root itself reads one zero
    rng = np.random.default_rng(123)
    simple = 0
    for _ in range(200):
        dim = int(rng.integers(2, 10))
        p = fixtures.random_pencil(rng, dim)
        locus = degenerate_locus(p)
        prof = index_profile(p, CircleSubset.full_circle())
        assert list(prof.cuts) == locus.angles
        for i, pt in enumerate(locus.points):
            if pt.multiplicity == 1:
                after = prof.cells[1::2]
                assert abs(after[i].i_minus - after[i - 1].i_minus) == 1, (dim, i)
                assert prof.cells[2 * i].i_zero == 1, (dim, i)
                simple += 1
    assert simple > 900


def test_antipodal_index_identity():
    rng = np.random.default_rng(17)
    for _ in range(30):
        dim = int(rng.integers(2, 8))
        p = fixtures.random_pencil(rng, dim)
        for theta in rng.uniform(0, TWO_PI, size=8):
            it = inertia(p.at(theta))
            it2 = inertia(p.at(theta + PI))
            assert it.i_plus + it2.i_plus + it.i_zero == dim
            assert it.i_zero == it2.i_zero


# ---------------------------------------------------------------------------
# random pencils past dim 20, where the determinant spans many decades
# ---------------------------------------------------------------------------

def _seeded_pencils(dim, count):
    rng = np.random.default_rng(dim)
    return [fixtures.random_pencil(rng, dim) for _ in range(count)]


def _arc_thirds_i_plus(p, locus):
    """i_plus, sampled directly, at both thirds of each arc after a point."""
    pts = locus.points
    thetas = []
    for i, pt in enumerate(pts):
        nxt = pts[(i + 1) % len(pts)].theta + (TWO_PI if i == len(pts) - 1 else 0.0)
        thetas += [pt.theta + (nxt - pt.theta) / 3, pt.theta + 2 * (nxt - pt.theta) / 3]
    w = np.linalg.eigvalsh(np.array([p.at(t) for t in thetas]))
    plus = np.sum(w > TOL_EIG * p.scale(), axis=1)
    return plus[0::2].tolist(), plus[1::2].tolist()


@pytest.mark.parametrize("dim", [24, 32, 48, 64])
def test_high_dim_locus_and_analysis(dim):
    for p in _seeded_pencils(dim, 5):
        loc = degenerate_locus(p)
        assert loc.real_projective_count() + 2 * loc.theta_pairs == dim
        first, second = _arc_thirds_i_plus(p, loc)
        # no root is missed inside an arc, and each simple root is a unit jump
        assert first == second
        for i, pt in enumerate(loc.points):
            if pt.multiplicity == 1:
                assert abs(first[i] - first[i - 1]) == 1, (i, pt)
        res = analyze(p, PlanarCone.zero())
        grid = grid_index_profile(p)
        assert grid_profile_disagreements(res.filtration.profile, grid) == []
        assert check_bounds(res.report) == []


# ---------------------------------------------------------------------------
# locus angles straight from QZ, and congruence invariance
# ---------------------------------------------------------------------------

def _congruent(p, rng, cond):
    """The pair (T'Q0T, T'Q1T) for a random T with condition number cond."""
    d = p.dim
    u, _ = np.linalg.qr(rng.standard_normal((d, d)))
    v, _ = np.linalg.qr(rng.standard_normal((d, d)))
    t = u @ np.diag(np.logspace(0.0, -math.log10(cond), d)) @ v
    return QuadraticPencil(t.T @ p.q0 @ t, t.T @ p.q1 @ t)


def _near_double_root(rng, dim, sep):
    """An orthogonally rotated diagonal pair with two roots sep apart."""
    ang = rng.uniform(0.0, PI, dim)
    ang[1] = ang[0] + sep
    sign = rng.choice([-1.0, 1.0], dim)
    u, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    q0 = u.T @ np.diag(sign * np.cos(ang)) @ u
    q1 = u.T @ np.diag(sign * np.sin(ang)) @ u
    return QuadraticPencil(0.5 * (q0 + q0.T), 0.5 * (q1 + q1.T))


def _locus_test_pencils():
    rng = np.random.default_rng(6)
    for dim in (3, 4, 5, 6, 8, 12, 16, 24, 32, 48, 64):
        for _ in range(2):
            yield fixtures.random_pencil(rng, dim)
    for cond in (1e2, 1e3, 1e4):
        for dim in (4, 8, 12, 16):
            for _ in range(2):
                yield _congruent(fixtures.random_pencil(rng, dim), rng, cond)
    for sep in (1e-5, 1e-4, 1e-3):
        for dim in (4, 8, 16):
            yield _near_double_root(rng, dim, sep)
    for n in (2, 10, 20, 40, 80):
        yield extremal_family(n)


def test_simple_locus_angles_are_degenerate_as_qz_gives_them():
    # the locus uses QZ's angles unrefined: at each simple point the smallest
    # eigenvalue must sit far inside the profile's zero band TOL_EIG * scale
    checked = 0
    for p in _locus_test_pencils():
        thetas = [pt.theta for pt in degenerate_locus(p).points if pt.multiplicity == 1]
        if not thetas:
            continue
        w = np.linalg.eigvalsh(p.at_many(thetas))
        assert np.max(np.min(np.abs(w), axis=1)) <= 1e-3 * TOL_EIG * p.scale()
        checked += len(thetas)
    assert checked > 500


def _shared_kernel(rng, dim, k):
    """A random pencil whose two forms both vanish on a random k-plane."""
    p = fixtures.random_pencil(rng, dim)
    v, _ = np.linalg.qr(rng.standard_normal((dim, k)))
    proj = np.eye(dim) - v @ v.T
    a, b = proj @ p.q0 @ proj, proj @ p.q1 @ proj
    return QuadraticPencil(0.5 * (a + a.T), 0.5 * (b + b.T))


def _assert_same_answers(p, q, cones):
    for cone in cones:
        a, b = analyze(p, cone), analyze(q, cone)
        assert (a.report.b, a.table.w1_nonzero) == \
            (b.report.b, b.table.w1_nonzero), (p.dim, cone.kind)


@pytest.mark.parametrize("cond", [1.0, 1e2, 1e3])
def test_analysis_invariant_under_congruence(cond):
    # T'QT has the same solution set up to a linear change of coordinates
    rng = np.random.default_rng(11)
    for _ in range(30):
        p = fixtures.random_pencil(rng, int(rng.integers(4, 17)))
        _assert_same_answers(p, _congruent(p, rng, cond), [PlanarCone.zero()])
    # a rotation of the bouquet makes QZ split its quadruple root at pi/2
    # into the root, a real root 1-3e-6 away and a complex pair; both real
    # roots must stay breakpoints
    rng = np.random.default_rng(31)
    cones = (PlanarCone.zero(), PlanarCone.line(2.0), PlanarCone.sector(0.3, 1.9),
             PlanarCone.halfplane(1.1))
    pencils = [make() for make in fixtures.NAMED_FIXTURES.values()]
    for p in pencils + [extremal_family(n) for n in (3, 5, 7)]:
        for _ in range(10):
            _assert_same_answers(p, _congruent(p, rng, cond), cones)


@pytest.mark.parametrize("factor", [1e-6, 1e6])
def test_rescaling_both_forms_keeps_b_and_w1(factor):
    # every tolerance is relative to the pencil's scale
    rng = np.random.default_rng(17)
    cones = (PlanarCone.zero(), PlanarCone.line(2.0), PlanarCone.sector(0.3, 1.9),
             PlanarCone.halfplane(1.1))
    pencils = [make() for make in fixtures.NAMED_FIXTURES.values()]
    pencils += [extremal_family(n) for n in (3, 5, 7, 12)]
    pencils += [fixtures.random_pencil(rng, int(rng.integers(3, 17))) for _ in range(30)]
    pencils += [fixtures.kronecker_pair(int(rng.integers(1, 4)), int(rng.integers(0, 6)), rng)
                for _ in range(30)]
    for p in pencils:
        _assert_same_answers(p, QuadraticPencil(factor * p.q0, factor * p.q1), cones)


def _rotated_cone(cone, angle):
    if cone.kind in ("zero", "full"):
        return cone
    if cone.kind == "line":
        return PlanarCone.line(cone.start + angle)
    return PlanarCone(cone.kind, canonical_angle(cone.start + angle), cone.sweep)


# the float one ulp below pi; PI - _BELOW_PI is that ulp
_BELOW_PI = math.nextafter(PI, 0.0)


@pytest.mark.parametrize("alpha", [0.0, PI / 2, PI, _BELOW_PI, -_BELOW_PI, PI - _BELOW_PI,
                                   -(PI - _BELOW_PI), 1e-9, 0.7, 2.3, 4.0])
def test_analysis_invariant_under_rotation_of_the_pencil_plane(alpha):
    # (cos a Q0 + sin a Q1, -sin a Q0 + cos a Q1) has the family M(theta + a),
    # and its map is q rotated by -a, so with the cone rotated by -a the
    # solution set is the same.  extremal_family(3) has roots at 0, pi/2, pi
    # and 3pi/2: a = 0 keeps a root exactly at 0, and a = pi - _BELOW_PI
    # moves them an ulp back, so QZ finds roots a few ulps below pi and below
    # 2pi, at the seam, and the profile must still pair them antipodally
    c, s = math.cos(alpha), math.sin(alpha)
    rng = np.random.default_rng(41)
    pencils = [make() for make in fixtures.NAMED_FIXTURES.values()]
    pencils += [extremal_family(n) for n in (3, 4, 5, 7)]
    pencils += [fixtures.random_pencil(rng, dim) for dim in (3, 5, 8, 12)]
    cones = (PlanarCone.zero(), PlanarCone.ray(0.7), PlanarCone.line(2.0),
             PlanarCone.sector(0.3, 1.9), PlanarCone.halfplane(1.1))
    for p in pencils:
        q = QuadraticPencil(c * p.q0 + s * p.q1, -s * p.q0 + c * p.q1)
        for cone in cones:
            a, b = analyze(p, cone), analyze(q, _rotated_cone(cone, -alpha))
            assert (a.report.b, a.table.w1_nonzero) == \
                (b.report.b, b.table.w1_nonzero), (p.dim, cone.kind)


# ---------------------------------------------------------------------------
# serialization and validation
# ---------------------------------------------------------------------------

def test_pencil_json_roundtrip():
    p = fixtures.bouquet()
    p2 = QuadraticPencil.from_json(p.to_json())
    assert np.array_equal(p.q0, p2.q0)
    assert np.array_equal(p.q1, p2.q1)
    assert p2.n == 3


def test_pencil_rejects_mismatched_dims():
    with pytest.raises(InvalidInputError):
        QuadraticPencil(np.eye(3), np.eye(4))


def test_pencil_rejects_empty_forms():
    with pytest.raises(InvalidInputError, match="Q0 must be a non-empty square matrix"):
        QuadraticPencil(np.zeros((0, 0)), np.zeros((0, 0)))
    with pytest.raises(InvalidInputError, match="non-empty square matrix"):
        inertia(np.zeros((0, 0)))


def test_pencil_rejects_asymmetric():
    m = np.zeros((3, 3))
    m[0, 1] = 1.0
    with pytest.raises(InvalidInputError):
        QuadraticPencil(m, np.zeros((3, 3)))


def test_pencil_rejects_bad_n():
    data = fixtures.bouquet().to_json()
    data["n"] = 7
    with pytest.raises(InvalidInputError):
        QuadraticPencil.from_json(data)


def test_an_integer_past_the_float_range_is_invalid_input():
    # JSON reads 10**400 as a Python int, which float() cannot hold
    huge = [[1, 0], [0, 10 ** 400]]
    with pytest.raises(InvalidInputError, match="float range"):
        QuadraticPencil(huge, np.eye(2))
    with pytest.raises(InvalidInputError, match="float range"):
        QuadraticPencil.from_json({"n": 1, "Q0": np.eye(2).tolist(), "Q1": huge})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pencil_rejects_non_finite_entries(bad):
    # max|a - a'| is nan for a nan entry, and nan > tol is False
    for entry in ((0, 0), (0, 1)):
        m = np.eye(3)
        m[entry] = m[entry[::-1]] = bad
        with pytest.raises(InvalidInputError, match="non-finite"):
            QuadraticPencil(m, np.eye(3))
        with pytest.raises(InvalidInputError, match="non-finite"):
            QuadraticPencil(np.eye(3), m)
        with pytest.raises(InvalidInputError, match="non-finite"):
            inertia(m)


def _scaled_to(p: QuadraticPencil, top: float) -> QuadraticPencil:
    """p times the largest factor that keeps every entry at most top."""
    m = max(np.max(np.abs(p.q0)), np.max(np.abs(p.q1)))
    s = top / m
    while m * s > top:
        s = np.nextafter(s, 0.0)
    return QuadraticPencil(p.q0 * s, p.q1 * s)


def test_entries_up_to_the_bound_give_the_answer_and_past_it_are_rejected():
    # past 2^1020 / dim scale() could overflow: at the bound these pencils
    # give their unscaled b and chi; scaled to entries of 8.9e307, seven of
    # the twenty random ones gave wrong ones without raising
    rng = np.random.default_rng(3)
    pencils = [fixtures.random_pencil(rng, d) for d in (4, 6, 9, 12, 16) for _ in range(4)]
    pencils += [fixtures.bouquet(), fixtures.four_lines(), fixtures.tripled_squaring(),
                extremal_family(5)]
    zero = PlanarCone.zero()
    for p in pencils:
        bound = pencil.ENTRY_BOUND / p.dim
        ref = analyze(p, zero)
        at = _scaled_to(p, bound)
        assert max(np.max(np.abs(at.q0)), np.max(np.abs(at.q1))) >= (1 - 1e-15) * bound
        res = analyze(at, zero)
        assert (res.report.b, res.chi) == (ref.report.b, ref.chi)
        past = at.q0.copy()
        past[0, 0] = -bound
        assert QuadraticPencil(past, past).q0[0, 0] == -bound
        for top in (np.nextafter(bound, math.inf), 7e307, 8.9e307):
            past[0, 0] = -top
            with pytest.raises(InvalidInputError, match=r"Q0 has an entry above 2\^1020"):
                QuadraticPencil(past, at.q1)
            with pytest.raises(InvalidInputError, match=r"Q1 has an entry above 2\^1020"):
                QuadraticPencil(at.q0, past)
    # the spectral norm reaches dim times the largest entry, and stays finite
    q0, q1 = np.ones((8, 8)), np.diag(np.linspace(-1.0, 1.0, 8))
    top = QuadraticPencil(q0 * (pencil.ENTRY_BOUND / 8), q1 * (pencil.ENTRY_BOUND / 8))
    assert top.scale() == pencil.ENTRY_BOUND
    assert analyze(top, zero).report.b == analyze(QuadraticPencil(q0, q1), zero).report.b
    # 0.5 * (a + a') overflowed here and stored inf
    with pytest.raises(InvalidInputError, match=r"above 2\^1020 / dim"):
        QuadraticPencil(np.diag([1e308, 1.0, -1.0]), np.eye(3))


def test_shifted_equals_the_checked_constructor_bitwise():
    rng = np.random.default_rng(5)
    pencils = [fixtures.bouquet(), fixtures.four_lines(), extremal_family(6),
               *(fixtures.random_pencil(rng, d) for d in (3, 5, 8))]
    for p in pencils:
        eye = np.eye(p.dim)
        for c0, c1 in [(0.0, 0.0), (-0.0, 0.5), (-1.25, 3.0), (1e300, -1e-300),
                       tuple(rng.normal(size=2))]:
            shifted = p.shifted(c0, c1)
            checked = QuadraticPencil(p.q0 - c0 * eye, p.q1 - c1 * eye)
            for form, ref in ((shifted.q0, checked.q0), (shifted.q1, checked.q1)):
                assert form.dtype == ref.dtype and form.tobytes() == ref.tobytes()
                assert not form.flags.writeable
            assert shifted.scale() == checked.scale()
    p = fixtures.bouquet()
    for c in [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)]:
        with pytest.raises(InvalidInputError, match="non-finite"):
            p.shifted(*c)
    # the bound for dim 4 is 2^1018; the diagonal of q0 is (0, 1, 0, -1)
    big = 2.0 ** 1018
    assert p.shifted(big, 0.0).q0[0, 0] == -big
    for c in [(np.nextafter(big, math.inf), 0.0), (0.0, -2.0 * big),
              (-np.finfo(float).max, 0.0), (np.finfo(float).max, 0.0)]:
        with pytest.raises(InvalidInputError, match=r"above 2\^1020 / dim"):
            p.shifted(*c)


def test_a_lapack_failure_in_a_pencil_solve_is_a_numerical_error(monkeypatch):
    # the chart scan solves single matrices, and the profile's arc readings
    # solve stacks; the deflation of a singular pencil to its regular part
    # runs dgesdd
    solve = np.linalg.eigvalsh

    def fail_on(ndim):
        def eigvalsh(a):
            if np.ndim(a) == ndim:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return solve(a)
        return eigvalsh

    p = fixtures.random_pencil(np.random.default_rng(4), 5)
    cases = [(2, lambda: degenerate_locus(p), "eigenvalue solver failed"),
             (3, lambda: index_profile(p, CircleSubset.full_circle()),
              "eigenvalue solver failed")]
    for ndim, call, message in cases:
        monkeypatch.setattr(np.linalg, "eigvalsh", fail_on(ndim))
        with pytest.raises(NumericalError, match=message):
            call()
    monkeypatch.undo()

    dgesdd = lapack.dgesdd

    def failing(*args, **kwargs):
        return (*dgesdd(*args, **kwargs)[:-1], 1)  # info > 0: the SVD did not converge

    singular = fixtures.identically_singular_pair()
    singular.scale()  # kept, so that only the deflation's SVDs run
    monkeypatch.setattr(lapack, "dgesdd", failing)
    with pytest.raises(NumericalError, match="singular value solver failed: dgesdd info 1"):
        degenerate_locus(singular)


def test_a_failed_spectral_norm_is_a_numerical_error(monkeypatch):
    dgesdd = lapack.dgesdd

    def failing(*args, **kwargs):
        return (*dgesdd(*args, **kwargs)[:-1], 1)  # info > 0: the SVD did not converge

    monkeypatch.setattr(lapack, "dgesdd", failing)
    with pytest.raises(NumericalError, match="singular value solver failed: dgesdd info 1"):
        fixtures.random_pencil(np.random.default_rng(4), 5).scale()


def test_spectral_norm_equals_numpy_norm_bitwise():
    # dgesdd with its optimal workspace is what np.linalg.norm(q, 2) runs;
    # from dim 129 the wrapper's default workspace changes the bidiagonal
    # reduction's blocking and the last bits
    rng = np.random.default_rng(18)
    matrices = []
    for dim in (*range(1, 65), 129, 200):
        a = rng.standard_normal((dim, dim))
        matrices += [a + a.T, 1e150 * (a + a.T), 1e-150 * (a + a.T)]
    u = rng.standard_normal((9, 4))
    matrices += [np.zeros((1, 1)), np.zeros((6, 6)), u @ np.diag([3.0, -2.0, 1.0, 0.5]) @ u.T]
    for q in matrices:
        assert pencil._spectral_norm(q) == np.linalg.norm(q, 2), q.shape


def _eigvals_root_angles(a, b):
    """The reference for _qz_root_angles: the same reading of scipy.linalg.eigvals,
    one root at a time."""
    alpha, beta = scipy.linalg.eigvals(a, -b, homogeneous_eigvals=True)
    angles, nonreal = [], 0
    for al, be in zip(alpha.tolist(), beta.real.tolist()):
        if abs(al.imag) <= pencil.IMAG_TOL * (abs(be) + abs(al.real)):
            angles.append(math.atan2(al.real, be))
        else:
            nonreal += 1
    return angles, nonreal


def _bits(angles):
    return np.array(angles, dtype=float).view(np.uint64).tolist()


def test_qz_root_angles_equal_scipy_eigvals_bitwise(monkeypatch):
    # every pair the locus hands to QZ: chart pairs of random pencils, and the
    # regular parts of Kronecker pencils.  A diagonal pencil regular at the
    # chart origin, as the extremal family and every dim-1 pencil are, reaches
    # no QZ solve; test_a_diagonal_pencil_reads_the_roots_qz_gives_it checks
    # the read against QZ on such chart pairs
    pairs = []
    solve = pencil._qz_root_angles

    def record(a, b):
        pairs.append((a.copy(), b.copy()))
        return solve(a, b)

    rng = np.random.default_rng(14)
    calls = [partial(degenerate_locus, fixtures.random_pencil(rng, dim))
             for dim in range(1, 65)]
    calls += [partial(degenerate_locus, fixtures.kronecker_pair(eps, regular_dim, rng))
              for eps in (1, 2, 3) for regular_dim in (0, 2, 5)]
    monkeypatch.setattr(pencil, "_qz_root_angles", record)
    for call in calls:
        call()
    monkeypatch.undo()
    dims = {a.shape[0] for a, _ in pairs}
    assert set(range(2, 65)) <= dims
    for a, b in pairs:
        angles, nonreal = solve(a, b)
        expected, expected_nonreal = _eigvals_root_angles(a, b)
        assert nonreal == expected_nonreal
        assert _bits(angles) == _bits(expected)


def _diagonal_pencils() -> list[QuadraticPencil]:
    """extremal_family(1..80), four_lines, and seeded random diagonal pencils:
    small integers, magnitudes from 1e-8 to 1e8, parallel (a_i, b_i), which
    make multiple roots, and zero entries."""
    out = [extremal_family(n) for n in range(1, 81)] + [fixtures.four_lines()]
    rng = np.random.default_rng(36)
    for _ in range(60):
        dim = int(rng.integers(1, 41))
        ints = rng.integers(-3, 4, (2, dim)).astype(float)
        spread = rng.standard_normal((2, dim)) * 10.0 ** rng.uniform(-8.0, 8.0, (2, dim))
        parallel = (rng.integers(-3, 4, (2, 3))[:, rng.integers(0, 3, dim)]
                    * rng.integers(1, 4, dim)).astype(float)
        sparse = np.where(rng.random((2, dim)) < 0.3, 0.0, rng.standard_normal((2, dim)))
        out += [QuadraticPencil(np.diag(a), np.diag(b)) for a, b in (ints, spread, parallel, sparse)]
    return out


def test_a_diagonal_pencil_reads_the_roots_qz_gives_it():
    # the read against the scan and QZ solve of the same pencil: the same
    # chart angle, and on that chart pair the same root angles bit for bit,
    # in QZ's order.  A pencil whose first chart member lacks full rank is
    # not read, and the scan moves on or deflates
    read, scanned, dims = 0, 0, set()
    for p in _diagonal_pencils():
        s = p.scale()
        if s == 0.0:
            continue
        phi, roots, nonreal, k = pencil._chart_roots(p, s)
        diagonal = pencil._diagonal_roots(p, s)
        if diagonal is None:
            assert k > 0 or phi != PI * 0.5 / (p.dim + 1)
            scanned += 1
            continue
        assert diagonal[0] == phi and diagonal[2:] == (nonreal, k) == (0, 0)
        assert _bits(diagonal[1]) == _bits(roots), p.dim
        read += 1
        dims.add(p.dim)
    assert read > 150 and scanned > 50 and {1, 2, 81} <= dims, (read, scanned, sorted(dims))


def test_a_regular_diagonal_pencil_is_analyzed_without_a_solve(monkeypatch):
    # its locus and its member counts are read, under every cone kind; a
    # diagonal pencil singular at the first chart angle still scans and solves
    calls = []

    def counted(name, solve):
        def call(*args, **kwargs):
            calls.append(name)
            return solve(*args, **kwargs)
        return call

    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(lapack, "dggev", counted("dggev", lapack.dggev))
    monkeypatch.setattr(lapack, "dsytrd", counted("dsytrd", lapack.dsytrd))
    cones = (PlanarCone.zero(), PlanarCone.full(), PlanarCone.ray(0.3), PlanarCone.line(1.0),
             PlanarCone.sector(0.2, 2.0), PlanarCone.halfplane(4.0))
    regular = [extremal_family(n) for n in (1, 2, 7, 14, 15, 16, 40)]
    regular += [fixtures.four_lines(), QuadraticPencil(np.diag([3.0, -1.0, 2.0, 0.0, 5.0]),
                                                      np.diag([1.0, 4.0, -2.0, 1.0, 0.0]))]
    for p in regular:
        assert not degenerate_locus(p).identically_singular
        for cone in cones:
            analyze(p, cone)
    assert calls == []
    analyze(fixtures.identically_singular_pair(), PlanarCone.zero())
    assert {"eigvalsh", "dggev"} <= set(calls)


def test_a_qz_failure_is_a_numerical_error(monkeypatch):
    dggev = lapack.dggev

    def failing(*args, **kwargs):
        return (*dggev(*args, **kwargs)[:-1], 1)  # info > 0: QZ did not converge

    pencils = (fixtures.bouquet(), fixtures.identically_singular_pair())
    pencil._dggev_lwork.cache_clear()
    for warm in (False, True):
        if warm:  # the workspace size of each dim is known: only the solve runs
            for p in pencils:
                degenerate_locus(p)
        monkeypatch.setattr(lapack, "dggev", failing)
        for p in pencils:
            with pytest.raises(NumericalError, match="QZ eigenvalue solver failed"):
                degenerate_locus(p)
        monkeypatch.undo()


def test_the_qz_workspace_query_runs_once_per_dim(monkeypatch):
    rng = np.random.default_rng(18)
    calls = []
    dggev = lapack.dggev

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return dggev(*args, **kwargs)

    monkeypatch.setattr(lapack, "dggev", counting)
    for dim in (3, 7, 11):
        degenerate_locus(fixtures.random_pencil(rng, dim))
        calls.clear()
        degenerate_locus(fixtures.random_pencil(rng, dim))
        assert calls == [(dim, dim)]


# ---------------------------------------------------------------------------
# identically singular pencils: the family's own roots
# ---------------------------------------------------------------------------

def _kronecker_and_block(eps, regular_dim, rng):
    """fixtures.kronecker_pair(eps, regular_dim, rng) and its regular block,
    None if empty, from the same draws: the fixture draws the block first."""
    r = copy.deepcopy(rng).standard_normal((2, regular_dim, regular_dim))
    block = QuadraticPencil(0.5 * (r[0] + r[0].T), 0.5 * (r[1] + r[1].T)) if regular_dim else None
    return fixtures.kronecker_pair(eps, regular_dim, rng), block


def _assert_locus_of_block(loc, block, label):
    """loc has the points, multiplicities and theta_pairs of block's own
    locus, with angles within 1e-9; an empty block has no roots."""
    own = degenerate_locus(block) if block else DegenerateLocus((), 0, 0)
    assert loc.theta_pairs == own.theta_pairs, label
    assert len(loc.points) == len(own.points), (label, loc.angles, own.angles)
    for q in own.points:
        assert any(_angles_within(pt.theta, q.theta, 1e-9) and pt.multiplicity == q.multiplicity
                   for pt in loc.points), (label, q, loc.points)


def test_theta_pairs_of_singular_pencils_count_only_the_regular_part():
    # a shared kernel keeps the quotient's pairs, a Kronecker pencil whose
    # regular block has no real root has regular_dim / 2, and one whose block
    # has real roots has the block's own locus, no more points
    rng = np.random.default_rng(5)
    for dim in (4, 5, 6, 8, 12, 16, 24, 32):
        for k in (1, 2):
            frame, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            rest = frame[:, k:]
            quotient = fixtures.random_pencil(rng, dim - k)
            p = QuadraticPencil(rest @ quotient.q0 @ rest.T, rest @ quotient.q1 @ rest.T)
            loc = degenerate_locus(p)
            assert loc.rank_deficit == k
            assert loc.theta_pairs == degenerate_locus(quotient).theta_pairs, (dim, k)
    checked = 0
    while checked < 30:
        eps, regular_dim = int(rng.integers(1, 4)), 2 * int(rng.integers(1, 4))
        loc = degenerate_locus(fixtures.kronecker_pair(eps, regular_dim, rng))
        if loc.points:
            continue
        assert loc.theta_pairs == regular_dim // 2, (eps, regular_dim)
        checked += 1
    with_roots = 0
    for i in range(60):
        eps, regular_dim = int(rng.integers(1, 4)), int(rng.integers(1, 7))
        p, block = _kronecker_and_block(eps, regular_dim, rng)
        loc = degenerate_locus(p)
        assert loc.rank_deficit == 1
        _assert_locus_of_block(loc, block, (eps, regular_dim, i))
        with_roots += bool(loc.points)
    assert with_roots >= 40
    # the Kronecker pencils of test_singular_pencils_under_congruence; a
    # symmetric rank completion gave the third kronecker_pair(3, 4) 12 points
    # more than its block's 4
    rng = np.random.default_rng(23)
    for eps in (1, 2, 3):
        for regular_dim in range(6):
            for i in range(3):
                p, block = _kronecker_and_block(eps, regular_dim, rng)
                loc = degenerate_locus(p)
                _assert_locus_of_block(loc, block, (eps, regular_dim, i))
                if (eps, regular_dim, i) == (3, 4, 2):
                    assert len(loc.points) == 4


def test_a_wrong_deflation_is_a_numerical_error(monkeypatch):
    # rank decisions at 0.1 instead of RANK_TOL misjudge this pencil's
    # reducing subspace; the compressed chart matrix is then singular, and
    # the locus raises rather than read roots off it
    rng = np.random.default_rng(1)
    pencils = [fixtures.kronecker_pair(int(rng.integers(1, 4)), int(rng.integers(1, 6)), rng)
               for _ in range(3)]
    assert degenerate_locus(pencils[2]).rank_deficit == 1
    monkeypatch.setattr(pencil, "RANK_TOL", 0.1)
    with pytest.raises(NumericalError, match="is singular at the chart origin"):
        degenerate_locus(pencils[2])


@pytest.mark.parametrize("cond,known_wrong", [(1.0, []), (1e2, [])])
def test_singular_pencils_under_congruence(cond, known_wrong):
    # Kronecker pencils L_eps + L_eps' with a regular block of dim 0-5, and
    # shared kernels of dim 1 and 2.  Measured before w1 was read from the
    # root count, 13 of these raised at cond(T) = 1e2, each at the transport's
    # sample cap; none raise now.  With a random rank completion for the
    # regular part one answer was wrong without a raise: two added roots of
    # the completion merged into a locus point of the third kronecker_pair(3,
    # 4) near 0.135 rad, where after the congruence a second eigenvalue dips
    # under the zero band.  The compression to the regular part adds no root
    rng = np.random.default_rng(23)
    pencils = [((eps, regular_dim, i), fixtures.kronecker_pair(eps, regular_dim, rng))
               for eps in (1, 2, 3) for regular_dim in range(6) for i in range(3)]
    pencils += [((dim, k, i), _shared_kernel(rng, dim, k))
                for k in (1, 2) for dim in (4, 5, 6, 8, 12, 16, 24) for i in range(3)]
    raised, wrong = [], []
    for label, p in pencils:
        q = _congruent(p, rng, cond)
        try:
            a, b = analyze(p, PlanarCone.zero()), analyze(q, PlanarCone.zero())
        except NumericalError as exc:
            raised.append((label, str(exc)))
            continue
        if (a.report.b, a.table.w1_nonzero) != (b.report.b, b.table.w1_nonzero):
            wrong.append(label)
    assert raised == [] and wrong == known_wrong
