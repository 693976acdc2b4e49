import math
from collections import Counter

import numpy as np
import pytest

from quadrics import fixtures
from quadrics.applications import (
    Certificate,
    LevelProblem,
    LevelSetResult,
    _level_result,
    _negative_direction_halfcircle,
    calabi,
    extremal_family,
    image_membership,
    inequality_level_set,
    is_empty_x,
    level_set_betti,
    support_function,
)
from quadrics.betti import analyze, check_bounds
from quadrics.circle import PlanarCone, omega_set
from quadrics.errors import InvalidInputError, NumericalError
from quadrics.filtration import filtration_for_cone, index_profile, sublevel
from quadrics.pencil import QuadraticPencil, degenerate_locus
from references import betti_pair

PI = math.pi
ZERO = PlanarCone.zero()


# ---------------------------------------------------------------------------
# positive-combination certificates
# ---------------------------------------------------------------------------

def test_calabi_definite_q0():
    rng = np.random.default_rng(0)
    b = rng.standard_normal((3, 3))
    p = QuadraticPencil(np.eye(3), 0.05 * (b + b.T))
    cert = calabi(filtration_for_cone(p, ZERO))
    assert cert.kind == "positive_combination"
    assert cert.margin > 0
    assert cert.warning is None
    # the certified direction really is positive definite
    m = p.at(cert.theta)
    assert np.linalg.eigvalsh(m)[0] > 0


@pytest.mark.parametrize("cone", [PlanarCone.ray(0.0), PlanarCone.full()], ids=["ray", "full"])
def test_calabi_needs_the_full_circle_filtration(cone):
    # Q0 = I is definite, so a refutation read off a ray's domain would be
    # wrong, and the full cone's domain is empty
    with pytest.raises(InvalidInputError, match="full circle"):
        calabi(filtration_for_cone(fixtures.definite_form(4), cone))


def test_calabi_complex_squaring_refuted_with_warning():
    cert = calabi(filtration_for_cone(fixtures.complex_squaring(), ZERO))
    assert cert.kind == "refutation"
    assert cert.mu == 1
    assert cert.warning is not None


def test_calabi_bouquet_refuted():
    cert = calabi(filtration_for_cone(fixtures.bouquet(), ZERO))
    assert cert.kind == "refutation"
    assert cert.mu == 2
    assert cert.warning is None


def test_is_empty_definite():
    res = is_empty_x(fixtures.definite_form(3), ZERO)
    assert res.empty
    assert res.certificate is not None
    assert res.certificate.margin > 0
    assert abs(res.certificate.theta) < 1e-9  # the direction (1, 0)


def test_is_empty_bouquet_and_four_lines():
    assert not is_empty_x(fixtures.bouquet(), ZERO).empty
    assert not is_empty_x(fixtures.four_lines(), ZERO).empty


def test_is_empty_complex_squaring_small_dimension():
    # two variables: empty zero locus without any definite combination
    res = is_empty_x(fixtures.complex_squaring(), ZERO)
    assert res.empty
    assert res.mu == 1
    assert res.certificate is None


def test_calabi_equivalence_random():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        dim = int(rng.integers(3, 8))
        p = fixtures.random_pencil(rng, dim)
        res = is_empty_x(p, ZERO)
        cert = calabi(filtration_for_cone(p, ZERO))
        assert res.empty == (cert.kind == "positive_combination")
        if cert.kind == "positive_combination":
            assert np.linalg.eigvalsh(p.at(cert.theta))[0] > 0


# ---------------------------------------------------------------------------
# image membership and support function
# ---------------------------------------------------------------------------

def _sphere_norm_pencil():
    # q = (|x|^2, x0^2 - x1^2) on R^3
    return QuadraticPencil(np.eye(3), np.diag([1.0, -1.0, 0.0]))


def test_membership_example_inside():
    p = _sphere_norm_pencil()
    member, cert = image_membership(p, (1.0, 0.0))
    assert member
    assert cert.kind == "membership"


def test_membership_example_outside_zero_norm():
    p = _sphere_norm_pencil()
    member, cert = image_membership(p, (0.0, 0.5))
    assert not member
    assert cert.kind == "emptiness"
    assert cert.margin > 0
    # the separating direction certifies positive definiteness of the shift
    shifted = p.shifted(0.0, 0.5)
    assert np.linalg.eigvalsh(shifted.at(cert.theta))[0] > 0


def test_membership_example_outside_range():
    p = _sphere_norm_pencil()
    member, cert = image_membership(p, (1.0, 2.0))
    assert not member
    assert cert.margin > 0


def test_membership_runs_no_transport(monkeypatch):
    def refuse(*args, **kwargs):
        raise NumericalError("membership should not need the orientation class")

    monkeypatch.setattr(np.linalg, "eigh", refuse)  # the transport's solver
    p = _sphere_norm_pencil()
    member, cert = image_membership(p, (1.0, 0.0))
    assert member and cert.kind == "membership"
    member, cert = image_membership(p, (0.0, 0.5))
    assert not member and cert.margin > 0


def test_membership_rejects_two_variables():
    with pytest.raises(InvalidInputError):
        image_membership(fixtures.complex_squaring(), (1.0, 0.0))


def test_membership_of_actual_values():
    rng = np.random.default_rng(8)
    for _ in range(20):
        dim = int(rng.integers(3, 7))
        p = fixtures.random_pencil(rng, dim)
        x = rng.standard_normal(dim)
        x /= np.linalg.norm(x)
        c = p.evaluate(x)
        member, _ = image_membership(p, c)
        assert member


def test_convexity_segments():
    rng = np.random.default_rng(99)
    for _ in range(15):
        dim = int(rng.integers(3, 6))
        p = fixtures.random_pencil(rng, dim)
        x = rng.standard_normal(dim)
        y = rng.standard_normal(dim)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        a = np.array(p.evaluate(x))
        b = np.array(p.evaluate(y))
        for t in np.linspace(0.1, 0.9, 5):
            c = (1 - t) * a + t * b
            member, _ = image_membership(p, (float(c[0]), float(c[1])))
            assert member


def test_support_function_examples():
    p = QuadraticPencil(np.eye(3), np.zeros((3, 3)))
    assert abs(support_function(p, 0.0) - 1.0) < 1e-12
    assert abs(support_function(p, PI) + 1.0) < 1e-12
    assert abs(support_function(p, PI / 2)) < 1e-12


def test_support_contains_image():
    rng = np.random.default_rng(12)
    p = fixtures.random_pencil(rng, 4)
    for _ in range(50):
        x = rng.standard_normal(4)
        x /= np.linalg.norm(x)
        c = np.array(p.evaluate(x))
        for th in np.linspace(0, 2 * PI, 64, endpoint=False):
            omega = np.array([math.cos(th), math.sin(th)])
            assert float(omega @ c) <= support_function(p, th) + 1e-9


def test_membership_four_lines_with_two_roots_near_pi_over_4():
    # the shifted pencil has simple roots at pi/4 + 7.1e-7 and pi/4 + 3.6e-6;
    # they must stay two breakpoints.  The image is |y0| + |y1| <= 1.
    c = (-1.2485479466360287, 0.24854618441984738)
    member, cert = image_membership(fixtures.four_lines(), c)
    assert not member
    assert cert.kind == "emptiness"
    shifted = fixtures.four_lines().shifted(*c)
    assert np.linalg.eigvalsh(shifted.at(cert.theta))[0] > 0


# ---------------------------------------------------------------------------
# level sets
# ---------------------------------------------------------------------------

def test_level_set_squaring_two_points():
    res = level_set_betti(LevelProblem(fixtures.complex_squaring(), (1.0, 0.0)))
    assert res.nonempty
    assert res.b_tilde[0] == 1
    assert all(b == 0 for b in res.b_tilde[1:])


def test_level_set_at_origin_contractible():
    for p in [fixtures.complex_squaring(), fixtures.bouquet()]:
        res = level_set_betti(LevelProblem(p, (0.0, 0.0)))
        assert res.nonempty
        assert all(b == 0 for b in res.b_tilde)


def test_bouquet_level_set_with_a_domain_end_in_a_zero_band():
    # the half circle of directions ends 1.1e-3 past the bouquet's quadruple
    # root at pi/2; the last arc's third nearest the root reads its smallest
    # eigenvalue, about 4 delta^3, as zero, and the arc takes the other third
    for c1 in (-0.013175866519860812, -0.03, -0.1):
        res = level_set_betti(LevelProblem(fixtures.bouquet(), (-12.220942365392403, c1)))
        assert res.nonempty
        assert res.b_tilde == (1, 0, 0, 0)


def test_level_set_infeasible():
    p = QuadraticPencil(np.eye(3), np.zeros((3, 3)))
    res = level_set_betti(LevelProblem(p, (-1.0, 0.0)))
    assert not res.nonempty


def test_level_set_sphere():
    # |x|^2 = 1 on R^3: the level set is a 2-sphere
    p = QuadraticPencil(np.eye(3), np.zeros((3, 3)))
    res = level_set_betti(LevelProblem(p, (1.0, 0.0)))
    assert res.nonempty
    assert res.b_tilde[2] == 1
    assert res.b_tilde[0] == 0 and res.b_tilde[1] == 0


def test_level_set_circle_in_r2():
    # |x|^2 = 1 on R^2
    p = QuadraticPencil(np.eye(2), np.zeros((2, 2)))
    res = level_set_betti(LevelProblem(p, (1.0, 0.0)))
    assert res.nonempty
    assert res.b_tilde[1] == 1


def test_level_set_decoupled_diagonal_cases():
    # decoupled coordinates make the level sets products of point sets and
    # spheres whose reduced homology is elementary
    p2 = QuadraticPencil(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    p3 = QuadraticPencil(np.eye(3), np.diag([0.0, 0.0, 1.0]))
    cases = [
        (p2, (1.0, 1.0), True, (3, 0)),      # four points
        (p2, (1.0, 0.0), True, (1, 0)),      # two points
        (p2, (-1.0, 1.0), False, None),
        (p3, (1.0, 0.25), True, (1, 2, 0)),  # two circles
        (p3, (1.0, 0.0), True, (0, 1, 0)),   # the equator circle
        (p3, (1.0, 1.0), True, (1, 0, 0)),   # the two poles
        (p3, (1.0, 2.0), False, None),
    ]
    for p, c, expect_nonempty, expect_b in cases:
        res = level_set_betti(LevelProblem(p, c))
        assert res.nonempty == expect_nonempty, (c, res)
        if expect_nonempty:
            assert tuple(res.b_tilde) == expect_b, (c, res.b_tilde)


def test_inequality_level_set_infeasible():
    p = QuadraticPencil(np.eye(3), np.zeros((3, 3)))
    res = inequality_level_set(LevelProblem(p, (-1.0, 0.0), mode="ineq"))
    assert not res.nonempty


def test_inequality_level_set_ball():
    p = QuadraticPencil(np.eye(3), np.zeros((3, 3)))
    res = inequality_level_set(LevelProblem(p, (1.0, 0.0), mode="ineq"))
    assert res.nonempty
    assert all(b == 0 for b in res.b_tilde)


def test_inequality_level_set_squaring_origin():
    res = inequality_level_set(
        LevelProblem(fixtures.complex_squaring(), (0.0, 0.0), mode="ineq"))
    assert res.nonempty


def test_level_problem_validates_mode():
    with pytest.raises(InvalidInputError):
        LevelProblem(fixtures.bouquet(), (0.0, 0.0), mode="bogus")
    with pytest.raises(InvalidInputError):
        level_set_betti(LevelProblem(fixtures.bouquet(), (0.0, 0.0), mode="ineq"))


def _reference_level_result(p, domain):
    """The level-set reading as sublevel sets and betti_pair: the reference
    for the one-pass count of _level_result."""
    n = p.n
    if domain.is_empty():
        return LevelSetResult(True, tuple([0] * (n + 1)), None)
    prof = index_profile(p, domain)
    min_minus = prof._index_range[2]
    if min_minus == 0:
        return LevelSetResult(False, tuple([0] * (n + 1)), min_minus)
    levels = [sublevel(prof, k) for k in range(0, n + 3)]
    b_tilde = tuple(betti_pair(levels[k + 1], levels[k])[0] +
                    betti_pair(levels[k + 2], levels[k + 1])[1] for k in range(n + 1))
    return LevelSetResult(True, b_tilde, min_minus)


def test_level_result_equals_the_betti_pair_reading():
    # random pencils, the named fixtures and the extremal family, each with 8
    # draws of an image point, a random point and an image point moved into
    # the quadrant above it (a feasible q <= c), over the half circle and its
    # intersection with the quadrant's polar arc
    rng = np.random.default_rng(3)
    pencils = [fixtures.random_pencil(rng, int(rng.integers(3, 17))) for _ in range(150)]
    pencils += [make() for make in fixtures.NAMED_FIXTURES.values()]
    pencils += [extremal_family(n) for n in range(2, 12)]
    quadrant_arc = omega_set(PlanarCone.nonpositive_quadrant())
    cases = []
    for p in pencils:
        cases.append((p, (0.0, 0.0)))
        for _ in range(8):
            x = rng.standard_normal(p.dim)
            image = p.evaluate(x / np.linalg.norm(x))
            cases += [(p, image), (p, tuple(p.scale() * rng.standard_normal(2))),
                      (p, tuple(np.add(image, p.scale() * rng.exponential(size=2))))]
    outcomes = Counter()
    differ = []
    for p, c in cases:
        half = _negative_direction_halfcircle(c)
        for domain in (half, quadrant_arc.intersect(half)):
            expected = _reference_level_result(p, domain)
            if _level_result(p, domain) != expected:
                differ.append((p.dim, c, expected))
            outcomes[expected.min_negative_index is None, expected.nonempty] += 1
    assert differ == []
    # both early returns are taken: the empty domain (c = 0) and the empty level set
    assert outcomes[True, True] >= 2 * len(pencils)
    assert outcomes[False, False] > 0
    assert outcomes[False, True] > 5000


@pytest.mark.parametrize("c", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
def test_a_non_finite_point_is_rejected(c):
    for mode in ("eq", "ineq"):
        with pytest.raises(InvalidInputError, match="non-finite"):
            LevelProblem(fixtures.bouquet(), c, mode=mode)
    with pytest.raises(InvalidInputError, match="non-finite"):
        image_membership(fixtures.bouquet(), c)


# ---------------------------------------------------------------------------
# the extremal family
# ---------------------------------------------------------------------------

def test_extremal_three_is_four_lines():
    p = extremal_family(3)
    assert np.allclose(p.q0, fixtures.four_lines().q0, atol=1e-15)
    assert np.allclose(p.q1, fixtures.four_lines().q1, atol=1e-15)


def test_extremal_profile_structure():
    from quadrics.circle import CircleSubset
    for n in (2, 4, 6):
        prof = index_profile(extremal_family(n), CircleSubset.full_circle())
        hi = (n + 2) // 2
        plus = [v.i_plus for v in prof.cells[1::2]]
        assert len(plus) == 2 * (n + 1)
        assert plus.count(hi) == n + 1
        assert plus.count(hi - 1) == n + 1
    for n in (3, 5):
        prof = index_profile(extremal_family(n), CircleSubset.full_circle())
        hi = (n + 2) // 2
        plus = [v.i_plus for v in prof.cells[1::2]]
        assert len(plus) == n + 1
        assert all(v == hi for v in plus)
        assert all(v.i_plus == hi - 1 for v in prof.cells[::2])


def test_extremal_total_betti():
    for n in [*range(2, 13), 25, 40, 80]:
        p = extremal_family(n)
        # det = prod cos(theta - 2 pi k/(n+1)): every projective root is real
        assert degenerate_locus(p).theta_pairs == 0, n
        rep = analyze(p, ZERO).report
        assert rep.total == 2 * n, n
        assert check_bounds(rep) == []


def test_extremal_rejects_n0():
    with pytest.raises(InvalidInputError):
        extremal_family(0)


def test_certificate_serialization():
    cert = Certificate("positive_combination", theta=0.5, margin=1.25)
    data = cert.to_json()
    assert data["kind"] == "positive_combination"
    assert abs(data["omega"][0] - math.cos(0.5)) < 1e-15
    assert data["witness"] is None
