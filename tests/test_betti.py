import math
from dataclasses import replace

import numpy as np
import pytest

from quadrics import fixtures
from quadrics.applications import extremal_family
from quadrics.betti import (
    analyze,
    betti_complement,
    betti_x,
    betti_y,
    build_table,
    check_bounds,
    euler_x,
    half_circle_bound,
    index_decomposition,
    result_json,
)
from quadrics.circle import PlanarCone
from quadrics.errors import InvalidInputError, NumericalError
from quadrics.filtration import filtration_for_cone
from quadrics.oracles import (exact_locus_counts, grid_index_profile, grid_profile_disagreements,
                              stiefel_whitney)
from quadrics.pencil import QuadraticPencil, degenerate_locus

PI = math.pi
TWO_PI = 2.0 * math.pi
ZERO = PlanarCone.zero()


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def test_table_bouquet():
    t = build_table(filtration_for_cone(fixtures.bouquet(), ZERO))
    assert t.mu == 2 and t.nu == 1
    assert t.w1_nonzero is False
    assert (t.c, t.d) == (1, 0)
    assert t.display_rows() == [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_table_complex_squaring():
    t = build_table(filtration_for_cone(fixtures.complex_squaring(), ZERO))
    assert t.w1_nonzero is True
    assert (t.c, t.d) == (0, 0)
    assert t.display_rows() == [[0, 0, 0], [0, 0, 0]]


def test_table_empty_domain():
    t = build_table(filtration_for_cone(fixtures.bouquet(), PlanarCone.full()))
    assert t.mu == 0
    rows = t.display_rows()
    assert all(r == [1, 0, 0] for r in rows)


def test_table_four_lines():
    t = build_table(filtration_for_cone(fixtures.four_lines(), ZERO))
    assert t.mu == 2
    assert t.display_rows() == [[1, 0, 0], [1, 0, 0], [0, 3, 0], [0, 0, 1]]


# ---------------------------------------------------------------------------
# Betti numbers of the solution set
# ---------------------------------------------------------------------------

def test_betti_bouquet():
    rep = analyze(fixtures.bouquet(), ZERO).report
    assert rep.b == (1, 3, 0, 0)
    assert rep.total == 4
    assert rep.ranks[1] == 1
    assert rep.empty is False


def test_betti_four_lines():
    rep = analyze(fixtures.four_lines(), ZERO).report
    assert rep.b == (1, 5, 0, 0)
    assert rep.total == 6
    assert rep.chi == -4


def test_betti_complex_squaring_empty():
    rep = analyze(fixtures.complex_squaring(), ZERO).report
    assert rep.b == (0, 0)
    assert rep.empty is True


def test_betti_definite_form_empty():
    rep = analyze(fixtures.definite_form(4), ZERO).report
    assert rep.empty is True
    assert rep.total == 0


def test_betti_full_cone_gives_projective_space():
    for dim in (3, 4, 5):
        rep = analyze(fixtures.definite_form(dim), PlanarCone.full()).report
        assert rep.b == tuple([1] * dim)
        assert rep.empty is False


def test_betti_single_quadric_ellipse():
    # signature (2,1) quadric in the projective plane: a circle
    p = QuadraticPencil(np.diag([1.0, 1.0, -1.0]), np.zeros((3, 3)))
    rep = analyze(p, ZERO).report
    assert rep.b == (1, 1, 0)
    assert rep.chi == 0


def test_halfplane_cone_single_inequality_retracts():
    # {g <= 0} deformation retracts onto the projectivized nonpositive
    # eigenspace of g, so b_k = 1 exactly for k <= n - i_plus(g); the domain
    # here is a single point of the circle
    rng = np.random.default_rng(5)
    for p_pos, q_neg, zeros in [(2, 1, 0), (1, 2, 1), (3, 2, 0), (2, 2, 1)]:
        dim = p_pos + q_neg + zeros
        diag = [1.0] * p_pos + [-1.0] * q_neg + [0.0] * zeros
        rng.shuffle(diag)
        b = rng.standard_normal((dim, dim))
        pencil = QuadraticPencil(np.diag(diag), 0.3 * (b + b.T))
        res = analyze(pencil, PlanarCone.halfplane(PI / 2)).report
        n = dim - 1
        expect = tuple(1 if k <= n - p_pos else 0 for k in range(dim))
        assert res.b == expect, (p_pos, q_neg, zeros, res.b)


def test_line_cone_single_quadric_topology():
    # a line cone imposes the single equation q0 = 0; the mod-2 homology of
    # real projective quadrics of small signature is classical
    known = {
        (2, 2): (1, 2, 1, 0),    # torus
        (2, 1): (1, 1, 0),       # conic
        (3, 1): (1, 0, 1, 0),    # sphere
        (1, 1): (2, 0),          # two points
        (4, 1): (1, 0, 0, 1, 0),
    }
    rng = np.random.default_rng(6)
    for (pp, qq), expect in known.items():
        dim = pp + qq
        b = rng.standard_normal((dim, dim))
        pencil = QuadraticPencil(np.diag([1.0] * pp + [-1.0] * qq),
                                 0.25 * (b + b.T))
        res = analyze(pencil, PlanarCone.line(PI / 2)).report
        assert tuple(res.b) == expect, (pp, qq, res.b)


def test_ray_cone_vacuous_inequality():
    # K a ray with q0 the unit form: the inequality q0 >= 0 is vacuous and
    # the solution set is the quadric of q1 alone
    cases = [
        ([1.0, -1.0, 0.0], (1, 2, 0)),        # two lines through a point
        ([1.0, -1.0, 0.0, 0.0], (1, 1, 2, 0)),  # two planes glued along a line
        ([1.0, 1.0, -1.0], (1, 1, 0)),        # conic
    ]
    for diag1, expect in cases:
        dim = len(diag1)
        pencil = QuadraticPencil(np.eye(dim), np.diag(diag1))
        res = analyze(pencil, PlanarCone.ray(0.0)).report
        assert tuple(res.b) == expect, (diag1, res.b)


def test_ray_and_sector_cones_match_sampling_oracle():
    from quadrics.oracles import sample_components
    rng = np.random.default_rng(17)
    for trial in range(6):
        p = fixtures.random_pencil(rng, 4)
        if trial % 2 == 0:
            cone = PlanarCone.ray(float(rng.uniform(0, 2 * PI)))
        else:
            cone = PlanarCone.sector(float(rng.uniform(0, 2 * PI)),
                                     float(rng.uniform(0.5, 2.5)))
        rep = analyze(p, cone).report
        expected = rep.b[0] if not rep.empty else 0
        assert sample_components(p, cone, "projective", seed=3) == expected


def test_betti_point_solution_set():
    # padded squaring: solution set is a single projective point
    rep = analyze(fixtures.padded_squaring(), ZERO).report
    assert rep.b == (1, 0, 0)


# ---------------------------------------------------------------------------
# complement and Euler characteristic
# ---------------------------------------------------------------------------

def test_complement_bouquet():
    b = betti_complement(filtration_for_cone(fixtures.bouquet(), ZERO))
    assert b[1] == 3
    assert b[0] == 1


def test_complement_definite_sphere_form():
    p = QuadraticPencil(np.eye(3), np.zeros((3, 3)))
    assert betti_complement(filtration_for_cone(p, ZERO)) == [1, 1, 1]


def test_complement_of_conic():
    # the plane minus a conic: a disk and a Moebius band
    p = QuadraticPencil(np.diag([1.0, 1.0, -1.0]), np.zeros((3, 3)))
    assert betti_complement(filtration_for_cone(p, ZERO)) == [2, 1, 0]


def test_zero_pencil_gives_whole_space():
    for dim in (1, 2, 4):
        p = QuadraticPencil(np.zeros((dim, dim)), np.zeros((dim, dim)))
        rep = analyze(p, ZERO).report
        assert rep.b == tuple([1] * dim)
        assert not rep.empty


def test_complement_empty_when_cone_full():
    filt = filtration_for_cone(fixtures.bouquet(), PlanarCone.full())
    assert betti_complement(filt) == [0, 0, 0, 0]


def test_euler_bouquet():
    assert euler_x(filtration_for_cone(fixtures.bouquet(), ZERO)) == -2


def test_euler_empty_domain_even_n():
    p = fixtures.definite_form(3)  # n = 2
    # chi of the projective plane
    assert euler_x(filtration_for_cone(p, PlanarCone.full())) == 1


def test_euler_four_lines():
    assert euler_x(filtration_for_cone(fixtures.four_lines(), ZERO)) == -4


def test_analyze_raises_on_an_euler_mismatch(monkeypatch):
    # one extra component on each of the n + 1 = 5 levels moves the levelwise
    # alternating sum by one; the table does not read _level_euler
    monkeypatch.setattr("quadrics.betti._level_euler", lambda b0, b1: b0 - b1 + 1)
    with pytest.raises(NumericalError, match="Euler characteristic mismatch"):
        analyze(extremal_family(4), ZERO)


def test_smooth_odd_projective_intersections_are_manifolds():
    # with a simple degenerate locus the intersection is nonsingular, and in
    # odd-dimensional projective space a nonsingular intersection is a closed
    # odd-dimensional manifold: its Euler characteristic vanishes, and for
    # n = 3 it is a disjoint union of circles
    checked3 = checked5 = 0
    for seed in range(120):
        rng = np.random.default_rng(3000 + seed)
        for dim in (4, 6):
            p = fixtures.random_pencil(rng, dim)
            locus = degenerate_locus(p)
            if locus.identically_singular or any(
                    pt.multiplicity != 1 for pt in locus.points):
                continue
            rep = analyze(p, ZERO).report
            if rep.empty:
                continue
            assert rep.chi == 0, (seed, dim, rep.b)
            if dim == 4:
                checked3 += 1
                assert rep.b[0] == rep.b[1], (seed, rep.b)
                assert rep.b[2] == 0 and rep.b[3] == 0, (seed, rep.b)
            else:
                checked5 += 1
    assert checked3 > 80 and checked5 > 80


def test_euler_matches_table_on_random_pencils():
    rng = np.random.default_rng(100)
    for _ in range(40):
        dim = int(rng.integers(2, 8))
        p = fixtures.random_pencil(rng, dim)
        res = analyze(p, ZERO)
        if not res.report.empty:
            assert res.chi == res.report.chi


ALL_CONES = (PlanarCone.zero(), PlanarCone.full(), PlanarCone.ray(0.7),
             PlanarCone.line(2.0), PlanarCone.sector(0.3, 1.9), PlanarCone.halfplane(1.1))


def test_the_homology_reads_only_the_cyclic_order_of_the_cells():
    # the same cells on evenly spaced stand-in cuts give the same levels,
    # pairs, table, Betti numbers and Euler number as on the true cuts
    rng = np.random.default_rng(371)
    pencils = [fixtures.bouquet(), fixtures.complex_squaring(), fixtures.doubled_squaring(),
               fixtures.tripled_squaring(), fixtures.padded_squaring(), fixtures.four_lines(),
               fixtures.definite_form(3)]
    pencils += [extremal_family(n) for n in range(1, 9)]
    pencils += [fixtures.random_pencil(rng, dim) for dim in range(2, 11)]
    reads = (lambda f: f.betti_levels, lambda f: f.betti_pairs, build_table,
             lambda f: betti_x(build_table(f)), euler_x)
    moved = 0
    for p in pencils:
        for cone in ALL_CONES:
            filt = filtration_for_cone(p, cone)
            cuts = filt.profile.cuts
            standins = tuple(TWO_PI * i / len(cuts) for i in range(len(cuts)))
            other = replace(filt, profile=replace(filt.profile, cuts=standins))
            assert [read(other) for read in reads] == [read(filt) for read in reads], (p.dim, cone)
            moved += standins != cuts
    assert moved > 100


# ---------------------------------------------------------------------------
# spherical double cover
# ---------------------------------------------------------------------------

def test_betti_y_extremal_n4():
    entries = betti_y(filtration_for_cone(extremal_family(4), ZERO))
    by_k = {e.k: e for e in entries}
    assert by_k[0].determined and by_k[0].reduced == 0
    assert by_k[0].absolute == 1
    assert by_k[1].determined and by_k[1].reduced == 10
    assert by_k[1].reduced <= by_k[1].transfer_bound == 12
    assert not by_k[2].determined
    assert not by_k[3].determined


def test_betti_y_empty():
    entries = betti_y(filtration_for_cone(fixtures.definite_form(4), ZERO))
    assert all(e.determined and e.reduced == 0 for e in entries)


def test_betti_y_transfer_bound_random():
    rng = np.random.default_rng(400)
    for _ in range(40):
        dim = int(rng.integers(5, 8))
        p = fixtures.random_pencil(rng, dim)
        entries = betti_y(filtration_for_cone(p, ZERO))
        for e in entries:
            if e.determined and e.absolute is not None:
                assert e.absolute <= e.transfer_bound, (dim, e)


def test_betti_y_out_of_range_has_bound():
    entries = betti_y(filtration_for_cone(fixtures.bouquet(), ZERO))
    by_k = {e.k: e for e in entries}
    # n = 3: only k = 0 is in range
    assert by_k[0].determined
    assert by_k[0].absolute == 1
    for k in (1, 2, 3):
        assert not by_k[k].determined
        assert by_k[k].transfer_bound == 2 * analyze(fixtures.bouquet(), ZERO).report.b[k]


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_bounds_extremal_sharp():
    for n in range(2, 9):
        rep = analyze(extremal_family(n), ZERO).report
        assert rep.total == 2 * n
        assert check_bounds(rep) == []


def test_bounds_four_lines():
    rep = analyze(fixtures.four_lines(), ZERO).report
    assert rep.total == 6 == 2 * 3
    assert check_bounds(rep) == []


def test_for_odd_n_only_a_singular_x_attains_2n():
    # the paper's sharpness claim for odd n.  X is smooth exactly when the
    # determinant's roots are simple, checked on the stored doubles.
    # four_lines (n = 3) attains 2n and its exact determinant has double
    # roots; perturbations of extremal_family(n) by 1e-3 have an exactly
    # square-free determinant and stay below 2n
    p = fixtures.four_lines()
    assert not exact_locus_counts(p).square_free
    assert analyze(p, ZERO).report.total == 6
    rng = np.random.default_rng(5)
    for n in (3, 5, 7):
        p = extremal_family(n)
        for _ in range(10):
            a, b = rng.standard_normal((2, n + 1, n + 1))
            q = QuadraticPencil(p.q0 + 5e-4 * (a + a.T), p.q1 + 5e-4 * (b + b.T))
            assert exact_locus_counts(q).square_free, n
            rep = analyze(q, ZERO).report
            assert rep.total < 2 * n, (n, rep.b)
            assert check_bounds(rep, smooth=True) == [], n


def test_bounds_smooth_per_degree():
    for n in (2, 4, 6):
        rep = analyze(extremal_family(n), ZERO).report
        assert check_bounds(rep, smooth=True) == []


def test_bounds_flag_violations():
    from quadrics.betti import BettiReport
    fake = BettiReport((5, 9, 0), 14, -4, (1, 1, 0), False)
    v = check_bounds(fake, smooth=True)
    assert any("total" in msg for msg in v)
    assert any("b_0" in msg for msg in v)


def test_the_total_bound_holds_from_n_1_up():
    # at n = 0, X lies in RP^0: it is the point or empty, and neither breaks
    # b(X) <= 2n, which the paper states for n >= 1
    from quadrics.betti import BettiReport
    zero, one = np.zeros((1, 1)), np.eye(1)
    for p, cone, b in [(QuadraticPencil(zero, zero), ZERO, (1,)),
                       (QuadraticPencil(one, zero), PlanarCone.full(), (1,)),
                       (QuadraticPencil(one, zero), ZERO, (0,))]:
        rep = analyze(p, cone).report
        assert rep.b == b
        assert check_bounds(rep) == [] and check_bounds(rep, smooth=True) == []
    for n in (1, 2, 5):
        fake = BettiReport((2 * n + 1,) + (0,) * n, 2 * n + 1, 2 * n + 1, (1,) * (n + 1), False)
        assert check_bounds(fake) == [f"total Betti number {2 * n + 1} exceeds {2 * n}"], n


# ---------------------------------------------------------------------------
# index decomposition and half-circle bound
# ---------------------------------------------------------------------------

def test_index_decomposition_extremal_even():
    p = extremal_family(4)
    rng = np.random.default_rng(5)
    locus = degenerate_locus(p)
    angs = locus.angles
    checked = 0
    while checked < 25:
        eta = float(rng.uniform(0, 2 * PI))
        pos = float(rng.uniform(0.1, PI - 0.1))
        omega = eta + PI + pos
        if min(abs((eta - z + PI) % (2 * PI) - PI) for z in angs) < 1e-3:
            continue
        if min(abs((omega - z + PI) % (2 * PI) - PI) for z in angs) < 1e-3:
            continue
        d = index_decomposition(p, eta, omega)
        assert d.i_plus_predicted == d.i_plus_measured
        checked += 1


def test_index_decomposition_counts_sum():
    p = extremal_family(4)
    d = index_decomposition(p, 0.1, 0.1 + PI + 1.0)
    total = d.rho_plus + d.rho_minus + d.lambda_plus + d.lambda_minus
    # all roots are real and live on the two arcs or their antipodes
    assert total + (2 * d.theta) in (5, 10)
    assert d.theta == 0


def test_index_decomposition_no_real_roots():
    p = fixtures.doubled_squaring()
    d = index_decomposition(p, 0.3, 0.3 + PI + 0.7)
    assert d.theta == 2
    assert d.i_plus_predicted == 2 == d.i_plus_measured


def test_index_decomposition_rejects_multiple_roots():
    with pytest.raises(InvalidInputError):
        index_decomposition(fixtures.four_lines(), 0.3, 0.3 + PI + 0.7)


def test_index_decomposition_random_agreement():
    rng = np.random.default_rng(77)
    pencils = 0
    while pencils < 20:
        dim = int(rng.integers(2, 8))
        p = fixtures.random_pencil(rng, dim)
        locus = degenerate_locus(p)
        if locus.identically_singular or any(
                pt.multiplicity != 1 for pt in locus.points):
            continue
        angs = locus.angles
        done = 0
        while done < 10:
            eta = float(rng.uniform(0, 2 * PI))
            omega = eta + PI + float(rng.uniform(0.05, PI - 0.05))
            guard = 2e-3
            if angs and min(abs((eta - z + PI) % (2 * PI) - PI) for z in angs) < guard:
                continue
            if angs and min(abs((omega - z + PI) % (2 * PI) - PI) for z in angs) < guard:
                continue
            d = index_decomposition(p, eta, omega)
            assert d.i_plus_predicted == d.i_plus_measured, (dim, eta, omega)
            done += 1
        pencils += 1


def test_half_circle_bound_extremal():
    filt = filtration_for_cone(extremal_family(4), ZERO)
    t = build_table(filt)
    rep = betti_x(t)
    bounds = half_circle_bound(filt, 0.17)
    # the bound covers the degrees whose superlevel set is nonempty
    for k in range(5):
        if 4 - k <= t.mu:
            assert bounds[k] >= rep.b[k]
    assert bounds[1] >= 6


def test_half_circle_bound_random_smooth():
    rng = np.random.default_rng(31)
    done = 0
    while done < 30:
        dim = int(rng.integers(2, 8))
        p = fixtures.random_pencil(rng, dim)
        locus = degenerate_locus(p)
        if locus.identically_singular or any(
                pt.multiplicity != 1 for pt in locus.points):
            continue
        eta = float(rng.uniform(0, 2 * PI))
        if locus.angles and min(
                abs((eta - z + PI) % (2 * PI) - PI) for z in locus.angles) < 1e-3:
            continue
        filt = filtration_for_cone(p, ZERO)
        t = build_table(filt)
        rep = betti_x(t)
        if rep.empty:
            done += 1
            continue
        bounds = half_circle_bound(filt, eta)
        n = dim - 1
        for k in range(dim):
            if n - k <= t.mu:
                assert bounds[k] >= rep.b[k], (dim, k)
        done += 1


# ---------------------------------------------------------------------------
# identically singular pencils
# ---------------------------------------------------------------------------

def _shared_kernel_and_quotient(rng, dim, k):
    """A random pencil whose forms vanish on a random k-plane, and the pencil
    it induces on the orthogonal complement."""
    frame, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    rest = frame[:, k:]
    quotient = fixtures.random_pencil(rng, dim - k)
    p = QuadraticPencil(rest @ quotient.q0 @ rest.T, rest @ quotient.q1 @ rest.T)
    return p, quotient


@pytest.mark.parametrize("k", [1, 2])
def test_shared_kernel_is_a_cone_over_the_quotient(k):
    # a common kernel of dim k makes X an iterated projective cone over the
    # quotient's X', so b(X) = (1, ..., 1 [k times], b(X')); no oracle needed
    rng = np.random.default_rng(40 + k)
    cones = (ZERO, PlanarCone.halfplane(1.1), PlanarCone.sector(0.3, 1.9))
    for dim in (4, 5, 6, 8, 12, 16, 24, 32):
        for _ in range(2):
            p, quotient = _shared_kernel_and_quotient(rng, dim, k)
            assert degenerate_locus(p).rank_deficit == k
            for cone in cones:
                expected = (1,) * k + analyze(quotient, cone).report.b
                assert analyze(p, cone).report.b == expected, (dim, cone.kind)


def test_kronecker_pencils_agree_with_the_grid():
    # no shared kernel: the kernel vector of an L_eps + L_eps' block turns
    # with the angle, and the regular block adds real roots
    rng = np.random.default_rng(23)
    for eps in (1, 2, 3):
        for regular_dim in range(6):
            for _ in range(3):
                p = fixtures.kronecker_pair(eps, regular_dim, rng)
                assert degenerate_locus(p).rank_deficit == 1
                profile = analyze(p, ZERO).filtration.profile
                bad = grid_profile_disagreements(profile, grid_index_profile(p))
                assert bad == [], (eps, regular_dim)


def test_line_and_point_pencil():
    # q0 = 2 x0 x1 and q1 = 2 x0 x2 vanish together on the line x0 = 0 and
    # at the point [1:0:0] of RP^2
    q0 = np.zeros((3, 3))
    q1 = np.zeros((3, 3))
    q0[0, 1] = q0[1, 0] = q1[0, 2] = q1[2, 0] = 1.0
    p = QuadraticPencil(q0, q1)
    assert degenerate_locus(p).rank_deficit == 1
    assert analyze(p, ZERO).report.b == (2, 1, 0)


def test_w1_of_kronecker_pencils_with_root_free_regular_blocks():
    # the positive bundle of an L_eps + L_eps' block is orientable and each
    # root-free 2 x 2 block adds a Moebius band, so w1 = (mu - eps) mod 2.
    # analyze must give that, as must the transport from 4096 samples, or
    # raise
    rng = np.random.default_rng(9)
    checked = raised = 0
    while checked + raised < 40:
        eps = int(rng.integers(1, 4))
        p = fixtures.kronecker_pair(eps, 2 * int(rng.integers(1, 3)), rng)
        if degenerate_locus(p).points:
            continue
        try:
            res = analyze(p, ZERO)
        except NumericalError:
            raised += 1
            continue
        filt = res.filtration
        # the certified steps near a dip come on top of the 4096 uniform ones
        fine, _, _ = stiefel_whitney(p, filt.profile, start_resolution=4096,
                                     max_resolution=1 << 16)
        assert res.table.w1_nonzero == fine == ((filt.mu - eps) % 2 == 1), (eps, filt.mu)
        checked += 1
    assert checked >= 30


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_result_json_shape():
    res = analyze(fixtures.bouquet(), ZERO)
    data = result_json(res)
    assert data["b"] == [1, 3, 0, 0]
    assert data["total"] == 4
    assert data["chi"] == -2
    assert data["mu"] == 2
    assert data["w1"] is False
    assert data["table"][0] == [1, 0, 0]
    assert data["empty"] is False
