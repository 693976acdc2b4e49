import math
import re
from dataclasses import replace

import numpy as np
import pytest

from quadrics import fixtures, oracles, pencil
from quadrics.applications import LevelProblem, extremal_family, level_set_betti
from quadrics.betti import analyze
from quadrics.circle import TOL_ANGLE, CircleSubset, PlanarCone, canonical_angle, omega_set
from quadrics.errors import InvalidInputError, NumericalError, OracleDisagreement
from quadrics.filtration import IndexProfile, filtration_for_cone, filtration_report, index_profile
from quadrics.pencil import (
    AT_MANY_SLICE,
    CLUSTER_TOL,
    ENTRY_BOUND,
    TOL_EIG,
    InertiaTriple,
    QuadraticPencil,
    degenerate_locus,
    inertia,
    lapack,
)
from quadrics.oracles import (
    GridProfile,
    exact_inertia,
    exact_locus_counts,
    grid_index_profile,
    grid_profile_disagreements,
    monodromy_refine,
    sample_components,
    stiefel_whitney,
    verify_analysis,
)
from references import FEAS_TOL, feasibility_sample, locate

PI = math.pi
TWO_PI = 2.0 * math.pi
ZERO = PlanarCone.zero()
FULL_CIRCLE = CircleSubset.full_circle()


# ---------------------------------------------------------------------------
# grid profiles
# ---------------------------------------------------------------------------

def test_grid_profile_bouquet():
    grid = grid_index_profile(fixtures.bouquet())
    assert grid.resolution == 720
    plus = [t.i_plus for t in grid.triples]
    # index two except very near the vertical directions
    assert plus.count(2) >= 716


def test_grid_profile_extremal_blocks():
    grid = grid_index_profile(extremal_family(4))
    vals = [t.i_plus for t in grid.triples]
    blocks = 1
    for a, b in zip(vals, vals[1:] + vals[:1]):
        if a != b:
            blocks += 1
    # ten alternating blocks crossed twice when walking the grid cyclically
    assert blocks >= 10


def test_grid_agreement_random():
    rng = np.random.default_rng(50)
    for _ in range(200):
        dim = int(rng.integers(2, 8))
        p = fixtures.random_pencil(rng, dim)
        prof = index_profile(p, FULL_CIRCLE)
        grid = grid_index_profile(p, grid_n=240)
        assert grid_profile_disagreements(prof, grid) == []


def test_grid_is_solved_in_slices_of_bounded_size(monkeypatch):
    # 2000 angles fill many slices; no slice may hold more than
    # AT_MANY_SLICE entries, and the counts are those of one stacked solve.
    # Below COUNT_DIM the members are built in stacks and counted, with no
    # eigvalsh call; at dim 41 the profile's streaming counter counts them,
    # with one dsytrd call per solved member and no eigvalsh call
    thetas = np.linspace(0.0, TWO_PI, 2000, endpoint=False).tolist()
    members, sturm = oracles._grid_members, pencil._sturm_inertia
    eigvalsh, dsytrd = np.linalg.eigvalsh, lapack.dsytrd
    for dim in (pencil.COUNT_DIM - 1, 41):
        p = fixtures.random_pencil(np.random.default_rng(41), dim)
        thr = TOL_EIG * p.scale()
        w = eigvalsh(p.at_many(thetas))
        plus, minus = np.sum(w > thr, axis=1), np.sum(w < -thr, axis=1)
        expected = [InertiaTriple(a, b, dim - a - b) for a, b in zip(plus.tolist(), minus.tolist())]
        sizes, solves, reductions = [], [], []

        def recorded(p, c, s):
            stack = members(p, c, s)
            sizes.append(stack.size)
            return stack

        def streamed(p, angles, *args):
            sizes.append(len(angles) * p.dim)  # the rows the counter holds
            return sturm(p, angles, *args)

        def solve(a):
            solves.append(len(a))
            return eigvalsh(a)

        def reduce(a, *args, **kwargs):
            reductions.append(np.shape(a)[0])
            return dsytrd(a, *args, **kwargs)

        monkeypatch.setattr(oracles, "_grid_members", recorded)
        monkeypatch.setattr(pencil, "_sturm_inertia", streamed)
        monkeypatch.setattr(np.linalg, "eigvalsh", solve)
        monkeypatch.setattr(lapack, "dsytrd", reduce)
        grid = grid_index_profile(p, grid_n=2000)
        monkeypatch.undo()
        assert len(sizes) > 1 and max(sizes) <= AT_MANY_SLICE
        assert solves == []
        assert reductions == ([] if dim < pencil.COUNT_DIM else [dim] * 1000)
        assert list(grid.triples) == expected


def test_grid_members_equal_at_bitwise():
    # the grid builds its stacks itself, from math.cos and math.sin as at() does
    rng = np.random.default_rng(65)
    thetas = np.linspace(0.0, TWO_PI, 37, endpoint=False).tolist()
    c = np.array([math.cos(t) for t in thetas])
    s = np.array([math.sin(t) for t in thetas])
    tiny = fixtures.random_pencil(rng, 7)
    for p in [fixtures.bouquet(), extremal_family(5), fixtures.random_pencil(rng, 9),
              QuadraticPencil(tiny.q0 * 2.0 ** -1060, tiny.q1 * 2.0 ** -1060)]:
        a = oracles._grid_members(p, c, s)
        assert a.shape == (p.dim, p.dim, len(thetas))
        for i, t in enumerate(thetas):
            assert a[:, :, i].tobytes() == p.at(t).tobytes(), (p.dim, t)


def test_grid_agreement_fixtures():
    for p in [fixtures.bouquet(), fixtures.four_lines(),
              fixtures.complex_squaring(), fixtures.padded_squaring()]:
        prof = index_profile(p, FULL_CIRCLE)
        grid = grid_index_profile(p)
        assert grid_profile_disagreements(prof, grid) == []


def _grid_per_angle(p, grid_n):
    """The reference for grid_index_profile: the inertia at every grid angle,
    each solved on its own, the second half circle too."""
    resolution = max(grid_n, 4 * p.dim)
    thetas = np.linspace(0.0, TWO_PI, resolution, endpoint=False).tolist()
    return thetas, [inertia(p.at(th), scale=p.scale()) for th in thetas]


def _shared_kernel(rng, dim):
    """A random pencil with a shared kernel vector."""
    p = fixtures.random_pencil(rng, dim)
    v = rng.standard_normal(dim)
    proj = np.eye(dim) - np.outer(v, v) / (v @ v)
    a, b = proj @ p.q0 @ proj, proj @ p.q1 @ proj
    return QuadraticPencil(0.5 * (a + a.T), 0.5 * (b + b.T))


def _counted_path_pencils(rng):
    """Inputs for the grid's Householder and Sturm count: dims with no
    reflector, the zero pencil, random pencils on both sides of
    COUNT_DIM, shared kernels, a stack with one diagonal member,
    congruence-sweep draws and pencils scaled toward both ends of the
    double range."""
    from scipy.stats import ortho_group

    yield from (fixtures.random_pencil(rng, d) for d in (1, 2))
    yield QuadraticPencil(np.zeros((3, 3)), np.zeros((3, 3)))
    yield from (fixtures.random_pencil(rng, d) for d in range(pencil.COUNT_DIM - 1, pencil.COUNT_DIM + 2))
    yield from (_shared_kernel(rng, d) for d in range(4, 10))
    p = fixtures.random_pencil(rng, 6)  # the member at angle 0 is diagonal, the rest not
    yield QuadraticPencil(np.diag(np.diag(p.q0)), p.q1)
    sweep = np.random.default_rng(11)  # cond(T) = 1e4
    for _ in range(3):
        d = int(sweep.integers(4, 17))
        p = fixtures.random_pencil(sweep, d)
        t = (ortho_group.rvs(d, random_state=sweep) @ np.diag(np.logspace(0.0, -4.0, d))
             @ ortho_group.rvs(d, random_state=sweep))
        yield QuadraticPencil(t.T @ p.q0 @ t, t.T @ p.q1 @ t)
    p = fixtures.random_pencil(rng, 7)
    yield QuadraticPencil(p.q0 * 2.0 ** -900, p.q1 * 2.0 ** -900)
    # a power of two puts the largest entry within a factor 2 of ENTRY_BOUND / dim
    big = 2.0 ** math.floor(math.log2(ENTRY_BOUND / 7 / max(np.abs(p.q0).max(), np.abs(p.q1).max())))
    yield QuadraticPencil(p.q0 * big, p.q1 * big)


def _streamed_path_pencils(rng):
    """Inputs from COUNT_DIM up, where the grid counts by the profile's
    streaming counter: dense members, diagonal ones read without a
    reduction, the zero pencil and a Kronecker pencil."""
    yield from (fixtures.random_pencil(rng, d) for d in (16, 17, 24, 41))
    yield from (extremal_family(n) for n in (15, 20, 40))
    yield QuadraticPencil(np.zeros((16, 16)), np.zeros((16, 16)))
    yield fixtures.kronecker_pair(3, 12, rng)


def test_tridiagonal_grids_take_the_streamed_read_at_every_dim(monkeypatch):
    # below COUNT_DIM too, a pencil of two tridiagonal forms is read by
    # _sturm_inertia's diagonal read, with no Householder stack; its counts
    # are per-angle inertia()'s
    rng = np.random.default_rng(29)
    sub = rng.standard_normal((2, 6))
    tridiagonal = QuadraticPencil(*(np.diag(rng.standard_normal(7)) + np.diag(e, 1) + np.diag(e, -1)
                                    for e in sub))
    stacked, counted = [], oracles._counted_inertia

    def recorded(a, *args):
        stacked.append(a.shape)
        return counted(a, *args)

    monkeypatch.setattr(oracles, "_counted_inertia", recorded)
    assert tridiagonal.dim < pencil.COUNT_DIM
    for p in [*(extremal_family(n) for n in range(4, 16)), tridiagonal]:
        thetas, expected = _grid_per_angle(p, 720)
        read, plus, minus = oracles._grid_counts(p, 720)
        assert read.tolist() == thetas
        assert list(zip(plus.tolist(), minus.tolist(), (p.dim - plus - minus).tolist())) \
            == expected, p.dim
    assert stacked == []


def test_grid_solves_each_direction_once_and_equals_the_per_angle_solve(monkeypatch):
    # an even resolution solves the first half circle and swaps i_plus and
    # i_minus for the second; an odd one has no antipodes and solves all.
    # Below COUNT_DIM a slice is a stack of at most AT_MANY_SLICE entries,
    # from it the rows of at most AT_MANY_SLICE // dim members
    rng = np.random.default_rng(19)
    pencils = [fixtures.bouquet(), fixtures.complex_squaring(), fixtures.doubled_squaring(),
               fixtures.tripled_squaring(), fixtures.padded_squaring(), fixtures.four_lines(),
               fixtures.definite_form(4), fixtures.identically_singular_pair(),
               *(extremal_family(n) for n in range(1, 13)),
               *(fixtures.random_pencil(rng, d) for d in range(3, 17) for _ in range(2)),
               *_counted_path_pencils(np.random.default_rng(7)),
               fixtures.kronecker_pair(2, 3, rng), fixtures.kronecker_pair(1, 4, rng)]
    streamed = list(_streamed_path_pencils(np.random.default_rng(23)))
    assert all(p.dim >= pencil.COUNT_DIM for p in streamed)
    solved = []
    members, sturm = oracles._grid_members, pencil._sturm_inertia

    def recorded(p, c, s):
        solved.append(len(c))
        return members(p, c, s)

    def counted(p, angles, *args):
        solved.append(len(angles))
        return sturm(p, angles, *args)

    monkeypatch.setattr(oracles, "_grid_members", recorded)
    monkeypatch.setattr(pencil, "_sturm_inertia", counted)
    odd = pencils[:8] + pencils[-4:]
    for grid_n, cases in ((720, pencils + streamed), (1999, odd + streamed)):
        for p in cases:
            thetas, expected = _grid_per_angle(p, grid_n)
            resolution = len(thetas)
            streams = p.dim >= pencil.COUNT_DIM or (pencil._is_tridiagonal(p.q0)
                                                    and pencil._is_tridiagonal(p.q1))
            entries = p.dim if streams else p.dim * p.dim
            for slice_size in (AT_MANY_SLICE, 8 * p.dim * p.dim):
                monkeypatch.setattr(oracles, "AT_MANY_SLICE", slice_size)
                solved.clear()
                grid = grid_index_profile(p, grid_n=grid_n)
                assert grid.resolution == resolution and grid.thetas == tuple(thetas)
                assert list(grid.triples) == expected, (p.dim, grid_n)
                assert sum(solved) == (resolution // 2 if resolution % 2 == 0 else resolution)
                assert max(solved) <= max(1, slice_size // entries)
            assert len(solved) > 1


# ---------------------------------------------------------------------------
# component sampling
# ---------------------------------------------------------------------------

def test_sample_components_four_lines_sphere():
    count = sample_components(fixtures.four_lines(), ZERO, "sphere")
    assert count == 1


def test_sample_components_bouquet_projective():
    count = sample_components(fixtures.bouquet(), ZERO, "projective")
    assert count == 1


def test_sample_components_empty():
    count = sample_components(fixtures.definite_form(4), ZERO, "sphere")
    assert count == 0


def test_sample_components_two_spheres():
    # |x|^2 = both coordinates: q0 = |x|^2 - handled via cone shift instead:
    # use q=(x0^2+x1^2+x2^2, 0) with full cone to get the whole sphere
    count = sample_components(fixtures.definite_form(3), PlanarCone.full(), "sphere")
    assert count == 1


def test_double_cover_general_cones_match_sphere_oracle():
    # inequality cones give full-dimensional solution regions on the sphere,
    # where point sampling counts components reliably
    from quadrics.betti import betti_y
    rng = np.random.default_rng(202)
    done = 0
    while done < 6:
        p = fixtures.random_pencil(rng, 4)
        kind = done % 3
        if kind == 0:
            cone = PlanarCone.ray(float(rng.uniform(0, 2 * PI)))
        elif kind == 1:
            cone = PlanarCone.sector(float(rng.uniform(0, 2 * PI)),
                                     float(rng.uniform(0.8, 2.2)))
        else:
            cone = PlanarCone.halfplane(float(rng.uniform(0, 2 * PI)))
        e0 = betti_y(filtration_for_cone(p, cone))[0]
        if not e0.determined:
            continue
        assert sample_components(p, cone, "sphere", seed=11) == e0.absolute
        done += 1


def test_double_cover_component_count_bounds():
    # the sphere cover maps onto the projective solution set, so its
    # component count sits between b0(X) and twice b0(X)
    from quadrics.betti import analyze, betti_y
    rng = np.random.default_rng(73)
    done = 0
    while done < 25:
        p = fixtures.random_pencil(rng, 4)
        e0 = betti_y(filtration_for_cone(p, ZERO))[0]
        if not e0.determined:
            continue
        rep = analyze(p, ZERO).report
        if rep.empty:
            assert e0.absolute == 0
        else:
            assert rep.b[0] <= e0.absolute <= 2 * rep.b[0], (e0, rep.b)
        done += 1


def test_sample_components_guards():
    with pytest.raises(InvalidInputError):
        sample_components(fixtures.definite_form(6), ZERO, "sphere")
    with pytest.raises(InvalidInputError):
        sample_components(fixtures.bouquet(), ZERO, "plane")


def test_sample_components_antipodal_gluing():
    # a pair of antipodal points on the sphere is one projective point:
    # x1 = x2 = 0 cut from the sphere by q = (x1^2, x2^2) with zero cone
    p = fixtures.padded_squaring()
    sphere = sample_components(p, ZERO, "sphere", target=400)
    proj = sample_components(p, ZERO, "projective", target=400)
    assert sphere == 2
    assert proj == 1


def test_sampling_at_n_0_links_no_coincident_samples(monkeypatch):
    # every sample of S^0 is +-1, so the samples coincide, the linking radius
    # fell to its floor and the tree returned 13 M pairs: verify took 38 s
    import scipy.spatial
    sizes = []
    tree = scipy.spatial.cKDTree

    def recorded(data, *args, **kwargs):
        sizes.append(len(data))
        return tree(data, *args, **kwargs)

    monkeypatch.setattr(scipy.spatial, "cKDTree", recorded)
    p = QuadraticPencil([[1.0]], [[0.0]])
    assert verify_analysis(analyze(p, PlanarCone.full()))["sampled_b0"] == 1
    assert sample_components(p, PlanarCone.full(), "sphere") == 2
    assert sample_components(p, PlanarCone.ray(0.0), "projective", seed=4) == 1
    assert sample_components(p, ZERO, "projective") == 0
    assert max(sizes, default=0) <= 2


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------

def test_feasibility_squaring_unit():
    r = feasibility_sample(LevelProblem(fixtures.complex_squaring(), (1.0, 0.0)))
    assert r.found
    x = np.array(r.witness)
    assert abs(abs(x[0]) - 1.0) < 1e-4 and abs(x[1]) < 1e-4
    assert r.margin > 0


def test_feasibility_negative_norm():
    p = fixtures.definite_form(3)
    r = feasibility_sample(LevelProblem(p, (-1.0, 0.0)))
    assert not r.found
    assert r.margin < 0
    assert r.residual >= 0.9


def test_feasibility_planted_witness():
    rng = np.random.default_rng(3)
    for _ in range(10):
        dim = int(rng.integers(2, 6))
        p = fixtures.random_pencil(rng, dim)
        x = rng.standard_normal(dim)
        c = p.evaluate(x)
        r = feasibility_sample(LevelProblem(p, c))
        assert r.found


def test_feasibility_agrees_with_level_set():
    rng = np.random.default_rng(9)
    agreements = 0
    trials = 0
    while trials < 40:
        dim = int(rng.integers(2, 6))
        p = fixtures.random_pencil(rng, dim)
        c = tuple(rng.standard_normal(2) * 1.5)
        r = feasibility_sample(LevelProblem(p, c))
        if abs(r.margin) <= 10 * FEAS_TOL * max(1.0, float(np.hypot(*c))):
            continue
        verdict = level_set_betti(LevelProblem(p, c)).nonempty
        assert verdict == r.found, (dim, c, r.margin)
        agreements += 1
        trials += 1
    assert agreements > 0


def test_a_lapack_failure_in_the_support_margin_is_a_numerical_error(monkeypatch):
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    problem = LevelProblem(fixtures.complex_squaring(), (1.0, 0.0))
    monkeypatch.setattr(np.linalg, "eigvalsh", broken)
    with pytest.raises(NumericalError, match="eigenvalue solver failed"):
        feasibility_sample(problem)


# ---------------------------------------------------------------------------
# monodromy refinement
# ---------------------------------------------------------------------------

def test_inequality_feasibility_squaring_origin():
    problem = LevelProblem(fixtures.complex_squaring(), (0.0, 0.0), mode="ineq")
    r = feasibility_sample(problem)
    assert r.found
    assert math.isinf(r.margin)


def test_oracle_reproducibility():
    a = sample_components(fixtures.bouquet(), ZERO, "projective", seed=5)
    b = sample_components(fixtures.bouquet(), ZERO, "projective", seed=5)
    assert a == b
    problem = LevelProblem(fixtures.complex_squaring(), (0.3, 0.4))
    r1 = feasibility_sample(problem, seed=5)
    r2 = feasibility_sample(problem, seed=5)
    assert r1 == r2


def test_monodromy_refine_squaring():
    p = fixtures.complex_squaring()
    check = monodromy_refine(filtration_report(p, FULL_CIRCLE))
    assert check.stable
    assert check.values == (True, True, True)


def test_monodromy_refine_doubled():
    p = fixtures.doubled_squaring()
    check = monodromy_refine(filtration_report(p, FULL_CIRCLE))
    assert check.stable
    assert check.values == (False, False, False)


def test_monodromy_refine_requires_full_circle():
    p = fixtures.bouquet()
    with pytest.raises(InvalidInputError):
        monodromy_refine(filtration_report(p, FULL_CIRCLE))


def test_analyze_runs_no_transport_and_monodromy_refine_runs_two(monkeypatch):
    calls = []
    transport = oracles.stiefel_whitney

    def counted(*args, **kwargs):
        calls.append(kwargs.get("start_resolution"))
        return transport(*args, **kwargs)

    monkeypatch.setattr(oracles, "stiefel_whitney", counted)
    for name in ("eigh", "svd", "det"):  # the transport's solvers
        def solver(*args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _solve(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, solver)
    for p in (fixtures.complex_squaring(), fixtures.padded_squaring()):
        res = analyze(p, ZERO)
        assert calls == [] and res.table.w1_nonzero is True
        check = monodromy_refine(res.filtration)
        base = check.base_resolution
        assert [c for c in calls if isinstance(c, int) or c is None] == [None, 2 * base]
        assert "eigh" in calls and "det" in calls
        assert check.stable and check.values == (True, True, True)
        calls.clear()


def _congruent_sum(rng, *pencils):
    """The direct sum of the pencils after a random congruence."""
    dim = sum(p.dim for p in pencils)
    qs = np.zeros((2, dim, dim))
    i = 0
    for p in pencils:
        qs[:, i:i + p.dim, i:i + p.dim] = p.q0, p.q1
        i += p.dim
    t = rng.standard_normal((dim, dim))
    return QuadraticPencil(t.T @ qs[0] @ t, t.T @ qs[1] @ t)


def _root_free_pencil(rng, dim):
    """A random pencil of even dim with no real root.

    Each 2 x 2 block (diag(1, -1), [[x, y], [y, -x]]) with y != 0 has
    det M(theta) = -(cos + x sin)^2 - (y sin)^2 < 0; the plane of the pencil
    is then rotated by a random angle.
    """
    blocks = []
    for _ in range(dim // 2):
        x, y = rng.standard_normal(), rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0)
        blocks.append(QuadraticPencil(np.diag([1.0, -1.0]), np.array([[x, y], [y, -x]])))
    p = _congruent_sum(rng, *blocks)
    a = rng.uniform(0.0, 2.0 * PI)
    c, s = math.cos(a), math.sin(a)
    return QuadraticPencil(c * p.q0 + s * p.q1, c * p.q1 - s * p.q0)


def test_w1_from_the_root_count_matches_the_transport():
    # w1 is the parity of the regular part's conjugate root pairs; the
    # transport measures the holonomy itself.  Every pencil here has
    # Omega^mu = S^1, and w1 = (regular dim / 2) mod 2 by construction
    rng = np.random.default_rng(13)
    cases = [(fixtures.complex_squaring(), True), (fixtures.doubled_squaring(), False),
             (fixtures.tripled_squaring(), True), (fixtures.padded_squaring(), True)]
    for dim in range(2, 17, 2):
        cases += [(_root_free_pencil(rng, dim), dim % 4 == 2) for _ in range(12)]
    for eps in (1, 2, 3):
        for regular_dim in (2, 4):
            for _ in range(2):
                p = _congruent_sum(rng, fixtures.kronecker_pair(eps, 0, rng),
                                   _root_free_pencil(rng, regular_dim))
                cases.append((p, regular_dim == 2))
    for k in (1, 2):
        for regular_dim in (2, 4, 6):
            for _ in range(2):
                zero = QuadraticPencil(np.zeros((k, k)), np.zeros((k, k)))
                p = _congruent_sum(rng, zero, _root_free_pencil(rng, regular_dim))
                cases.append((p, regular_dim % 4 == 2))
    answered = {True: 0, False: 0}  # by regular, dim = 2 mu
    for p, expected in cases:
        filt = filtration_report(p, FULL_CIRCLE)
        assert filt.top_fills_circle and filt.w1_nonzero is expected, p.dim
        try:
            w1, _, _ = stiefel_whitney(p, filt.profile)
        except NumericalError:  # past the transport's sample cap
            continue
        assert w1 is expected, p.dim
        answered[p.dim == 2 * filt.mu] += 1
    # measured: 99 of 99 regular and 13 of 25 singular pencils; the certified
    # steps of the singular ones often run past the cap
    assert answered[True] == 99 and answered[False] >= 10, answered


@pytest.mark.parametrize("solver,message", [
    ("eigh", "eigenvalue solver failed"), ("svd", "singular value solver failed"),
    ("det", "determinant solver failed")])
def test_a_lapack_failure_in_the_transport_is_a_numerical_error(monkeypatch, solver,
                                                                 message):
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    p = fixtures.complex_squaring()
    profile = index_profile(p, FULL_CIRCLE)
    monkeypatch.setattr(np.linalg, solver, broken)
    with pytest.raises(NumericalError, match=message):
        stiefel_whitney(p, profile)


# ---------------------------------------------------------------------------
# aggregate verification
# ---------------------------------------------------------------------------

def test_verify_analysis_fixtures():
    for p in [fixtures.bouquet(), fixtures.four_lines(),
              fixtures.complex_squaring()]:
        out = verify_analysis(analyze(p, ZERO))
        assert out["grid_disagreements"] == 0


def test_verify_analysis_random_small():
    rng = np.random.default_rng(60)
    for _ in range(2):
        p = fixtures.random_pencil(rng, 3)
        out = verify_analysis(analyze(p, ZERO))
        assert out["grid_disagreements"] == 0


CONES = [PlanarCone.zero(), PlanarCone.full(), PlanarCone.ray(0.7),
         PlanarCone.line(2.0), PlanarCone.sector(0.3, 1.9), PlanarCone.halfplane(1.1)]


@pytest.mark.parametrize("cone", CONES, ids=lambda c: c.kind)
def test_verify_analysis_every_cone_kind(cone):
    for p in [fixtures.tripled_squaring(), extremal_family(4)]:
        out = verify_analysis(analyze(p, cone))
        assert out["grid_disagreements"] == 0


def test_grid_compares_only_the_profile_domain():
    p = fixtures.bouquet()
    domain = omega_set(PlanarCone.sector(0.3, 1.9))
    prof = index_profile(p, domain)
    grid = grid_index_profile(p)
    assert grid_profile_disagreements(prof, grid) == []
    # a profile that records nothing inside its domain disagrees there
    bad = grid_profile_disagreements(IndexProfile(domain), grid)
    assert bad and all(domain.contains(th) for th in bad)


def _corrupted(values, k):
    """values with the k-th triple moved one eigenvalue from minus to plus."""
    v = values[k]
    return (*values[:k], InertiaTriple(v.i_plus + 1, v.i_minus - 1, v.i_zero), *values[k + 1:])


def test_verify_analysis_rejects_a_corrupted_profile():
    # from COUNT_DIM up the grid counts by the profile's own counter; a
    # corrupted arc is still flagged there
    for p, cone in [(fixtures.tripled_squaring(), PlanarCone.sector(0.3, 1.9)),
                    (fixtures.random_pencil(np.random.default_rng(66), pencil.COUNT_DIM), ZERO),
                    (extremal_family(31), ZERO)]:
        res = analyze(p, cone)
        profile = res.filtration.profile
        k = next(i for i, v in enumerate(profile.cells) if i % 2 and v is not None)
        profile = replace(profile, cells=_corrupted(profile.cells, k))
        with pytest.raises(OracleDisagreement):
            verify_analysis(replace(res, filtration=replace(res.filtration, profile=profile)))


@pytest.mark.parametrize("options", [{"grid_n": 720.5}, {"grid_n": "720"}, {"grid_n": True},
                                     {"seed": 1.5}, {"seed": "1"}, {"seed": False}],
                         ids=["grid-float", "grid-str", "grid-bool",
                              "seed-float", "seed-str", "seed-bool"])
def test_verify_analysis_rejects_an_oracle_option_that_is_not_an_int(options):
    res = analyze(extremal_family(4), ZERO)
    named = re.escape(f"not {next(iter(options.values()))!r}")
    with pytest.raises(InvalidInputError, match=named):
        verify_analysis(res, **options)
    if "grid_n" in options:
        with pytest.raises(InvalidInputError, match=named):
            grid_index_profile(res.filtration.pencil, **options)


# ---------------------------------------------------------------------------
# the grid check against its per-angle rules
# ---------------------------------------------------------------------------

def _disagreements_per_angle(profile, grid):
    """The reference for grid_profile_disagreements: its rules, one angle at a
    time, each cell found by the reference bisection."""
    guard = CLUSTER_TOL
    breakpoints = profile.breakpoint_angles()
    domain = profile.domain
    bad = []
    for th, triple in zip(grid.thetas, grid.triples):
        if not domain.cells[locate(domain.cuts, th)]:
            continue
        if breakpoints and min(
                abs((th - b + PI) % TWO_PI - PI) for b in breakpoints) <= guard:
            continue
        recorded = profile.cells[locate(profile.cuts, th)]
        if recorded is None or recorded != triple:
            bad.append(th)
    return bad


def _checked(profile, grid):
    bad = grid_profile_disagreements(profile, grid)
    assert bad == _disagreements_per_angle(profile, grid)
    return bad


FIXTURE_PENCILS = [fixtures.bouquet, fixtures.complex_squaring, fixtures.doubled_squaring,
                   fixtures.tripled_squaring, fixtures.padded_squaring, fixtures.four_lines,
                   lambda: fixtures.definite_form(3), fixtures.identically_singular_pair,
                   lambda: extremal_family(4), lambda: extremal_family(7)]


@pytest.mark.parametrize("cone", CONES, ids=lambda c: c.kind)
def test_grid_check_equals_the_per_angle_rules(cone):
    rng = np.random.default_rng(61)
    pencils = [make() for make in FIXTURE_PENCILS]
    pencils += [fixtures.random_pencil(rng, dim) for dim in (2, 3, 5, 8, 12)]
    pencils += [extremal_family(n) for n in (10, 20)]
    for p in pencils:
        profile = analyze(p, cone).filtration.profile
        for grid_n in (720, 1999):
            assert _checked(profile, grid_index_profile(p, grid_n=grid_n)) == []


def test_the_verify_grid_check_flags_the_angles_of_the_public_one():
    # verify_analysis keeps the grid's counts in arrays (_grid_check); the
    # public entry points build a GridProfile and read it back, and both
    # must flag the same angles, at even and odd resolutions
    rng = np.random.default_rng(64)
    pencils = [make() for make in FIXTURE_PENCILS]
    pencils += [fixtures.random_pencil(rng, dim) for dim in range(3, 18)]
    sector = omega_set(PlanarCone.sector(0.3, 1.9))
    for p in pencils:
        for domain in (FULL_CIRCLE, sector):
            profile = index_profile(p, domain)
            # the longest held arc's triple moved by one eigenvalue
            cuts = profile.cuts
            if cuts:
                ends = [*cuts[1:], cuts[0] + TWO_PI]
                k = max((i for i, v in enumerate(profile.cells[1::2]) if v is not None),
                        key=lambda i: ends[i] - cuts[i])
                corrupted = replace(profile, cells=_corrupted(profile.cells, 2 * k + 1))
            else:
                corrupted = replace(profile, cells=_corrupted(profile.cells, 0))
            variants = [profile, IndexProfile(domain), corrupted]
            for grid_n in (720, 1999):
                grid = grid_index_profile(p, grid_n=grid_n)
                for i, prof in enumerate(variants):
                    resolution, bad = oracles._grid_check(prof, p, grid_n)
                    public = grid_profile_disagreements(prof, grid)
                    assert resolution == grid.resolution
                    assert bad.tolist() == public, (p.dim, i, grid_n)
                    # only the true profile agrees with the grid
                    assert (public == []) == (i == 0), (p.dim, i, grid_n)


def test_grid_check_reads_a_tuple_built_grid():
    # plain tuples of floats and of triples from a solve of its own, with no
    # shared triples, at a resolution of its own
    rng = np.random.default_rng(62)
    for p in [fixtures.bouquet(), extremal_family(7), fixtures.random_pencil(rng, 6)]:
        thetas = np.linspace(0.0, TWO_PI, 2039, endpoint=False)
        w = np.linalg.eigvalsh(p.at_many(thetas))
        thr = TOL_EIG * p.scale()
        plus, minus = np.sum(w > thr, axis=1), np.sum(w < -thr, axis=1)
        triples = tuple(InertiaTriple(int(a), int(b), p.dim - int(a) - int(b))
                        for a, b in zip(plus, minus))
        grid = GridProfile(len(triples), tuple(map(float, thetas)), triples)
        assert _checked(analyze(p, ZERO).filtration.profile, grid) == []


def test_grid_check_finds_each_corrupted_cell():
    # each value at a cut and on the arc after it, corrupted in turn
    for p, cone in [(fixtures.tripled_squaring(), PlanarCone.sector(0.3, 1.9)),
                    (extremal_family(4), ZERO), (fixtures.bouquet(), PlanarCone.halfplane(1.1)),
                    (fixtures.four_lines(), PlanarCone.ray(0.7))]:
        profile = analyze(p, cone).filtration.profile
        grid = grid_index_profile(p)
        step = TWO_PI / grid.resolution
        cuts = profile.cuts
        for k, c in enumerate(cuts):
            if profile.cells[2 * k] is not None:
                _checked(replace(profile, cells=_corrupted(profile.cells, 2 * k)), grid)
            if profile.cells[2 * k + 1] is not None:
                bad = _checked(replace(profile, cells=_corrupted(profile.cells, 2 * k + 1)), grid)
                end = cuts[k + 1] if k + 1 < len(cuts) else cuts[0] + TWO_PI
                if end - c > 3 * step:
                    cell = CircleSubset.arc(c, end, False, False)
                    assert bad and all(cell.contains(th) for th in bad)


def test_grid_check_of_empty_domains_and_profiles():
    grid = grid_index_profile(fixtures.bouquet())
    assert _checked(IndexProfile(CircleSubset.empty()), grid) == []
    assert _checked(index_profile(fixtures.bouquet(), CircleSubset.empty()), grid) == []
    for domain in [FULL_CIRCLE, omega_set(PlanarCone.sector(0.3, 1.9)),
                   CircleSubset.point(grid.thetas[7])]:
        bad = _checked(IndexProfile(domain), grid)
        assert bad == [th for th in grid.thetas if domain.contains(th)] != []


def _ulps_around(x, count=3):
    out = [x]
    for direction in (math.inf, -math.inf):
        y = x
        for _ in range(count):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


def test_grid_check_on_cell_ends_and_domain_endpoints():
    # grid angles on each cell end (breakpoints, open and closed domain
    # endpoints, the seam of a full-turn arc) and at the tolerance edges
    # around them, a few ulps either way, where the per-angle rules decide;
    # against the true inertia and against a wrong constant one
    tol = TOL_ANGLE
    offsets = [0.0, 1e-3] + [f * tol for f in (0.5, 1.0, 1.5, 2.0, 2.5, 9.5, 10.0, 10.5, 12.0)]
    offsets += [-o for o in offsets]
    rng = np.random.default_rng(63)
    for p in [extremal_family(4), fixtures.bouquet(), fixtures.complex_squaring(),
              fixtures.random_pencil(rng, 5)]:
        for domain in [FULL_CIRCLE, CircleSubset.arc(0.3, 1.9, True, False),
                       CircleSubset.arc(4.0, 0.5, False, True),
                       CircleSubset.arc(5.5, 0.0, False, True), CircleSubset.arc(0.0, 1.0, False, True),
                       CircleSubset.point(0.0).complement(),
                       CircleSubset.point(2.5).union(CircleSubset.arc(3.0, 3.5, True, True))]:
            profile = index_profile(p, domain)
            marks = profile.cuts or (0.0,)  # a constant family's seam
            thetas = sorted({canonical_angle(y) for m in marks for o in offsets
                             for y in _ulps_around(m + o)})
            true = tuple(inertia(p.at(t), scale=p.scale()) for t in thetas)
            _checked(profile, GridProfile(len(thetas), tuple(thetas), true))
            wrong = (InertiaTriple(p.dim, 0, 0),) * len(thetas)
            assert _checked(profile, GridProfile(len(thetas), tuple(thetas), wrong))


def _diagonal_pencil_with_roots(roots):
    """A diagonal pencil whose member at theta is singular exactly where
    cos(theta) sin(-r) + sin(theta) cos(r) = 0: at each r and r + pi."""
    return QuadraticPencil(np.diag([math.sin(-r) for r in roots]),
                           np.diag([math.cos(r) for r in roots]))


def test_grid_check_at_the_guard_distance_and_across_the_seam():
    # grid angles exactly CLUSTER_TOL either side of each breakpoint, and a
    # few ulps either way, with breakpoints on the seam and within CLUSTER_TOL
    # of it on either side, so that the guard's distances reach across it;
    # the check measures them by subtraction and must skip and flag the
    # angles the per-angle rule does, against the true and a wrong inertia
    seams = [0.0, 3e-9, -4e-9, 0.6 * CLUSTER_TOL, -CLUSTER_TOL, 2.5 * CLUSTER_TOL]
    checked = 0
    for near_seam in seams:
        p = _diagonal_pencil_with_roots([near_seam, 0.7, 2.0])
        for domain in [FULL_CIRCLE, CircleSubset.arc(5.0, 1.0, False, True)]:
            profile = index_profile(p, domain)
            bps = profile.breakpoint_angles()
            assert min(min(b, TWO_PI - b) for b in bps) < 3 * CLUSTER_TOL
            thetas = sorted({canonical_angle(y) for b in bps for o in (-CLUSTER_TOL, CLUSTER_TOL)
                             for y in _ulps_around(b + o, 4)})
            true = tuple(inertia(p.at(t), scale=p.scale()) for t in thetas)
            _checked(profile, GridProfile(len(thetas), tuple(thetas), true))
            wrong = (InertiaTriple(p.dim, 0, 0),) * len(thetas)
            bad = _checked(profile, GridProfile(len(thetas), tuple(thetas), wrong))
            # both sides of the guard are reached
            assert 0 < len(bad) < len([t for t in thetas if domain.contains(t)])
            checked += 1
    assert checked == 12


# ---------------------------------------------------------------------------
# exact arithmetic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make,counts", [
    (fixtures.bouquet, (4, 1, 0, False)),
    (fixtures.four_lines, (4, 2, 0, False)),
    (fixtures.complex_squaring, (0, 0, 1, True)),
    (fixtures.doubled_squaring, (0, 0, 2, False)),
    (lambda: fixtures.definite_form(3), (3, 1, 0, False)),
])
def test_exact_locus_counts_of_the_integer_fixtures(make, counts):
    # (real roots with multiplicity, distinct real roots, theta_pairs, square-free)
    assert exact_locus_counts(make()) == counts


def test_an_identically_singular_determinant_has_no_exact_counts():
    assert exact_locus_counts(fixtures.identically_singular_pair()) is None
    assert exact_locus_counts(fixtures.padded_squaring()) is None


def _unimodular(rng, dim):
    """An integer matrix of determinant +-1: a unit triangle, rows permuted."""
    t = np.triu(rng.integers(-2, 3, (dim, dim)), 1) + np.eye(dim, dtype=int)
    return t[rng.permutation(dim)].astype(float)


def test_exact_locus_counts_of_a_pencil_with_only_non_real_roots():
    # blocks s (diag(a, -a), [[0, b], [b, 0]]) have det -s^2 (a^2 x^2 + b^2 y^2):
    # roots at x/y = +-i b/a only.  Mixed by integer congruences, the Sturm
    # sequences' leading coefficients take both signs; a remainder divided by
    # a negative content there would read non-real roots as real
    rng = np.random.default_rng(8)
    blocks = [(1, 1), (1, 2), (2, 3), (3, 1)]
    q0 = np.zeros((8, 8))
    q1 = np.zeros((8, 8))
    for k, (a, b) in enumerate(blocks):
        q0[2 * k:2 * k + 2, 2 * k:2 * k + 2] = np.diag([a, -a])
        q1[2 * k, 2 * k + 1] = q1[2 * k + 1, 2 * k] = b
    for _ in range(5):
        t = _unimodular(rng, 8)
        p = QuadraticPencil(t.T @ q0 @ t, t.T @ q1 @ t)
        assert np.max(np.abs(p.q0)) < 2.0 ** 53
        assert exact_locus_counts(p) == (0, 0, 4, True)
        assert degenerate_locus(p).theta_pairs == 4


def test_exact_inertia_equals_inertia_on_integer_matrices():
    # members x Q0 + y Q1 of integer forms of every rank at integer directions
    rng = np.random.default_rng(3)
    for _ in range(300):
        dim = int(rng.integers(1, 9))
        q0, q1 = (u @ np.diag(rng.choice([-2.0, -1.0, 1.0, 2.0], u.shape[1])) @ u.T
                  for u in (rng.integers(-3, 4, (dim, int(rng.integers(0, dim + 1))))
                            for _ in range(2)))
        x, y = rng.integers(-3, 4, 2).astype(float)
        assert exact_inertia(QuadraticPencil(q0, q1), x, y) == inertia(x * q0 + y * q1)


def test_exact_inertia_pivots_on_a_block_where_the_diagonal_is_zero():
    # no diagonal entry of these is nonzero, so elimination starts with the
    # block [[0, b], [b, 0]]; in the first, the Schur complement's diagonal
    # is zero again
    for m in ([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 3], [0, 0, 3, 0]],
              [[0, 1, 2], [1, 0, 3], [2, 3, 0]],
              [[0, -2, 0], [-2, 0, 0], [0, 0, 0]],
              [[0, 0.5, 1], [0.5, 0, -0.25], [1, -0.25, 0]]):
        m = np.array(m, dtype=float)
        p = QuadraticPencil(np.zeros_like(m), m)
        assert exact_inertia(p, 0.0, 1.0) == inertia(m)
        assert exact_inertia(p, 0.0, -3.0) == inertia(-m)
    assert exact_inertia(QuadraticPencil(np.zeros((4, 4)), np.eye(4)), 1.0, 0.0) == (0, 0, 4)


def test_the_exact_oracle_reads_only_its_own_helpers_and_the_standard_library():
    # the globals the two functions and their helpers read, nested code included
    own = {"ExactLocusCounts", "math", "operator"}
    todo = [oracles.exact_inertia.__code__, oracles.exact_locus_counts.__code__]
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if hasattr(c, "co_names")]
        for name in code.co_names:
            value = vars(oracles).get(name)
            if getattr(value, "__module__", None) == oracles.__name__ and \
                    name.startswith("_") and name not in own:
                own.add(name)
                todo.append(value.__code__)
            elif value is not None:
                assert name in own, name
    assert {"_integer_inertia", "_bareiss_det", "_sturm_count", "_gcd"} <= own
