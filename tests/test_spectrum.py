"""The batched evaluation of a family's spectrum.

Stacked LAPACK calls solve each matrix of a stack on its own, so every
result must equal the one-angle-at-a-time computation bit for bit.  The
reference runs below solve stacks one matrix per call.
"""

import math
import tracemalloc

import numpy as np
import pytest

from quadrics import fixtures, oracles, pencil
from quadrics.applications import extremal_family
from quadrics.betti import analyze
from quadrics.circle import CircleSubset, PlanarCone, omega_set
from quadrics.errors import NumericalError
from quadrics.filtration import index_profile
from quadrics.oracles import stiefel_whitney
from quadrics.pencil import (
    TOL_EIG,
    DegenerateLocus,
    QuadraticPencil,
    degenerate_locus,
    family_counts,
    inertia,
    lapack,
)

TWO_PI = 2 * math.pi
FULL = CircleSubset.full_circle()

FIXTURES = [fixtures.bouquet, fixtures.complex_squaring, fixtures.doubled_squaring,
            fixtures.tripled_squaring, fixtures.padded_squaring, fixtures.four_lines,
            lambda: fixtures.definite_form(3), fixtures.identically_singular_pair,
            lambda: extremal_family(4), lambda: extremal_family(7)]


def _singular_pencil(rng, dim):
    """A random pencil with a shared kernel vector."""
    p = fixtures.random_pencil(rng, dim)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    proj = np.eye(dim) - np.outer(v, v)
    a, b = proj @ p.q0 @ proj, proj @ p.q1 @ proj
    return QuadraticPencil(0.5 * (a + a.T), 0.5 * (b + b.T))


def _random_pencils():
    rng = np.random.default_rng(2011)
    out = [fixtures.random_pencil(rng, dim) for dim in range(3, 17) for _ in range(2)]
    out += [_singular_pencil(rng, dim) for dim in (3, 4, 5, 6)]
    return out


@pytest.fixture
def one_matrix_per_call(monkeypatch):
    """Make numpy's stacked solvers loop over the stack, one matrix per call."""
    def per_matrix(fn):
        def loop(a, *args, **kwargs):
            a = np.asarray(a)
            if a.ndim == 2:
                return fn(a, *args, **kwargs)
            parts = [fn(m, *args, **kwargs) for m in a]
            if isinstance(parts[0], tuple):
                return tuple(np.stack(col) for col in zip(*parts))
            return np.stack(parts)
        return loop

    for name in ("eigvalsh", "eigh", "svd", "det"):
        monkeypatch.setattr(np.linalg, name, per_matrix(getattr(np.linalg, name)))


def _answers(p):
    """Locus, full-circle profile, cone profile and monodromy; a raised error
    stands in for its answer."""
    out = []
    for thunk in (
            lambda: degenerate_locus(p),
            lambda: index_profile(p, FULL),
            lambda: index_profile(p, omega_set(PlanarCone.sector(0.3, 1.9))),
            lambda: stiefel_whitney(p, index_profile(p, FULL))):
        try:
            out.append(thunk())
        except NumericalError as exc:
            out.append(str(exc))
    return out


def test_at_many_slices_equal_at_bitwise():
    rng = np.random.default_rng(5)
    thetas = [0.0, 1e-300, 0.5, math.pi / 2, math.pi, 4.0, TWO_PI - 1e-12,
              *np.linspace(0.0, TWO_PI, 37, endpoint=False)]
    for p in [f() for f in FIXTURES] + [fixtures.random_pencil(rng, 7)]:
        stack = p.at_many(thetas)
        assert stack.shape == (len(thetas), p.dim, p.dim)
        for th, m in zip(thetas, stack):
            assert np.array_equal(m, p.at(th))
            assert np.array_equal(m, m.T)
    assert fixtures.bouquet().at_many([]).shape == (0, 4, 4)
    # stacks filled in several slices, a partial one last at dim 41
    many = list(rng.uniform(0.0, TWO_PI, 124))
    for p, angles in [(fixtures.random_pencil(rng, 41), many),
                      (extremal_family(80), [*thetas, *many, *many])]:
        assert len(angles) * p.dim ** 2 > 3 * pencil.AT_MANY_SLICE
        stack = p.at_many(angles)
        assert all(np.array_equal(m, p.at(th)) for th, m in zip(angles, stack))


THR = TOL_EIG * 3.0


def _on_threshold_pencil(dim: int) -> QuadraticPencil:
    """A diagonal pencil of scale 3 whose member at angle 0 has eigenvalues
    exactly at +-TOL_EIG * scale: two from dim 4, more every fourth entry."""
    cycle = (-0.5, 2.0, THR, -THR)
    q0 = np.diag([-THR, THR, 3.0, -1.0, *(cycle[i % 4] for i in range(dim - 4))])
    return QuadraticPencil(q0, np.diag(np.linspace(-1.0, 1.0, dim)))


def _counts(triples) -> tuple[list[int], list[int]]:
    """The (i_plus, i_minus) lists of inertia triples, as family_counts gives them."""
    return [t.i_plus for t in triples], [t.i_minus for t in triples]


def _scaled(p: QuadraticPencil, factor: float) -> QuadraticPencil:
    return QuadraticPencil(p.q0 * factor, p.q1 * factor)


SCALES = (1e150, 1e-150, 1e200, 1e-200)


def _count_path_pencils():
    """Pencils at and past COUNT_DIM, which family_counts counts by Sturm."""
    rng = np.random.default_rng(16)
    dim = pencil.COUNT_DIM
    big = fixtures.random_pencil(rng, dim + 7)
    return [fixtures.random_pencil(rng, dim), big, extremal_family(dim - 1),
            extremal_family(40), _on_threshold_pencil(dim),
            *(_scaled(big, f) for f in SCALES),
            QuadraticPencil(np.zeros((dim, dim)), np.zeros((dim, dim)))]


def test_stacked_inertia_matches_per_angle():
    rng = np.random.default_rng(6)
    thetas = [0.0, *rng.uniform(0.0, TWO_PI, 50)]
    for dim in (4, pencil.COUNT_DIM):
        w = np.diag(_on_threshold_pencil(dim).q0)
        ties = int(np.sum(np.abs(w) == THR))
        assert ties >= dim // 4
        assert inertia(np.diag(w), scale=3.0) == \
            (int(np.sum(w > 0)) - ties // 2, int(np.sum(w < 0)) - ties // 2, ties)
    small = [fixtures.bouquet(), fixtures.four_lines(), fixtures.random_pencil(rng, 9),
             _on_threshold_pencil(4), QuadraticPencil(np.zeros((3, 3)), np.zeros((3, 3)))]
    for p in small + _count_path_pencils():
        scale = p.scale()
        # the first 25 angles in one stack, the rest one per call
        values = list(zip(*family_counts(p, thetas[:25], scale)))
        values += [v for th in thetas[25:] for v in zip(*family_counts(p, [th], scale))]
        for th, v in zip(thetas, values, strict=True):
            assert v == inertia(p.at(th), scale=scale)[:2], (p.dim, th)
    # the counts do not depend on the pencil's scale
    big = _count_path_pencils()[1]
    reference = family_counts(big, thetas, big.scale())
    for f in SCALES:
        assert family_counts(_scaled(big, f), thetas, big.scale() * f) == reference, f


def test_stacked_and_per_angle_inertia_fail_alike(monkeypatch):
    def broken(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    p = fixtures.bouquet()
    monkeypatch.setattr(np.linalg, "eigvalsh", broken)
    with pytest.raises(NumericalError) as single:
        inertia(p.at(0.3), scale=p.scale())
    with pytest.raises(NumericalError) as stacked:
        family_counts(p, [0.3, 0.7], p.scale())
    assert str(single.value) == str(stacked.value)
    assert str(single.value) == "eigenvalue solver failed: Eigenvalues did not converge"


def test_spectrum_solves_each_angle_once(monkeypatch):
    # every angle given, a repeated one too, is solved once and in order:
    # members below COUNT_DIM by one stacked eigvalsh call, larger ones by
    # one dsytrd reduction each and no eigvalsh
    calls = []
    eigvalsh, dsytrd = np.linalg.eigvalsh, lapack.dsytrd

    def counting_eigvalsh(a, *args, **kwargs):
        calls.append(("eigvalsh", np.shape(a)[0]))
        return eigvalsh(a, *args, **kwargs)

    def counting_dsytrd(a, *args, **kwargs):
        calls.append(("dsytrd", np.shape(a)[0]))
        return dsytrd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(lapack, "dsytrd", counting_dsytrd)
    dim = pencil.COUNT_DIM
    for p, solves in [
            (fixtures.bouquet(), [("eigvalsh", 4)]),
            (fixtures.random_pencil(np.random.default_rng(9), dim), [("dsytrd", dim)] * 4)]:
        scale = p.scale()
        thetas = [0.1, 0.2, 0.1, 0.4]
        reference = [inertia(p.at(th), scale=scale) for th in thetas]
        calls.clear()
        assert family_counts(p, thetas, scale) == _counts(reference)
        assert calls == solves, p.dim
        calls.clear()
        assert family_counts(p, [], scale) == ([], []) and calls == [], p.dim


def test_a_failed_tridiagonal_reduction_is_a_numerical_error(monkeypatch):
    dsytrd = lapack.dsytrd

    def failing(*args, **kwargs):
        return (*dsytrd(*args, **kwargs)[:-1], 1)

    monkeypatch.setattr(lapack, "dsytrd", failing)
    p = fixtures.random_pencil(np.random.default_rng(10), pencil.COUNT_DIM)
    with pytest.raises(NumericalError, match="tridiagonal reduction failed: dsytrd info 1"):
        family_counts(p, [0.3, 0.7], p.scale())
    with pytest.raises(NumericalError, match="dsytrd info 1"):
        index_profile(p, FULL)
    # below COUNT_DIM the profile makes no dsytrd call
    index_profile(fixtures.random_pencil(np.random.default_rng(10), pencil.COUNT_DIM - 1),
                  FULL)


def _counts_by_eigvalsh(stack: np.ndarray, thr: float) -> list[tuple[int, int]]:
    w = np.linalg.eigvalsh(stack)
    return list(zip(np.sum(w > thr, axis=1).tolist(), np.sum(w < -thr, axis=1).tolist()))


def test_sturm_counts_match_eigvalsh_across_count_dim():
    # _sturm_inertia against eigvalsh's counts at every dimension, read at
    # random angles, exactly at every locus root and 1e-7 and 1e-9 off it
    rng = np.random.default_rng(15)
    pencils = [make() for make in FIXTURES]
    pencils += [fixtures.random_pencil(rng, dim) for dim in
                (*range(2, 65, 3), *range(pencil.COUNT_DIM - 3, pencil.COUNT_DIM + 4))]
    pencils += [extremal_family(n) for n in (1, 2, 5, 10, 20, 23, 24, 30, 40)]
    pencils += _count_path_pencils()
    angles = 0
    for p in pencils:
        s = p.scale()
        thr = TOL_EIG * s
        roots = degenerate_locus(p).angles if s > 0.0 else []
        thetas = [0.0, *rng.uniform(0.0, TWO_PI, 12).tolist()]
        thetas += [r + d for r in roots for d in (0.0, -1e-7, 1e-7, -1e-9, 1e-9)]
        plus, minus = pencil._sturm_inertia(p, thetas, s, thr)
        assert list(zip(plus.tolist(), minus.tolist())) == \
            _counts_by_eigvalsh(p.at_many(thetas), thr), p.dim
        angles += len(thetas)
    assert angles > 5000


def test_sturm_counts_after_a_zero_pivot_match_eigvalsh():
    # the member at angle 0 is diagonal with entries exactly +-thr: exactly
    # zero pivots, and NaN pivots (0/0) after them in the pass without the
    # pivmin guard, so only the guarded rerun counts those eigenvalues as
    # zero, as eigvalsh does; the generic member beside it is counted alike
    p = _on_threshold_pencil(pencil.COUNT_DIM)
    thetas = [0.0, 0.5]
    plus, minus = pencil._sturm_inertia(p, thetas, p.scale(), THR)
    assert list(zip(plus.tolist(), minus.tolist())) == \
        _counts_by_eigvalsh(p.at_many(thetas), THR)


def _sturm_pass_every_row(d, e, thr):
    """The reference for pencil._sturm_pass: the recurrence of Barth, Martin
    and Wilkinson with its first pass stepping every row, and whether the
    pivmin-guarded rerun ran."""
    dim, k = d.shape
    shifted = np.concatenate([d - thr, d + thr], axis=1)
    e2 = np.square(e)
    e2 = np.concatenate([e2, e2], axis=1)
    pivmin = float(np.finfo(float).tiny) * max(1.0, float(e2.max(initial=0.0)))
    q = shifted.copy()
    with np.errstate(all="ignore"):
        for j in range(1, dim):
            q[j] -= e2[j - 1] / q[j - 1]
    rerun = not (np.abs(q) >= pivmin).all()
    if rerun:
        q = shifted.copy()
        with np.errstate(all="ignore"):
            for j in range(dim):
                if j:
                    q[j] -= e2[j - 1] / q[j - 1]
                tiny = np.abs(q[j]) < pivmin
                q[j, :k][tiny[:k]] = -pivmin
                q[j, k:][tiny[k:]] = pivmin
    below = np.count_nonzero(q < 0.0, axis=0)
    return dim - below[:k], below[k:], rerun


def test_the_sturm_pass_skips_only_uncoupled_rows():
    # the pass steps only rows whose subdiagonal is nonzero in some member;
    # on stacks with rows uncoupled in every member, in some members only,
    # pivots exactly at +-thr and exact zero pivots that force the guarded
    # rerun, it must count as the full recurrence does, count for count
    rng = np.random.default_rng(33)
    thr = 0.25
    values = np.array([-1.0, -thr, 0.0, thr, 1.0, 2.5])
    reruns = set()
    stacks = 0
    for dim in (1, 2, 3, 5, 8, 17):
        for trial in range(40):
            k = int(rng.integers(1, 9))
            d = rng.standard_normal((dim, k))
            e = rng.standard_normal((dim - 1, k))
            if trial % 4 != 3:  # entries exactly at 0 and +-thr
                d = np.where(rng.random((dim, k)) < 0.4, rng.choice(values, (dim, k)), d)
            e[rng.random(dim - 1) < 0.5] = 0.0  # uncoupled in every member
            if trial % 2:  # and some entries uncoupled in some members only
                e[rng.random((dim - 1, k)) < 0.3] = 0.0
            if trial % 5 == 0:  # diagonal, as extremal_family's members
                e[:] = 0.0
            plus, minus = pencil._sturm_pass(d, e, thr)
            ref_plus, ref_minus, rerun = _sturm_pass_every_row(d, e, thr)
            assert plus.tolist() == ref_plus.tolist(), (dim, trial)
            assert minus.tolist() == ref_minus.tolist(), (dim, trial)
            reruns.add(rerun)
            stacks += 1
    assert reruns == {False, True} and stacks == 240


def test_a_buffer_built_member_equals_at_bit_for_bit():
    rng = np.random.default_rng(27)
    thetas = [0.0, math.pi / 2, math.pi, -1.0, *rng.uniform(-10.0, 10.0, 20).tolist()]
    big = fixtures.random_pencil(rng, pencil.COUNT_DIM + 5)
    for p in [fixtures.bouquet(), fixtures.identically_singular_pair(), big,
              _scaled(big, 1e-200), extremal_family(40)]:
        members = [m.copy() for m in pencil._members(p, thetas)]
        assert [m.tobytes() for m in members] == [p.at(t).tobytes() for t in thetas], p.dim


def test_streamed_tridiagonals_equal_the_stacked_reduction():
    # one member at a time, reduced in its reused buffer, against dsytrd on
    # each member of the at_many stack
    rng = np.random.default_rng(28)
    for dim in (24, 41, 48, 64):
        for p in (fixtures.random_pencil(rng, dim), extremal_family(dim - 1)):
            thetas = [0.0, *rng.uniform(0.0, TWO_PI, 20).tolist()]
            d, e = pencil._tridiagonal(p, thetas)
            for i, m in enumerate(p.at_many(thetas)):
                _, ds, es, _, info = lapack.dsytrd(m.T, lower=1, overwrite_a=1)
                assert info == 0
                assert (d[i].tobytes(), e[i].tobytes()) == (ds.tobytes(), es.tobytes()), dim


def _tridiagonal_pencil(rng, dim: int) -> QuadraticPencil:
    forms = []
    for _ in range(2):
        sub = rng.standard_normal(dim - 1)
        forms.append(np.diag(rng.standard_normal(dim)) + np.diag(sub, 1) + np.diag(sub, -1))
    return QuadraticPencil(*forms)


def _dsytrd_rows(p: QuadraticPencil, thetas) -> tuple[bytes, bytes]:
    """The rows dsytrd gives each member, as bytes."""
    d = np.empty((len(thetas), p.dim))
    e = np.empty((len(thetas), p.dim - 1))
    for i, m in enumerate(p.at_many(thetas)):
        _, d[i], e[i], _, info = lapack.dsytrd(m.T, lower=1, overwrite_a=1)
        assert info == 0
    return d.tobytes(), e.tobytes()


def _counting_dsytrd(monkeypatch) -> list:
    """Patch lapack.dsytrd to record each call; returns the record."""
    calls = []
    dsytrd = lapack.dsytrd

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a)[0])
        return dsytrd(a, *args, **kwargs)

    monkeypatch.setattr(lapack, "dsytrd", counting)
    return calls


def test_tridiagonal_pencils_are_read_without_a_reduction(monkeypatch):
    # both forms tridiagonal: _tridiagonal reads every member's rows, with no
    # dsytrd call, and they are dsytrd's bit for bit, at dims on both sides
    # of LAPACK's blocked reduction; the counts are per-angle inertia()'s
    rng = np.random.default_rng(31)
    square = fixtures.complex_squaring()
    dim = pencil.COUNT_DIM
    pencils = [extremal_family(n) for n in (*range(dim - 1, dim + 4), 127)]
    pencils += [QuadraticPencil(np.kron(np.eye(k), square.q0), np.kron(np.eye(k), square.q1))
                for k in (dim // 2, 20, 65)]
    pencils += [_tridiagonal_pencil(rng, d) for d in (16, 17, 31, 32, 33, 64, 65, 129, 200)]
    pencils += [_scaled(pencils[-1], 1e-200), _scaled(pencils[-3], 1e200)]
    for p in pencils:
        thetas = [0.0, math.pi / 2, math.pi, 4.0, *rng.uniform(0.0, TWO_PI, 12).tolist()]
        thetas += [r + t for r in degenerate_locus(p).angles[:8] for t in (0.0, 1e-9)]
        reference = _dsytrd_rows(p, thetas)
        scale = p.scale()
        per_angle = [inertia(p.at(th), scale=scale) for th in thetas]
        calls = _counting_dsytrd(monkeypatch)
        d, e = pencil._tridiagonal(p, thetas)
        assert (d.tobytes(), e.tobytes()) == reference, p.dim
        assert family_counts(p, thetas, scale) == _counts(per_angle), p.dim
        assert calls == [], p.dim
        monkeypatch.undo()


def test_a_pencil_tridiagonal_in_one_form_is_reduced_member_by_member(monkeypatch):
    rng = np.random.default_rng(32)
    dim = pencil.COUNT_DIM + 1
    band = _tridiagonal_pencil(rng, dim)
    dense = fixtures.random_pencil(rng, dim)
    thetas = [0.0, 0.3, 2.0, math.pi, 5.0]
    for p in (dense, QuadraticPencil(band.q0, dense.q1), QuadraticPencil(dense.q0, band.q1),
              QuadraticPencil(np.diag(np.diag(band.q0)), dense.q1)):
        reference = _dsytrd_rows(p, thetas)
        scale = p.scale()
        per_angle = [inertia(p.at(th), scale=scale) for th in thetas]
        calls = _counting_dsytrd(monkeypatch)
        d, e = pencil._tridiagonal(p, thetas)
        assert calls == [dim] * len(thetas)
        assert (d.tobytes(), e.tobytes()) == reference
        assert family_counts(p, thetas, scale) == _counts(per_angle)
        monkeypatch.undo()


def test_one_bound_splits_the_count_paths_of_the_grid_and_the_profile(monkeypatch):
    # below COUNT_DIM the grid oracle counts with its own Householder
    # reduction (no eigvalsh or dsytrd call) and the profile solves by
    # eigvalsh (no dsytrd call); from COUNT_DIM up neither calls eigvalsh.
    # The grid reads the bound at call time, so one assignment moves both
    calls = []
    eigvalsh, dsytrd = np.linalg.eigvalsh, lapack.dsytrd

    def counting_eigvalsh(a, *args, **kwargs):
        calls.append("eigvalsh")
        return eigvalsh(a, *args, **kwargs)

    def counting_dsytrd(a, *args, **kwargs):
        calls.append("dsytrd")
        return dsytrd(a, *args, **kwargs)

    def paths(p):
        """The solvers the grid, then the full-circle profile, call on p."""
        locus = degenerate_locus(p)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        monkeypatch.setattr(lapack, "dsytrd", counting_dsytrd)
        calls.clear()
        oracles._grid_counts(p, 720)
        grid = set(calls)
        calls.clear()
        index_profile(p, FULL, locus)
        profile = set(calls)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        monkeypatch.setattr(lapack, "dsytrd", dsytrd)
        return grid, profile

    rng = np.random.default_rng(36)
    dim = pencil.COUNT_DIM
    for p in (fixtures.random_pencil(rng, dim - 1), extremal_family(dim - 2)):
        assert paths(p) == (set(), {"eigvalsh"}), p.dim
    for p in (fixtures.random_pencil(rng, dim), fixtures.random_pencil(rng, dim + 8)):
        assert paths(p) == ({"dsytrd"}, {"dsytrd"}), p.dim
    assert paths(extremal_family(dim - 1)) == (set(), set())  # read without a reduction
    monkeypatch.setattr(pencil, "COUNT_DIM", 0)
    assert paths(fixtures.random_pencil(rng, 5)) == ({"dsytrd"}, {"dsytrd"})


def test_the_count_path_holds_one_member_at_a_time():
    # the full-circle profile of extremal_family(128) counts 387 members of
    # dim 129, whose stack alone would take 51.5 MB
    p = extremal_family(128)
    tracemalloc.start()
    try:
        analyze(p, PlanarCone.zero())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6

@pytest.mark.parametrize("make", FIXTURES)
def test_fixture_answers_match_one_matrix_per_call(make, monkeypatch, one_matrix_per_call):
    per_matrix = _answers(make())
    monkeypatch.undo()
    assert _answers(make()) == per_matrix


def test_random_answers_match_one_matrix_per_call(monkeypatch, one_matrix_per_call):
    pencils = _random_pencils()
    per_matrix = [_answers(p) for p in pencils]
    monkeypatch.undo()
    assert [_answers(p) for p in pencils] == per_matrix
    # the sweep covers identically singular pencils
    assert any(isinstance(a[0], DegenerateLocus) and a[0].identically_singular
               for a in per_matrix)
    assert all(type(a[3][0]) is bool for a in per_matrix if isinstance(a[3], tuple))


def test_scale_runs_its_svds_once(monkeypatch):
    calls = []
    original = lapack.dgesdd

    def counting(*args, **kwargs):
        calls.append(kwargs.get("compute_uv"))
        return original(*args, **kwargs)

    monkeypatch.setattr(lapack, "dgesdd", counting)
    p = fixtures.random_pencil(np.random.default_rng(8), 5)
    first = p.scale()
    assert calls == [0, 0]
    index_profile(p, FULL)
    stiefel_whitney(p, index_profile(p, FULL))
    assert p.scale() == first
    assert calls == [0, 0]
    assert first == max(np.linalg.norm(p.q0, 2), np.linalg.norm(p.q1, 2))
