"""The batched, memoized evaluation of a family's spectrum.

Stacked LAPACK calls solve each matrix of a stack on its own, so every
result must equal the one-angle-at-a-time computation bit for bit.  The
reference runs below solve stacks one matrix per call.
"""

import math

import numpy as np
import pytest

from quadrics import fixtures, pencil
from quadrics.applications import extremal_family
from quadrics.circle import CircleSubset, PlanarCone, omega_set
from quadrics.config import ToleranceConfig
from quadrics.errors import NumericalError
from quadrics.filtration import (
    IndexProfile,
    index_profile,
    regularized_profile,
)
from quadrics.oracles import stiefel_whitney
from quadrics.pencil import (
    FamilySpectrum,
    QuadraticPencil,
    degenerate_locus,
    inertia,
    regularize,
)

TWO_PI = 2 * math.pi
CFG = ToleranceConfig()
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
    """Locus, full-circle profile, cone profile, monodromy and, for an
    identically singular pencil, the regularized profile; a raised error
    stands in for its answer."""
    out = []
    for thunk in (
            lambda: degenerate_locus(p, CFG),
            lambda: index_profile(p, FULL, CFG),
            lambda: index_profile(p, omega_set(PlanarCone.sector(0.3, 1.9)), CFG),
            lambda: stiefel_whitney(p, index_profile(p, FULL, CFG), CFG),
            lambda: regularized_profile(regularize(p, CFG), FULL, CFG)
            if degenerate_locus(p, CFG).identically_singular else None):
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
    reg = regularize(fixtures.identically_singular_pair(), CFG)
    for th, m in zip(thetas, reg.at_many(thetas)):
        assert np.array_equal(m, reg.at(th))
    assert fixtures.bouquet().at_many([]).shape == (0, 4, 4)
    # stacks filled in several slices, a partial one last at dim 41
    many = list(rng.uniform(0.0, TWO_PI, 124))
    for p, angles in [(fixtures.random_pencil(rng, 41), many),
                      (extremal_family(80), [*thetas, *many, *many])]:
        assert len(angles) * p.dim ** 2 > 3 * pencil.AT_MANY_SLICE
        stack = p.at_many(angles)
        assert all(np.array_equal(m, p.at(th)) for th, m in zip(angles, stack))


def test_stacked_inertia_matches_per_angle():
    rng = np.random.default_rng(6)
    thetas = [0.0, *rng.uniform(0.0, TWO_PI, 50)]
    # eigenvalues exactly at the zero threshold, on either side of zero
    thr = CFG.tol_eig * 3.0
    on_threshold = QuadraticPencil(np.diag([-thr, thr, 3.0, -1.0]), np.zeros((4, 4)))
    assert inertia(on_threshold.q0, CFG, scale=3.0) == (1, 1, 2)
    for p in [fixtures.bouquet(), fixtures.four_lines(), fixtures.random_pencil(rng, 9),
              on_threshold, QuadraticPencil(np.zeros((3, 3)), np.zeros((3, 3)))]:
        scale = p.scale()
        spectrum = FamilySpectrum(p, scale, CFG)
        spectrum.prefetch(thetas[:25])
        for th in thetas:
            assert spectrum(th) == inertia(p.at(th), CFG, scale=scale)
            assert spectrum.eigenvalues(th) == np.linalg.eigvalsh(p.at(th)).tolist()


def test_stacked_and_per_angle_inertia_fail_alike(monkeypatch):
    def broken(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    p = fixtures.bouquet()
    monkeypatch.setattr(np.linalg, "eigvalsh", broken)
    with pytest.raises(NumericalError) as single:
        inertia(p.at(0.3), CFG, scale=p.scale())
    with pytest.raises(NumericalError) as stacked:
        FamilySpectrum(p, p.scale(), CFG).prefetch([0.3, 0.7])
    assert str(single.value) == str(stacked.value)
    assert str(single.value) == "eigenvalue solver failed: Eigenvalues did not converge"


def test_spectrum_solves_each_angle_once(monkeypatch):
    calls = []
    original = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a)[0])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    p = fixtures.bouquet()
    spectrum = FamilySpectrum(p, p.scale(), CFG)
    spectrum.prefetch([0.1, 0.2, 0.1])
    first = [spectrum(0.1), spectrum(0.2), spectrum.eigenvalues(0.2)]
    spectrum.prefetch([0.2, 0.3])
    assert [spectrum(0.1), spectrum(0.2), spectrum.eigenvalues(0.2)] == first
    assert calls == [2, 1]


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
    # the sweep covers identically singular pencils through regularization
    assert any(isinstance(a[4], IndexProfile) for a in per_matrix)
    assert all(type(a[3][0]) is bool for a in per_matrix if isinstance(a[3], tuple))


def test_scale_runs_its_svds_once(monkeypatch):
    calls = []
    original = np.linalg.norm

    def counting(*args, **kwargs):
        calls.append(kwargs.get("ord", args[1] if len(args) > 1 else None))
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting)
    p = fixtures.random_pencil(np.random.default_rng(8), 5)
    first = p.scale()
    assert calls == [2, 2]
    index_profile(p, FULL, CFG)
    stiefel_whitney(p, index_profile(p, FULL, CFG), CFG)
    assert p.scale() == first
    assert calls == [2, 2]
    assert first == max(original(p.q0, 2), original(p.q1, 2))
