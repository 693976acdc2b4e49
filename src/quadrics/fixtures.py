"""Named example pencils used across tests, scripts and the CLI."""

from __future__ import annotations

import numpy as np

from .pencil import QuadraticPencil


def bouquet() -> QuadraticPencil:
    """q0 = x1^2 + 2 x0 x2 - x3^2, q1 = x1 x2 on R^4.

    The common zero locus in projective 3-space is a bouquet of three circles.
    """
    q0 = np.zeros((4, 4))
    q0[1, 1] = 1.0
    q0[0, 2] = q0[2, 0] = 1.0
    q0[3, 3] = -1.0
    q1 = np.zeros((4, 4))
    q1[1, 2] = q1[2, 1] = 0.5
    return QuadraticPencil(q0, q1)


def complex_squaring() -> QuadraticPencil:
    """q0 = x0^2 - x1^2, q1 = 2 x0 x1: the map z -> z^2 on C = R^2."""
    q0 = np.array([[1.0, 0.0], [0.0, -1.0]])
    q1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    return QuadraticPencil(q0, q1)


def doubled_squaring() -> QuadraticPencil:
    """Two orthogonal copies of the squaring pair on R^4; monodromy preserves
    orientation, unlike the single copy."""
    sq = complex_squaring()
    z = np.zeros((2, 2))
    q0 = np.block([[sq.q0, z], [z, sq.q0]])
    q1 = np.block([[sq.q1, z], [z, sq.q1]])
    return QuadraticPencil(q0, q1)


def tripled_squaring() -> QuadraticPencil:
    """Three orthogonal copies of the squaring pair on R^6."""
    sq = complex_squaring()
    q0 = np.kron(np.eye(3), sq.q0)
    q1 = np.kron(np.eye(3), sq.q1)
    return QuadraticPencil(q0, q1)


def padded_squaring() -> QuadraticPencil:
    """The squaring pair on R^3 with a decoupled zero coordinate: the family
    is singular at every angle yet has constant positive index one."""
    sq = complex_squaring()
    return QuadraticPencil(np.pad(sq.q0, (0, 1)), np.pad(sq.q1, (0, 1)))


def four_lines() -> QuadraticPencil:
    """q0 = x0^2 - x2^2, q1 = x1^2 - x3^2: four projective lines forming a
    wedge of five circles.  The determinant has two double roots."""
    return QuadraticPencil(np.diag([1.0, 0.0, -1.0, 0.0]),
                           np.diag([0.0, 1.0, 0.0, -1.0]))


def definite_form(dim: int) -> QuadraticPencil:
    """q0 the unit form, q1 = 0: empty zero locus."""
    return QuadraticPencil(np.eye(dim), np.zeros((dim, dim)))


def identically_singular_pair() -> QuadraticPencil:
    """Q0 = Q1 = diag(1, 0): the determinant vanishes identically."""
    m = np.diag([1.0, 0.0])
    return QuadraticPencil(m, m)


def random_pencil(rng: np.random.Generator, dim: int) -> QuadraticPencil:
    a = rng.standard_normal((dim, dim))
    b = rng.standard_normal((dim, dim))
    return QuadraticPencil(0.5 * (a + a.T), 0.5 * (b + b.T))


def kronecker_pair(eps: int, regular_dim: int, rng: np.random.Generator) -> QuadraticPencil:
    """An L_eps + L_eps' block and a random regular block, after a random
    congruence.  The block [[0, L], [L', 0]], L = cos(t) [I 0] + sin(t) [0 I]
    of size eps x (eps + 1), has inertia (eps, eps, 1) at every angle and a
    kernel that turns with it: det vanishes identically, no kernel is shared.
    """
    k = 2 * eps + 1
    regular = rng.standard_normal((2, regular_dim, regular_dim))
    qs = np.zeros((2, k + regular_dim, k + regular_dim))
    for q, e, r in zip(qs, (np.eye(eps, eps + 1), np.eye(eps, eps + 1, 1)), regular):
        q[:eps, eps:k] = e
        q[eps:k, :eps] = e.T
        q[k:, k:] = 0.5 * (r + r.T)
    t = rng.standard_normal(qs.shape[1:])
    return QuadraticPencil(t.T @ qs[0] @ t, t.T @ qs[1] @ t)


NAMED_FIXTURES = {
    "bouquet": bouquet,
    "complex-squaring": complex_squaring,
    "doubled-squaring": doubled_squaring,
    "four-lines": four_lines,
}


def cone_zero_problem(p: QuadraticPencil) -> dict:
    """Problem JSON for a pencil with the zero cone."""
    data = p.to_json()
    data["cone"] = {"kind": "zero", "generators": []}
    return data
