"""Print the library's answers on a fixed input set, and one digest of them.

One line per input: its label, then the JSON answer or the exception it
raised.  The inputs are every named fixture and small extremal pencil under
every cone kind, a seeded sweep of random pencils of dims 3-16, random
identically singular pencils, membership and level-set queries, and, past
dim 20, three random pencils each at dims 24, 32 and 48, the extremal
pencils for n = 20 and 40, Kronecker-singular pencils (an L_eps + L_eps'
block for eps = 1, 2, 3 and a random regular block, after a random
congruence) and the pencil q0 = 2 x0 x1, q1 = 2 x0 x2 under every cone
kind; the circle subsets that the cones' polar traces and the half
circles build, the half circles at angles on and near the seam 0; last,
betti_y, betti_complement, half_circle_bound at eta = 0.17, euler_x and
is_empty_x of every named fixture and small extremal pencil under every
cone kind, and calabi of each.  An
analysis answer carries the profile's breakpoints and rows, and
the JSON and component count of each superlevel set; a membership answer
carries the certificate's angle and margin.  The last line is the SHA-256
of all the others, so two versions of the library give the same answers
when they print the same digest:

    python scripts/answer_digest.py                     # this checkout
    python scripts/answer_digest.py --src OTHER/src     # another checkout
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 20110622
CONES = (("zero", ()), ("full", ()), ("ray", (0.7,)), ("line", (2.0,)),
         ("sector", (0.3, 1.9)), ("halfplane", (1.1,)))
HALF_CIRCLE_ANGLES = (0.0, np.pi / 2, np.pi, 3 * np.pi / 2, -1e-10, 2 * np.pi - 5e-10, 7.0)
ETA = 0.17


def _random_pair(rng, dim):
    a = rng.standard_normal((dim, dim))
    b = rng.standard_normal((dim, dim))
    return 0.5 * (a + a.T), 0.5 * (b + b.T)


def _singular_pair(rng, dim):
    """A random pair with a shared kernel vector: det vanishes identically."""
    q0, q1 = _random_pair(rng, dim)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    proj = np.eye(dim) - np.outer(v, v)
    a, b = proj @ q0 @ proj, proj @ q1 @ proj
    return 0.5 * (a + a.T), 0.5 * (b + b.T)


def _kronecker_pair(rng, eps, regular_dim):
    """An L_eps + L_eps' block and a random regular block, after a random
    congruence: det vanishes identically with no shared kernel.  The same
    construction as fixtures.kronecker_pair, built here so that a checkout
    without that fixture digests the same inputs."""
    k = 2 * eps + 1
    regular = rng.standard_normal((2, regular_dim, regular_dim))
    qs = np.zeros((2, k + regular_dim, k + regular_dim))
    for q, e, r in zip(qs, (np.eye(eps, eps + 1), np.eye(eps, eps + 1, 1)), regular):
        q[:eps, eps:k] = e
        q[eps:k, :eps] = e.T
        q[k:, k:] = 0.5 * (r + r.T)
    t = rng.standard_normal(qs.shape[1:])
    return t.T @ qs[0] @ t, t.T @ qs[1] @ t


def inputs(Q):
    """(label, thunk) for every input, in a fixed order."""
    fx, apps = Q.fixtures, Q.applications
    pencils = {name: getattr(fx, name)() for name in (
        "bouquet", "complex_squaring", "doubled_squaring", "tripled_squaring",
        "padded_squaring", "four_lines", "identically_singular_pair")}
    pencils["definite_form-3"] = fx.definite_form(3)
    for n in range(1, 9):
        pencils[f"extremal-{n}"] = apps.extremal_family(n)
    out = []
    for name, p in pencils.items():
        for kind, args in CONES:
            cone = getattr(Q.PlanarCone, kind)(*args)
            out.append((f"{name}/{kind}", lambda p=p, cone=cone: analysis(Q, p, cone)))
    rng = np.random.default_rng(SEED)
    zero = Q.PlanarCone.zero()
    for dim in range(3, 17):
        for i in range(6):
            p = Q.QuadraticPencil(*_random_pair(rng, dim))
            out.append((f"random-{dim}-{i}", lambda p=p: analysis(Q, p, zero)))
    for dim in range(3, 7):
        for i in range(3):
            p = Q.QuadraticPencil(*_singular_pair(rng, dim))
            out.append((f"singular-{dim}-{i}", lambda p=p: analysis(Q, p, zero)))
    for dim in range(3, 7):
        for i in range(4):
            q0, q1 = _random_pair(rng, dim)
            p = Q.QuadraticPencil(q0, q1)
            x = rng.standard_normal(dim)
            y = (float(x @ q0 @ x), float(x @ q1 @ x))
            c = (float(rng.standard_normal()), float(rng.standard_normal()))
            out.append((f"member-{dim}-{i}",
                        lambda p=p, c=c: membership(apps.image_membership(p, c))))
            out.append((f"level-set-{dim}-{i}", lambda p=p, y=y: level(
                apps.level_set_betti(apps.LevelProblem(p, y)))))
            out.append((f"ineq-level-set-{dim}-{i}", lambda p=p, c=c: level(
                apps.inequality_level_set(apps.LevelProblem(p, c, mode="ineq")))))
    for dim in (24, 32, 48):
        for i in range(3):
            p = Q.QuadraticPencil(*_random_pair(rng, dim))
            out.append((f"random-{dim}-{i}", lambda p=p: analysis(Q, p, zero)))
    for n in (20, 40):
        p = apps.extremal_family(n)
        out.append((f"extremal-{n}/zero", lambda p=p: analysis(Q, p, zero)))
    rng = np.random.default_rng(SEED + 1)
    for eps in (1, 2, 3):
        for regular_dim in (0, 2, 3):
            p = Q.QuadraticPencil(*_kronecker_pair(rng, eps, regular_dim))
            out.append((f"kronecker-{eps}-{regular_dim}",
                        lambda p=p: analysis(Q, p, zero)))
    q0, q1 = np.zeros((3, 3)), np.zeros((3, 3))
    q0[0, 1] = q0[1, 0] = q1[0, 2] = q1[2, 0] = 1.0
    p = Q.QuadraticPencil(q0, q1)
    for kind, args in CONES:
        cone = getattr(Q.PlanarCone, kind)(*args)
        out.append((f"x0x1-x0x2/{kind}", lambda p=p, cone=cone: analysis(Q, p, cone)))
    circle = Q.circle
    quadrant = Q.PlanarCone.nonpositive_quadrant()
    cones = [(kind, getattr(Q.PlanarCone, kind)(*args)) for kind, args in CONES]
    for kind, cone in cones + [("nonpositive_quadrant", quadrant)]:
        out.append((f"omega_set/{kind}", lambda cone=cone: Q.omega_set(cone).to_json()))
    for t in HALF_CIRCLE_ANGLES:
        out.append((f"open_half_circle/{t!r}", lambda t=t: circle.open_half_circle(t).to_json()))
        out.append((f"closed_half_circle/{t!r}",
                    lambda t=t: circle.closed_half_circle(t).to_json()))
        out.append((f"quadrant-open_half_circle/{t!r}", lambda t=t: Q.omega_set(quadrant)
                    .intersect(circle.open_half_circle(t)).to_json()))
    for name, p in pencils.items():
        for kind, cone in cones:
            for call, thunk in homology_calls(Q, p, cone):
                out.append((f"{call}/{name}/{kind}", thunk))
        out.append((f"calabi/{name}", lambda p=p: apps.calabi(
            Q.filtration_for_cone(p, Q.PlanarCone.zero())).to_json()))
    return out


def homology_calls(Q, p, cone):
    """(name, thunk) of each homology call on the pencil over the cone."""
    B = Q.betti

    def filt():
        return Q.filtration_for_cone(p, cone)

    return [
        ("betti_y", lambda: [[e.k, e.determined, e.reduced, e.absolute, e.transfer_bound]
                             for e in B.betti_y(filt())]),
        ("betti_complement", lambda: B.betti_complement(filt())),
        ("half_circle_bound", lambda: B.half_circle_bound(filt(), ETA)),
        ("euler_x", lambda: B.euler_x(filt())),
        ("is_empty_x", lambda: emptiness(Q.applications.is_empty_x(p, cone))),
    ]


def analysis(Q, p, cone):
    res = Q.analyze(p, cone)
    data = Q.result_json(res)
    data["breakpoints"] = [round(b, 10)
                           for b in res.filtration.profile.breakpoint_angles()]
    data["rows"] = [list(r) for r in res.filtration.profile.rows()]
    data["omega"] = [[w.to_json(), w.n_components()] for w in res.filtration.omega_j]
    return data


def membership(answer):
    member, cert = answer
    return {"member": member, "kind": cert.kind, "mu": cert.mu,
            "theta": cert.theta, "margin": cert.margin}


def emptiness(res):
    cert = res.certificate
    return {"empty": res.empty, "mu": res.mu,
            "certificate": cert.to_json() if cert is not None else None}


def level(res):
    return {"nonempty": res.nonempty, "b_tilde": list(res.b_tilde),
            "min_negative_index": res.min_negative_index}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the quadrics package "
                             "(default: this checkout's src)")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import quadrics as Q
    import quadrics.applications  # noqa: F401  (bound as Q.applications)
    import quadrics.fixtures  # noqa: F401

    digest = hashlib.sha256()
    for label, thunk in inputs(Q):
        try:
            answer = json.dumps(thunk(), sort_keys=True, separators=(",", ":"))
        except Q.QuadricsError as exc:
            answer = f"{type(exc).__name__}: {exc}"
        line = f"{label} {answer}"
        print(line)
        digest.update(line.encode() + b"\n")
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
