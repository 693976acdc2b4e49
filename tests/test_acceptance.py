"""Acceptance suite: one test per numbered criterion.

Each test prints a single PASS line when its criterion holds (visible with
pytest -s or in the captured output); any failure is an ordinary assertion
failure.  Tolerances and budgets are pinned here, not configured elsewhere.
"""

import math
import random
import time
from functools import lru_cache, reduce

import numpy as np

from quadrics import fixtures
from quadrics.applications import (
    LevelProblem,
    calabi,
    extremal_family,
    image_membership,
    is_empty_x,
    level_set_betti,
    support_function,
)
from quadrics.betti import (
    analyze,
    betti_x,
    betti_y,
    build_table,
    check_bounds,
    euler_x,
    index_decomposition,
)
from quadrics.circle import (
    CircleSubset,
    PlanarCone,
    betti_circle,
)
from quadrics.filtration import filtration_for_cone, index_profile
from quadrics.oracles import monodromy_refine, sample_components
from quadrics.pencil import degenerate_locus
from references import FEAS_TOL, betti_pair, feasibility_sample, subsets_equal, sylvester_check

PI = math.pi
TWO_PI = 2 * math.pi
ZERO = PlanarCone.zero()
FULL = CircleSubset.full_circle()


def _report(num: int, message: str) -> None:
    print(f"ACCEPTANCE {num}: PASS - {message}")


# ---------------------------------------------------------------------------
# 1. bouquet fixture
# ---------------------------------------------------------------------------

def test_criterion_1_bouquet():
    t0 = time.monotonic()
    p = fixtures.bouquet()
    filt = filtration_for_cone(p, ZERO)
    assert filt.omega(1).is_full()
    poles = CircleSubset.point(PI / 2).union(CircleSubset.point(3 * PI / 2))
    assert subsets_equal(filt.omega(2), poles.complement())
    assert filt.omega(3).is_empty()
    table = build_table(filt)
    assert table.display_rows() == [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    rep = betti_x(table)
    assert rep.b[0] == 1 and rep.b[1] == 3
    assert rep.ranks[1] == 1
    chi_levelwise = euler_x(filt)
    assert chi_levelwise == -2
    assert rep.chi == -2
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(1, f"bouquet filtration, table, b=(1,3,0,0), chi=-2 in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. complex squaring
# ---------------------------------------------------------------------------

def test_criterion_2_complex_squaring():
    t0 = time.monotonic()
    p = fixtures.complex_squaring()
    filt = filtration_for_cone(p, ZERO)
    assert filt.w1_nonzero is True
    assert filt.top_fills_circle and filt.mu == 1  # one conjugate root pair
    table = build_table(filt)
    assert (table.c, table.d) == (0, 0)
    rep = betti_x(table)
    assert all(b == 0 for b in rep.b)
    assert rep.empty is True
    check = monodromy_refine(filt)
    assert check.stable and check.values == (True, True, True)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(2, f"nonzero orientation class, (c,d)=(0,0), empty set in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. four lines
# ---------------------------------------------------------------------------

def test_criterion_3_four_lines():
    t0 = time.monotonic()
    p = fixtures.four_lines()
    locus = degenerate_locus(p)
    assert sorted(pt.multiplicity for pt in locus.points) == [2, 2, 2, 2]
    rep = analyze(p, ZERO).report
    assert rep.b[0] == 1 and rep.b[1] == 5
    assert rep.total == 6 == 2 * p.n
    sampled = sample_components(p, ZERO, "projective")
    assert sampled == 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(3, f"b=(1,5,0,0), double roots, sampled b0=1 in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. extremal family
# ---------------------------------------------------------------------------

def test_criterion_4_extremal_family():
    t0 = time.monotonic()
    for n in range(2, 13):
        p = extremal_family(n)
        hi = (n + 2) // 2
        prof = index_profile(p, FULL)
        plus = [v.i_plus for v in prof.after]
        if n % 2 == 0:
            assert len(plus) == 2 * (n + 1)
            assert plus.count(hi) == n + 1
            assert plus.count(hi - 1) == n + 1
            for i in range(len(plus)):
                assert plus[i] != plus[(i + 1) % len(plus)]
        else:
            # the lower value degenerates to the n+1 double points
            assert len(plus) == n + 1
            assert all(v == hi for v in plus)
            points = prof.at
            assert len(points) == n + 1
            assert all(v.i_plus == hi - 1 for v in points)
        rep = analyze(p, ZERO).report
        assert rep.total == 2 * n, n
        if n % 2 == 0:
            assert check_bounds(rep, smooth=True) == []
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(4, f"alternating profiles and b(X)=2n for n=2..12 in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5 & 6. bound sweep
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _sweep_results():
    out = []
    for n in range(2, 9):
        rng = np.random.default_rng(1000 + n)
        for _ in range(200):
            p = fixtures.random_pencil(rng, n + 1)
            res = analyze(p, ZERO)
            locus = degenerate_locus(p)
            simple = (not locus.identically_singular
                      and all(pt.multiplicity == 1 for pt in locus.points))
            out.append((n, p, res, simple))
    return out


def test_criterion_5_bound_sweep():
    t0 = time.monotonic()
    results = _sweep_results()
    assert len(results) == 7 * 200
    for n, p, res, _ in results:
        assert res.report.total <= 2 * n, (n, res.report)
        if not res.report.empty:
            # analyze cross-checks the levelwise Euler number internally and
            # raises on mismatch; compare the reported values again here
            assert res.chi == res.report.chi
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _report(5, f"1400 pencils: b(X) <= 2n and exact Euler cross-check "
               f"in {elapsed:.1f}s")


def test_criterion_6_per_degree_bound():
    results = _sweep_results()
    smooth_count = 0
    for n, p, res, simple in results:
        if not simple:
            continue
        smooth_count += 1
        assert check_bounds(res.report, smooth=True) == [], (n, res.report)
    assert smooth_count > 1000
    _report(6, f"b_k <= 2(k+2) on {smooth_count} simple-locus instances")


# ---------------------------------------------------------------------------
# 7. positive-combination equivalence
# ---------------------------------------------------------------------------

def test_criterion_7_calabi_equivalence():
    for dim in range(3, 9):
        rng = np.random.default_rng(7000 + dim)
        for _ in range(100):
            p = fixtures.random_pencil(rng, dim)
            res = is_empty_x(p, ZERO)
            cert = calabi(filtration_for_cone(p, ZERO))
            assert res.empty == (cert.kind == "positive_combination")
            if res.empty:
                assert cert.margin > 0
                assert float(np.linalg.eigvalsh(p.at(cert.theta))[0]) > 0
    # two variables: the zero locus is empty yet no combination is definite
    sq = fixtures.complex_squaring()
    res = is_empty_x(sq, ZERO)
    cert = calabi(filtration_for_cone(sq, ZERO))
    assert res.empty is True
    assert cert.kind == "refutation"
    assert cert.warning is not None
    _report(7, "emptiness iff certificate on 600 pencils; "
               "two-variable counterexample reproduced")


# ---------------------------------------------------------------------------
# 8. convexity of the sphere image
# ---------------------------------------------------------------------------

def test_criterion_8_convexity():
    rng = np.random.default_rng(88)
    directions = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    pencils = 0
    while pencils < 100:
        dim = int(rng.integers(3, 6))
        p = fixtures.random_pencil(rng, dim)
        support = [support_function(p, th) for th in directions]
        for _ in range(10):
            x = rng.standard_normal(dim)
            y = rng.standard_normal(dim)
            x /= np.linalg.norm(x)
            y /= np.linalg.norm(y)
            a = np.array(p.evaluate(x))
            b = np.array(p.evaluate(y))
            for c, h in ((a, None), (b, None)):
                for th, hval in zip(directions, support):
                    assert math.cos(th) * c[0] + math.sin(th) * c[1] \
                        <= hval + 1e-6
            for t in np.linspace(0.0, 1.0, 12)[1:-1]:
                c = (1 - t) * a + t * b
                member, _ = image_membership(p, (float(c[0]), float(c[1])))
                assert member, (dim, c)
        pencils += 1
    _report(8, "100 pencils x 10 segments x 10 interior points all members; "
               "support containment at 64 directions")


# ---------------------------------------------------------------------------
# 9. level sets
# ---------------------------------------------------------------------------

def test_criterion_9_level_sets():
    sq = fixtures.complex_squaring()
    res = level_set_betti(LevelProblem(sq, (1.0, 0.0)))
    assert res.nonempty and res.b_tilde[0] == 1
    res0 = level_set_betti(LevelProblem(sq, (0.0, 0.0)))
    assert res0.nonempty and all(b == 0 for b in res0.b_tilde)

    rng = np.random.default_rng(99)
    agreed = 0
    attempts = 0
    while agreed < 100:
        attempts += 1
        assert attempts < 600, "margin filter rejected too many instances"
        dim = int(rng.integers(2, 6))
        p = fixtures.random_pencil(rng, dim)
        c = (float(rng.standard_normal() * 1.5),
             float(rng.standard_normal() * 1.5))
        sample = feasibility_sample(LevelProblem(p, c), seed=99)
        tol = FEAS_TOL * max(1.0, math.hypot(*c))
        if abs(sample.margin) <= 10 * tol:
            continue
        verdict = level_set_betti(LevelProblem(p, c)).nonempty
        assert verdict == sample.found, (dim, c, sample.margin)
        agreed += 1
    _report(9, f"level-set verdicts agree with descent on {agreed} "
               f"margin-cleared instances")


# ---------------------------------------------------------------------------
# 10. spherical double cover
# ---------------------------------------------------------------------------

def test_criterion_10_spherical_formula():
    entries = betti_y(filtration_for_cone(extremal_family(4), ZERO))
    by_k = {e.k: e for e in entries}
    assert by_k[0].reduced == 0
    assert by_k[1].reduced == 10
    assert by_k[1].transfer_bound == 12
    assert by_k[1].reduced <= by_k[1].transfer_bound

    checked = []
    for p, label in [(fixtures.bouquet(), "bouquet"),
                     (fixtures.four_lines(), "four-lines"),
                     (fixtures.definite_form(4), "empty")]:
        entries = betti_y(filtration_for_cone(p, ZERO))
        e0 = entries[0]
        assert e0.determined
        expected_b0 = e0.absolute
        sampled = sample_components(p, ZERO, "sphere")
        assert sampled == expected_b0, (label, sampled, expected_b0)
        checked.append(label)
    _report(10, f"double-cover formula on the extremal family; sphere oracle "
                f"matches b0 for {', '.join(checked)}")


# ---------------------------------------------------------------------------
# 11. property suites
# ---------------------------------------------------------------------------

def test_criterion_11_property_suites():
    # Sylvester's law on 500 congruences
    rng = np.random.default_rng(111)
    done = 0
    while done < 500:
        dim = int(rng.integers(1, 11))
        a = rng.standard_normal((dim, dim))
        t = rng.standard_normal((dim, dim))
        if abs(np.linalg.det(t)) < 1e-3:
            continue
        assert sylvester_check(a + a.T, t)
        done += 1

    # unit jumps of the negative index across every simple root, 200 pencils
    for k in range(200):
        rng2 = np.random.default_rng(2000 + k)
        dim = int(rng2.integers(2, 9))
        p = fixtures.random_pencil(rng2, dim)
        locus = degenerate_locus(p)
        after = index_profile(p, FULL).after
        assert len(after) == len(locus.points)
        for i, pt in enumerate(locus.points):
            if pt.multiplicity == 1:
                assert abs(after[i].i_minus - after[i - 1].i_minus) == 1

    # exact-sequence rank identity on 1000 nested pairs
    rnd = random.Random(311)

    def random_subset():
        parts = []
        for _ in range(rnd.randint(0, 4)):
            if rnd.random() < 0.25:
                parts.append(CircleSubset.point(rnd.uniform(0, TWO_PI)))
            else:
                s = rnd.uniform(0, TWO_PI)
                parts.append(CircleSubset.arc(s, s + rnd.uniform(0.05, 2.5),
                                              rnd.random() < 0.5, rnd.random() < 0.5))
        if not parts and rnd.random() < 0.3:
            return CircleSubset.full_circle()
        return reduce(CircleSubset.union, parts, CircleSubset.empty())

    pairs = 0
    while pairs < 1000:
        a = random_subset()
        b = random_subset().intersect(a)
        if not b.is_subset_of(a):
            continue
        b0a, b1a = betti_circle(a)
        b0b, b1b = betti_circle(b)
        b0r, b1r = betti_pair(a, b)
        assert b1b - b1a + b1r - b0b + b0a - b0r == 0
        pairs += 1

    # index decomposition at 50 angles on each of 50 simple pencils
    rng3 = np.random.default_rng(333)
    pencils = 0
    while pencils < 50:
        dim = int(rng3.integers(2, 8))
        p = fixtures.random_pencil(rng3, dim)
        locus = degenerate_locus(p)
        if locus.identically_singular or any(
                pt.multiplicity != 1 for pt in locus.points):
            continue
        angs = locus.angles
        guard = 2e-3
        angles_done = 0
        while angles_done < 50:
            eta = float(rng3.uniform(0, TWO_PI))
            omega = eta + PI + float(rng3.uniform(0.05, PI - 0.05))
            if angs and min(abs((eta - z + PI) % TWO_PI - PI)
                            for z in angs) < guard:
                continue
            if angs and min(abs((omega - z + PI) % TWO_PI - PI)
                            for z in angs) < guard:
                continue
            d = index_decomposition(p, eta, omega)
            assert d.i_plus_predicted == d.i_plus_measured
            angles_done += 1
        pencils += 1
    _report(11, "Sylvester x500, unit jumps x200, exact sequence x1000, "
                "index decomposition 50x50")
