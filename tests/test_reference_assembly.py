"""The list-pass assembly of the locus points, the index profile and the
table equals, value for value, the per-cell assembly it replaced.

The reference functions below are that earlier assembly, kept here as it
was: the locus's points built as DegeneratePoints and sorted, the profile
assembled from (cut, held, arc) steps with its mirrored half and its
semicontinuity check read cell by cell, and the superlevel levels, the table
and the Euler number filled level by level.  They share the library's
solves (the QZ roots, family_counts and the run counter), so any difference
is one of assembly.  Each analysis is compared in full: locus, profile,
levels, table rows and Euler number, or the same NumericalError message.
"""

import math

import numpy as np
import pytest

from quadrics import fixtures, pencil
from quadrics.applications import extremal_family
from quadrics.betti import analyze
from quadrics.circle import PlanarCone, canonical_angle, omega_set
from quadrics.errors import NumericalError
from quadrics.filtration import FiltrationReport, IndexProfile, _runs_and_births
from quadrics.pencil import (
    CLUSTER_TOL,
    PI,
    RANK_TOL,
    DegenerateLocus,
    DegeneratePoint,
    family_counts,
    shared_triple,
)

TWO_PI = 2.0 * math.pi
ALL_CONES = (PlanarCone.zero(), PlanarCone.full(), PlanarCone.ray(0.7),
             PlanarCone.line(2.0), PlanarCone.sector(0.3, 1.9), PlanarCone.halfplane(1.1))


# ---------------------------------------------------------------------------
# reference assembly
# ---------------------------------------------------------------------------

def reference_locus(p):
    """degenerate_locus with its points built one DegeneratePoint at a time."""
    dim = p.dim
    s = p.scale()
    if s == 0.0:
        return DegenerateLocus((), 0, dim)
    a0, a1 = p.q0 / s, p.q1 / s
    best = (-1, 0.0)
    for i in range(dim + 1):
        t = PI * (i + 0.5) / (dim + 1)
        mt = math.cos(t) * a0 + math.sin(t) * a1
        w = np.sort(np.abs(pencil._eigvalsh(mt)))
        r = int(np.count_nonzero(w > RANK_TOL))
        key = (r, float(w[-r]) if r else 0.0)
        if key > best:
            best, phi, m = key, t, mt
            if r == dim:
                break
    k = dim - best[0]
    dm = math.cos(phi) * a1 - math.sin(phi) * a0
    if k:
        m, dm = pencil._regular_part(m, dm, k)
    roots, nonreal = pencil._qz_root_angles(m, dm) if m.size else ([], 0)
    if nonreal % 2 != 0:
        raise NumericalError("unpaired non-real root; tolerances inconsistent")
    clusters = pencil._cluster_periodic([(phi + r) % PI for r in roots], CLUSTER_TOL)
    points = [DegeneratePoint(canonical_angle(center + half), mult)
              for half in (0.0, PI) for center, mult in clusters]
    points.sort()
    return DegenerateLocus(tuple(points), nonreal // 2, k)


def _reference_read_arcs(p, arcs, points=()):
    thirds = [t for a, b in arcs for t in (a + (b - a) / 3.0, a + 2.0 * (b - a) / 3.0)]
    values = list(zip(*family_counts(p, [*points, *thirds], p.scale())))
    k = len(points)
    arc_values = []
    for i, (u, v) in enumerate(zip(values[k::2], values[k + 1::2])):
        if u[0] > v[0] or u[1] > v[1]:
            if v[0] > u[0] or v[1] > u[1]:
                (a, b), dim = arcs[i], p.dim
                raise NumericalError(
                    f"inertia changes inside the arc ({a}, {b}): {(*u, dim - sum(u))} at "
                    f"{thirds[2 * i]}, {(*v, dim - sum(v))} at {thirds[2 * i + 1]}; "
                    "a root is missing from the locus")
            v = u
        arc_values.append(v)
    return arc_values, values[:k]


def _reference_steps(domain, angles):
    if domain.is_full():
        return [(b, True, (b, e)) for b, e in zip(angles, [*angles[1:], angles[0] + TWO_PI])] \
            if angles else []
    d = domain.cuts
    steps = []
    for s, e, held, arc_held in zip(d, (*d[1:], d[0] + TWO_PI), domain.cells[::2],
                                    domain.cells[1::2]):
        if not arc_held:
            steps.append((s, held, None))
            continue
        lifts = (s + (c - s) % TWO_PI for c in angles)
        edges = [s, *sorted(b for b in lifts if s + CLUSTER_TOL < b < e - CLUSTER_TOL), e]
        steps += [(canonical_angle(a), k > 0 or held, (a, b))
                  for k, (a, b) in enumerate(zip(edges, edges[1:]))]
    return sorted(steps, key=lambda step: step[0])


def reference_profile(p, domain, locus):
    """index_profile assembled cell by cell from (cut, held, arc) steps."""
    if domain.is_empty():
        return IndexProfile(domain)
    steps = _reference_steps(domain, locus.angles)
    dim = p.dim
    if not steps:
        ((plus, minus),), _ = _reference_read_arcs(p, [(0.0, TWO_PI)])
        return IndexProfile(domain, (), (shared_triple(plus, minus, dim - plus - minus),))
    cuts = [c for c, _, _ in steps]
    points = [c for c, held, _ in steps if held]
    arcs = [arc for _, _, arc in steps if arc]
    solved = len(steps) // 2 if domain.is_full() else len(steps)
    arc_vals, point_vals = _reference_read_arcs(p, arcs[:solved], points[:solved])
    if solved < len(steps):
        arc_vals += [(minus, plus) for plus, minus in arc_vals]
        point_vals += [(minus, plus) for plus, minus in point_vals]
    point_vals, arc_vals = iter(point_vals), iter(arc_vals)
    at = [next(point_vals) if held else None for _, held, _ in steps]
    after = [next(arc_vals) if arc else None for _, _, arc in steps]
    for i, v in enumerate(at[:solved]):
        if v is None:
            continue
        for arc in (after[i - 1], after[i]):
            if arc is not None and (v[0] > arc[0] or v[1] > arc[1]):
                raise NumericalError(f"semicontinuity violated at breakpoint {cuts[i]}")

    def triple(v):
        return None if v is None else shared_triple(v[0], v[1], dim - v[0] - v[1])

    return IndexProfile(domain, tuple(cuts),
                        tuple(triple(v) for cell in zip(at, after) for v in cell))


def reference_levels(profile, dim):
    """(b0, b1) of every superlevel set j = 0 .. dim + 1, level by level."""
    cells = [-1 if v is None else v.i_plus for v in profile.cells]
    low = min(cells)
    runs, _ = _runs_and_births(cells, dim + 1)
    return ((1, 1),) * (low + 1) + tuple((b0, 0) for b0 in runs[low + 1:])


def reference_table_rows(n, mu, levels, c, d):
    rows = []
    for j in range(0, n + 1):
        e0 = 1 if j > mu else (c if j == mu else 0)
        e1 = e2 = 0
        if j <= mu - 1:
            b0j, b1j = levels[j + 1]
            e1 = b0j - 1
            e2 = d if j == mu - 1 else b1j
        rows.append((e0, e1, e2))
    return tuple(rows)


def reference_euler(n, mu, levels):
    if mu == n + 1:
        return 0
    chis = [b0 - b1 for b0, b1 in levels[1:n + 2]]
    acc = (1 if n % 2 == 0 else 0) + sum(chis[1::2]) - sum(chis[::2])
    return acc if n % 2 == 0 else -acc


def reference_analysis(p, cone):
    """(locus, profile, levels, table rows, Euler number) by the reference
    assembly, each computed from the reference values before it."""
    locus = reference_locus(p)
    domain = omega_set(cone)
    profile = reference_profile(p, domain, locus)
    values = set(profile.cells) - {None}
    plus = [v.i_plus for v in values] or [0]
    mu, nu = max(plus), min(plus)
    if mu == nu and domain.is_full() and mu > p.dim // 2:
        raise NumericalError("constant index exceeds half the dimension; tolerances inconsistent")
    levels = reference_levels(profile, p.dim)
    # w1 is read as the library reads it, from the reference profile and locus
    filt = FiltrationReport(p, profile, mu, nu, None if domain.is_empty() else locus)
    c, d = (0, 0) if filt.w1_nonzero else (1, int(filt.top_fills_circle))
    return (locus, profile, levels, reference_table_rows(p.n, mu, levels, c, d),
            reference_euler(p.n, mu, levels))


# ---------------------------------------------------------------------------
# equality
# ---------------------------------------------------------------------------

def _outcome(compute):
    try:
        return compute()
    except NumericalError as exc:
        return ("NumericalError", str(exc))


def _library_analysis(p, cone):
    res = analyze(p, cone)
    filt = res.filtration
    return (pencil.degenerate_locus(p), filt.profile, filt.betti_levels, res.table.rows,
            res.chi)


def _assert_equal_assembly(pencils):
    """Every pencil under every cone kind; returns how many full-circle
    profiles had breakpoints, the mirrored case."""
    mirrored = 0
    for p in pencils:
        for cone in ALL_CONES:
            expected = _outcome(lambda: reference_analysis(p, cone))
            assert _outcome(lambda: _library_analysis(p, cone)) == expected, (p.dim, cone)
            if expected[0] != "NumericalError" and expected[1].domain.is_full():
                mirrored += bool(expected[1].cuts)
    return mirrored


def test_random_pencils_assemble_as_the_reference():
    rng = np.random.default_rng(34)
    pencils = [fixtures.random_pencil(rng, dim) for dim in range(2, 21) for _ in range(3)]
    assert _assert_equal_assembly(pencils) >= 50


def test_kronecker_singular_pencils_assemble_as_the_reference():
    rng = np.random.default_rng(35)
    pencils = [fixtures.kronecker_pair(eps, regular, rng)
               for eps in (1, 2, 3) for regular in range(0, 7)]
    assert all(pencil.degenerate_locus(p).identically_singular for p in pencils)
    assert _assert_equal_assembly(pencils) >= 10


def test_the_extremal_family_assembles_as_the_reference():
    pencils = [extremal_family(n) for n in range(1, 41)]
    assert _assert_equal_assembly(pencils) == 40
