"""Homological outputs of a two-form pencil with a planar cone constraint.

Everything funnels through an integer table built from the component counts
of the superlevel filtration and the orientation class of the top eigenspace
bundle.  Antidiagonal three-term sums of the table give the Betti numbers of
the solution set in projective space; the first column gives the ranks of the
inclusion-induced maps; alternating sums give the Euler characteristic.  The
relative pair formula gives the reduced Betti numbers of the spherical double
cover in low degrees.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .circle import (
    CircleSubset,
    PlanarCone,
    _finite_angle,
    betti_circle,
    canonical_angle,
    closed_half_circle,
)
from .errors import InvalidInputError, NumericalError
from .filtration import FiltrationReport, filtration_for_cone, index_profile
from .pencil import QuadraticPencil, degenerate_locus, inertia

PI = math.pi
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SpectralTable:
    """The integer table encoding the homology of the solution set.

    rows[j] = (e0, e1, e2) for 0 <= j <= n; entries outside that range are
    zero.  c sits in column 0 at row mu (when mu <= n), d in column 2 at row
    mu - 1; both vanish when the top eigenspace bundle is nonorientable.
    """

    n: int
    mu: int
    nu: int
    c: int
    d: int
    rows: tuple[tuple[int, int, int], ...]
    w1_nonzero: bool

    def display_rows(self) -> list[list[int]]:
        """Rows ordered top to bottom from j = n down to j = 0."""
        return [list(self.rows[j]) for j in range(self.n, -1, -1)]


@dataclass(frozen=True)
class BettiReport:
    """Betti numbers of the solution set and inclusion ranks."""

    b: tuple[int, ...]
    total: int
    chi: int
    ranks: tuple[int, ...]
    empty: bool


@functools.lru_cache(maxsize=4096)
def _shared_row(e0: int, e1: int, e2: int) -> tuple[int, int, int]:
    """The one shared table row of these entries: a kept analysis keeps its
    table, whose rows are mostly (1, 0, 0) and (0, 0, 0)."""
    return (e0, e1, e2)


def _circle_levels(filt: FiltrationReport) -> int:
    """How many levels j = 1, 2, ... are the whole circle: nu on the full
    domain, where i_plus >= nu everywhere, and none on an arc domain."""
    return filt.nu if filt.profile.domain.is_full() else 0


def build_table(filt: FiltrationReport) -> SpectralTable:
    """Assemble the table from the superlevel filtration of a pencil.

    Row j < mu - 1 reads level j + 1, and is (0, 0, 1) while that level is
    the whole circle; row mu - 1 reads level mu, row mu is (c, 0, 0) and
    every row past it (1, 0, 0).  The constant rows are repeated.
    """
    n = filt.pencil.n
    mu = filt.mu
    if filt.w1_nonzero:
        c, d = 0, 0
    else:
        # b1(Omega_mu) is 1 exactly when Omega_mu is the whole circle
        c, d = 1, int(filt.top_fills_circle)
    levels = filt.betti_levels
    whole = min(_circle_levels(filt), max(mu - 1, 0))
    rows = [_shared_row(0, 0, 1)] * whole
    rows += [_shared_row(0, b0 - 1, b1) for b0, b1 in levels[whole + 1:mu]]
    if mu >= 1:
        rows.append(_shared_row(0, levels[mu][0] - 1, d))
    if mu <= n:
        rows.append(_shared_row(c, 0, 0))
    rows += [_shared_row(1, 0, 0)] * (n - mu)
    return SpectralTable(n=n, mu=mu, nu=filt.nu, c=c, d=d,
                         rows=tuple(rows), w1_nonzero=filt.w1_nonzero)


def betti_x(table: SpectralTable) -> BettiReport:
    """Betti numbers from antidiagonal sums; empty when the top level fills."""
    n = table.n
    if table.mu == n + 1:
        zeros = tuple([0] * (n + 1))
        return BettiReport(zeros, 0, 0, zeros, True)
    # b_k = entry(0, n - k) + entry(1, n - k - 1) + entry(2, n - k - 2):
    # each column read from row n down, the later ones shifted past their end
    ranks, e1, e2 = (column[::-1] for column in zip(*table.rows))
    b = tuple(map(sum, zip(ranks, (*e1[1:], 0), (*e2[2:], 0, 0))))
    total = sum(b)
    return BettiReport(b, total, sum(b[::2]) - sum(b[1::2]), ranks, total == 0)


def betti_complement(filt: FiltrationReport) -> list[int]:
    """Betti numbers of the complement of the solution set in projective space.

    In degree zero only the component count of the first superlevel set
    enters; the literal cycle term would overcount components of a nonempty
    complement.
    """
    levels = filt.betti_levels
    return [levels[k + 1][0] + (levels[k][1] if k else 0)
            for k in range(0, filt.pencil.n + 1)]


def _level_euler(b0: int, b1: int) -> int:
    """The Euler characteristic of a superlevel set from its Betti numbers:
    the levelwise sum's own step, which the table does not take."""
    return b0 - b1


def euler_x(filt: FiltrationReport) -> int:
    """Euler characteristic via the alternating sum of superlevel counts;
    0 when the top level fills (mu = n + 1), where the solution set is empty.

    analyze cross-checks it against the alternating sum of the table's
    Betti numbers.
    """
    n = filt.pencil.n
    if filt.mu == n + 1:
        return 0
    # chi of the ambient projective space, then levels 1 .. n + 1 with signs
    # -, +, ...; a level that is the whole circle or past mu (empty) has
    # b0 = b1, so only the levels between add anything
    first = _circle_levels(filt) + 1
    chis = [_level_euler(b0, b1) for b0, b1 in filt.betti_levels[first:filt.mu + 1]]
    odd = first % 2  # chis[0] is level first
    acc = (1 if n % 2 == 0 else 0) + sum(chis[odd::2]) - sum(chis[1 - odd::2])
    return acc if n % 2 == 0 else -acc


@dataclass(frozen=True)
class SphereBettiEntry:
    """One degree of the spherical double cover's homology.

    reduced is the reduced Betti number when the formula determines it
    (degrees below n - 2); absolute adds the component correction in degree
    zero.  Out-of-range degrees carry only the transfer upper bound."""

    k: int
    determined: bool
    reduced: int | None
    absolute: int | None
    transfer_bound: int


def betti_y(filt: FiltrationReport) -> list[SphereBettiEntry]:
    """Reduced Betti numbers of the solution set on the sphere, where known."""
    n = filt.pencil.n
    report = betti_x(build_table(filt))
    entries: list[SphereBettiEntry] = []
    if report.empty:
        for k in range(0, n + 1):
            entries.append(SphereBettiEntry(k, True, 0, 0, 0))
        return entries
    pairs = filt.betti_pairs
    for k in range(0, n + 1):
        bound = 2 * report.b[k]
        if k < n - 2:
            reduced = pairs[n - k][0] + pairs[n - k - 1][1]
            absolute = reduced + (1 if k == 0 else 0)
            entries.append(SphereBettiEntry(k, True, reduced, absolute, bound))
        else:
            entries.append(SphereBettiEntry(k, False, None, None, bound))
    return entries


def check_bounds(report: BettiReport, smooth: bool = False) -> list[str]:
    """Violated complexity bounds, empty when all hold.

    The total is compared against twice the ambient dimension n, from n = 1
    up: the paper's b(X) <= 2n is stated for n >= 1, and at n = 0 X lies in
    RP^0, a point, so it is empty or that point, with total 0 or 1.  For
    smooth inputs each Betti number is compared against its dimension-free
    bound.
    """
    n = len(report.b) - 1
    violations = []
    if n >= 1 and report.total > 2 * n:
        violations.append(f"total Betti number {report.total} exceeds {2 * n}")
    if smooth:
        for k, bk in enumerate(report.b):
            if bk > 2 * (k + 2):
                violations.append(f"b_{k} = {bk} exceeds {2 * (k + 2)}")
    return violations


# ---------------------------------------------------------------------------
# index decomposition along a split circle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndexDecomposition:
    rho_plus: int
    rho_minus: int
    lambda_plus: int
    lambda_minus: int
    theta: int
    i_plus_predicted: int
    i_plus_measured: int


def index_decomposition(p: QuadraticPencil, eta_theta: float,
                        omega_theta: float) -> IndexDecomposition:
    """Positive index at omega from root bookkeeping on the split circle.

    The degenerate locus is split by the sign of the counterclockwise jump;
    the counts on the two arcs from -eta to omega and omega to eta, plus the
    number of conjugate root pairs, reconstruct the positive index.
    Requires a locus of simple real roots with both probe angles regular.
    """
    eta = canonical_angle(_finite_angle(eta_theta))
    omega = canonical_angle(_finite_angle(omega_theta))
    locus = degenerate_locus(p)
    if locus.identically_singular:
        raise InvalidInputError("index decomposition requires a nonsingular family")
    if any(pt.multiplicity != 1 for pt in locus.points):
        raise InvalidInputError("index decomposition requires simple roots")
    angles = locus.angles
    gap_guard = 1e-6
    for probe in (eta, omega):
        if inertia(p.at(probe), scale=p.scale()).i_zero != 0:
            raise InvalidInputError("probe angle lies on the degenerate locus")
        if angles and min(abs((probe - z + PI) % TWO_PI - PI) for z in angles) < gap_guard:
            raise InvalidInputError("probe angle too close to the degenerate locus")
    pos = (omega - (eta + PI)) % TWO_PI
    if not (gap_guard < pos < PI - gap_guard):
        raise InvalidInputError(
            "omega must lie strictly inside the counterclockwise arc from -eta to eta")

    # split the locus by the sign of the jump between the arcs on either side
    profile = index_profile(p, CircleSubset.full_circle(), locus)
    arcs = profile.cells[1::2]
    z_plus: list[float] = []
    z_minus: list[float] = []
    for i, z in enumerate(profile.cuts):
        jump = arcs[i].i_plus - arcs[i - 1].i_plus
        if jump == 1:
            z_plus.append(z)
        elif jump == -1:
            z_minus.append(z)
        else:
            raise NumericalError(f"jump at {z} is not unit; locus not simple")

    def count_on_arc(zs: list[float], lo: float, hi_offset: float) -> int:
        # arc from lo counterclockwise by hi_offset
        return sum(1 for z in zs if 0.0 < (z - lo) % TWO_PI < hi_offset)

    start = canonical_angle(eta + PI)
    rho_plus = count_on_arc(z_plus, start, pos)
    rho_minus = count_on_arc(z_minus, start, pos)
    lam_plus = count_on_arc(z_plus, omega, PI - pos)
    lam_minus = count_on_arc(z_minus, omega, PI - pos)
    theta = locus.theta_pairs
    predicted = rho_plus + lam_minus + theta
    measured = inertia(p.at(omega), scale=p.scale()).i_plus
    return IndexDecomposition(rho_plus, rho_minus, lam_plus, lam_minus,
                              theta, predicted, measured)


def half_circle_bound(filt: FiltrationReport, eta_theta: float) -> list[int]:
    """Per-degree bounds from component counts on the two half circles at eta.

    For a nonsingular solution set the degree-k Betti number is at most the
    returned bound whenever the superlevel set at n - k is nonempty; in lower
    degrees the Betti number is the rank class alone (at most one) and the
    empty superlevel set contributes zero to the table row.
    """
    p = filt.pencil
    if inertia(p.at(_finite_angle(eta_theta)), scale=p.scale()).i_zero != 0:
        raise InvalidInputError("the splitting angle must be regular")
    n = p.n
    c1 = closed_half_circle(eta_theta)
    c2 = closed_half_circle(eta_theta + PI)
    out = []
    for k in range(0, n + 1):
        om = filt.omega(n - k)
        out.append(betti_circle(om.intersect(c1))[0]
                   + betti_circle(om.intersect(c2))[0])
    return out


# ---------------------------------------------------------------------------
# aggregate result
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalysisResult:
    filtration: FiltrationReport
    table: SpectralTable
    report: BettiReport
    chi: int
    cone: PlanarCone


def analyze(p: QuadraticPencil, cone: PlanarCone) -> AnalysisResult:
    """The full pipeline: filtration, table, Betti numbers, Euler number.

    The levelwise Euler number must equal the table's alternating sum
    exactly for integer inputs; a mismatch raises.
    """
    filt = filtration_for_cone(p, cone)
    table = build_table(filt)
    report = betti_x(table)
    chi = euler_x(filt)
    if not report.empty and chi != report.chi:
        raise NumericalError(
            f"Euler characteristic mismatch: levelwise {chi} vs table {report.chi}")
    return AnalysisResult(filt, table, report, chi, cone)


def result_json(res: AnalysisResult) -> dict:
    return {
        "b": list(res.report.b),
        "total": res.report.total,
        "chi": res.chi,
        "ranks": list(res.report.ranks),
        "table": res.table.display_rows(),
        "mu": res.table.mu,
        "nu": res.table.nu,
        "w1": res.table.w1_nonzero,
        "empty": res.report.empty,
    }
