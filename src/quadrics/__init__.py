"""Topological invariants of sets defined by two real quadratic forms.

The library reduces Betti numbers, Euler characteristics, emptiness and
convexity questions about such sets (in projective space, on the sphere, or
as affine level sets) to inertia bookkeeping for the pencil of symmetric
matrices over the unit circle.
"""

from .applications import (
    Certificate,
    LevelProblem,
    calabi,
    extremal_family,
    image_membership,
    inequality_level_set,
    is_empty_x,
    level_set_betti,
    support_function,
)
from .betti import (
    AnalysisResult,
    BettiReport,
    SpectralTable,
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
from .circle import (
    CircleSubset,
    PlanarCone,
    betti_circle,
    omega_set,
    polar_cone,
)
from .errors import (
    InvalidInputError,
    NumericalError,
    OracleDisagreement,
    QuadricsError,
)
from .filtration import (
    FiltrationReport,
    IndexProfile,
    filtration_for_cone,
    filtration_report,
    index_profile,
    sublevel,
    superlevel,
)
from .pencil import (
    DegenerateLocus,
    InertiaTriple,
    QuadraticPencil,
    degenerate_locus,
    inertia,
)

__version__ = "0.1.0"
