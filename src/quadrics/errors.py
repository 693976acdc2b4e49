"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: InvalidInputError -> 2,
NumericalError -> 3, OracleDisagreement -> 4.
"""


class QuadricsError(Exception):
    """Base class for all package errors."""


class InvalidInputError(QuadricsError):
    """Malformed problem data: asymmetric matrices, bad cones, schema violations."""


class NumericalError(QuadricsError):
    """A tolerance or solver failure: inconsistent samples, a root missing from
    the locus, eigen-solver breakdown, monodromy resolution cap exceeded."""


class OracleDisagreement(QuadricsError):
    """A brute-force oracle contradicts the analytic result."""
