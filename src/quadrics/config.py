"""Tolerance and resolution knobs threaded through every numeric routine."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInputError


@dataclass(frozen=True)
class ToleranceConfig:
    """Numeric tolerances, all strictly positive.

    tol_eig is relative: an eigenvalue of M counts as zero when its modulus is
    below tol_eig * ||M||.  tol_angle identifies angles on the circle.
    grid_n is the oracle sampling resolution; seed drives the random draws of
    the oracles sample_components and feasibility_sample, the only ones the
    library makes.
    """

    tol_eig: float = 1e-9
    tol_angle: float = 1e-9
    grid_n: int = 720
    seed: int = 0

    def __post_init__(self) -> None:
        if self.tol_eig <= 0 or self.tol_angle <= 0:
            raise InvalidInputError("tolerances must be strictly positive")
        if self.grid_n < 4:
            raise InvalidInputError("grid_n too small")


DEFAULT_CONFIG = ToleranceConfig()
