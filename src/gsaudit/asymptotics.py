"""Two-term large-N expansion models for sphere ground-state energies.

Two model families are provided.  For the logarithmic kernel on the unit
sphere the energy grows like a*N^2 + b*N*ln N with the closed-form
coefficients a = (1/4) ln(e/4) and b = -1/4.  For the 1/r kernel it grows
like a*N^2 + b*N^(3/2) with a = 1/2 proven and

    b = 3 * sqrt(sqrt(3)/(8 pi)) * zeta(1/2)
          * sum_{k>=0} (1/sqrt(3k+1) - 1/sqrt(3k+2))  ~  -0.55305

Both zeta(1/2) and b are frozen constants, mpmath's 40-digit values rounded
to doubles; the tests check b against an independent direct summation of
the zeta series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .problem import format_potential_token, log_coulomb, riesz, sphere
from .table import EnergyTable, pair_specific

LOG_SPHERE = "log-sphere"
THOMSON_SPHERE = "thomson-sphere"

# Closed-form leading coefficients of the log-sphere expansion.
A_LOG_SPHERE = 0.25 * math.log(math.e / 4.0)
B_LOG_SPHERE = -0.25

A_THOMSON = 0.5

# zeta(1/2): mpmath.zeta(0.5) at 40 digits, rounded to a double.
ZETA_HALF = -1.4603545088095868

# b above, with the k-sum in Hurwitz zeta values: 3 * sqrt(sqrt(3)/(8 pi)) * mpmath.zeta(0.5)
#   * (mpmath.zeta(0.5, 1/3) - mpmath.zeta(0.5, 2/3)) / sqrt(3) at 40 digits, rounded to a double.
B_THOMSON = -0.5530512933575952


@dataclass(frozen=True)
class AsymptoticModel:
    """A two-term large-N energy expansion a*N^2 + b*f(N) of one family."""

    family: str
    a: float
    b: float

    def __post_init__(self):
        if self.family not in MODELS:
            raise ValueError(f"unknown model family {self.family!r}; expected one of {[*MODELS]}")


def log_sphere_model() -> AsymptoticModel:
    """Log-sphere model a*N^2 + b*N*ln N."""
    return AsymptoticModel(LOG_SPHERE, a=A_LOG_SPHERE, b=B_LOG_SPHERE)


def thomson_sphere_model() -> AsymptoticModel:
    """1/r sphere model a*N^2 + b*N^(3/2)."""
    return AsymptoticModel(THOMSON_SPHERE, a=A_THOMSON, b=B_THOMSON)


# Each model family's constructor, by family name.
MODELS = {LOG_SPHERE: log_sphere_model, THOMSON_SPHERE: thomson_sphere_model}

# The kernel each model family describes on the unit sphere.
_KERNELS = {LOG_SPHERE: log_coulomb(), THOMSON_SPHERE: riesz(-1.0)}


def model_energy(model: AsymptoticModel, n: int) -> float:
    """Model estimate of the total ground-state energy at N >= 2."""
    if n < 2:
        raise ValueError("the expansions are defined for N >= 2")
    fn = float(n)
    if model.family == LOG_SPHERE:
        return float(model.a * fn * fn + model.b * fn * math.log(fn))
    return float(model.a * fn * fn + model.b * fn ** 1.5)


def pair_specific_model(model: AsymptoticModel, n: int) -> float:
    """Model estimate of the pair-specific energy, model_energy / (N(N-1))."""
    return pair_specific(n, model_energy(model, n))


def check_model_compatibility(table: EnergyTable, model: AsymptoticModel) -> None:
    """Reject a table whose metadata names another problem than the model's family.

    Tables without domain/potential metadata pass (nothing to validate).
    """
    meta, kernel = table.metadata, _KERNELS[model.family]
    if meta.domain not in (None, sphere()) or meta.potential not in (None, kernel):
        raise ValueError(f"model family {model.family!r} describes "
                         f"{format_potential_token(kernel)} on the unit sphere, "
                         "not the problem in the table's headers")
