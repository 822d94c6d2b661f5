"""Two-term large-N expansion models for sphere ground-state energies.

Two model families are provided.  For the logarithmic kernel on the unit
sphere the energy grows like a*N^2 + b*N*ln N with the closed-form
coefficients a = (1/4) ln(e/4) and b = -1/4.  For the 1/r kernel it grows
like a*N^2 + b*N^(3/2) with a = 1/2 proven and

    b = 3 * sqrt(sqrt(3)/(8 pi)) * zeta(1/2)
          * sum_{k>=0} (1/sqrt(3k+1) - 1/sqrt(3k+2))  ~  -0.55305

The k-sum is frozen at its closed form, (zeta(1/2, 1/3) - zeta(1/2, 2/3)) /
sqrt(3) with Hurwitz zeta values.  The zeta value is computed internally from
the alternating (eta) series with Euler acceleration rather than hard-coding
a constant, which keeps the module self-verifying against an independent
direct summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .table import EnergyTable, pair_specific
from .geometry import SPHERE
from .potentials import LOG, RIESZ, PotentialSpec

LOG_SPHERE = "log-sphere"
THOMSON_SPHERE = "thomson-sphere"

_FAMILIES = (LOG_SPHERE, THOMSON_SPHERE)

# Closed-form leading coefficients of the log-sphere expansion.
A_LOG_SPHERE = 0.25 * math.log(math.e / 4.0)
B_LOG_SPHERE = -0.25

A_THOMSON = 0.5

# The k-sum factor of the 1/r N^(3/2) coefficient,
#   sum_{k>=0} (1/sqrt(3k+1) - 1/sqrt(3k+2)) = (zeta(1/2, 1/3) - zeta(1/2, 2/3)) / sqrt(3),
# with Hurwitz zeta values, evaluated at 40 digits with mpmath.
_K_SUM = 0.48086755769682865


def zeta_alternating(s: float) -> float:
    """Riemann zeta for s in (0, 1) via the eta identity with Euler acceleration.

    zeta(s) = eta(s) / (1 - 2^(1-s)) where eta(s) = sum (-1)^k (k+1)^(-s).
    The alternating series is summed by repeated forward differencing of the
    completely monotone term sequence (all differences stay positive, so the
    scheme is cancellation-free); each differencing level contributes
    diff[0] / 2^(n+1), which decays geometrically — about 35 levels reach
    1e-11.  Summation stops at the first level below 1e-14, or at 400 terms.
    """
    if not 0.0 < s < 1.0:
        raise ValueError("this evaluation path is tuned for s in (0, 1)")
    terms = np.arange(1, 402, dtype=float) ** -s
    total = terms[0] / 2.0
    diffs = terms
    for level in range(1, 400):
        diffs = diffs[:-1] - diffs[1:]
        contribution = diffs[0] / 2.0 ** (level + 1)
        total += contribution
        if contribution < 1e-14:
            break
    return float(total / (1.0 - 2.0 ** (1.0 - s)))


def compute_b_coefficient() -> float:
    """The N^(3/2) coefficient of the 1/r sphere expansion, ~ -0.55305."""
    prefactor = 3.0 * math.sqrt(math.sqrt(3.0) / (8.0 * math.pi))
    return prefactor * zeta_alternating(0.5) * _K_SUM


@dataclass(frozen=True)
class AsymptoticModel:
    """A two-term large-N energy expansion a*N^2 + b*f(N) of one family."""

    family: str
    a: float
    b: float

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown model family {self.family!r}; expected one of {_FAMILIES}")


def log_sphere_model() -> AsymptoticModel:
    """Log-sphere model a*N^2 + b*N*ln N."""
    return AsymptoticModel(LOG_SPHERE, a=A_LOG_SPHERE, b=B_LOG_SPHERE)


def thomson_sphere_model() -> AsymptoticModel:
    """1/r sphere model a*N^2 + b*N^(3/2) with computed b."""
    return AsymptoticModel(THOMSON_SPHERE, a=A_THOMSON, b=compute_b_coefficient())


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
    """Reject table/model combinations whose metadata contradicts the family.

    Tables without domain/potential metadata pass (nothing to validate).
    """
    meta = table.metadata
    if meta.domain is not None and meta.domain.kind != SPHERE:
        raise ValueError(
            f"model family {model.family!r} describes the unit sphere, "
            f"table domain is {meta.domain.kind!r}"
        )
    pot = meta.potential
    if pot is None:
        return
    if model.family == LOG_SPHERE:
        if pot.kind != LOG:
            raise ValueError("the log-sphere model requires the logarithmic kernel")
    elif not (pot.kind == RIESZ and pot.exponent == -1.0):
        raise ValueError("the thomson-sphere model requires the 1/r kernel")
