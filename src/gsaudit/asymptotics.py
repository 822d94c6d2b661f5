"""Large-N expansion models for sphere ground-state energies.

Two model families are provided.  For the logarithmic kernel on the unit
sphere the energy grows like a*N^2 + b*N*ln N with the closed-form
coefficients a = (1/4) ln(e/4) and b = -1/4; optional conjectured c*N and
d*ln N refinements can be supplied by the caller.  For the 1/r kernel the
expansion is a*N^2 + b*N^(3/2) + c*N + d*N^(1/2) + e with a = 1/2 proven,
c = e = 0 conjectured, d a user input (published estimates exist but no
closed form), and

    b = 3 * sqrt(sqrt(3)/(8 pi)) * zeta(1/2)
          * sum_{k>=0} (1/sqrt(3k+1) - 1/sqrt(3k+2))  ~  -0.55305

evaluated here by direct summation with an integral tail correction.  The
zeta value is computed internally from the alternating (eta) series with
Euler acceleration rather than hard-coding a constant, which keeps the module
self-verifying against an independent direct summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audit import EnergyTable, pair_specific
from .geometry import SPHERE
from .potentials import LOG, RIESZ, PotentialSpec

LOG_SPHERE = "log-sphere"
THOMSON_SPHERE = "thomson-sphere"

_FAMILIES = (LOG_SPHERE, THOMSON_SPHERE)

# Closed-form leading coefficients of the log-sphere expansion.
A_LOG_SPHERE = 0.25 * math.log(math.e / 4.0)
B_LOG_SPHERE = -0.25

A_THOMSON = 0.5


def zeta_alternating(s: float, tol: float = 1e-14, max_terms: int = 400) -> float:
    """Riemann zeta for s in (0, 1) via the eta identity with Euler acceleration.

    zeta(s) = eta(s) / (1 - 2^(1-s)) where eta(s) = sum (-1)^k (k+1)^(-s).
    The alternating series is summed by repeated forward differencing of the
    completely monotone term sequence (all differences stay positive, so the
    scheme is cancellation-free); each differencing level contributes
    diff[0] / 2^(n+1), which decays geometrically — about 35 levels reach
    1e-11, comfortably under 100 terms for 1e-8.
    """
    if not 0.0 < s < 1.0:
        raise ValueError("this evaluation path is tuned for s in (0, 1)")
    terms = (np.arange(1, max_terms + 2, dtype=float)) ** -s
    total = terms[0] / 2.0
    diffs = terms
    for level in range(1, max_terms):
        diffs = diffs[:-1] - diffs[1:]
        contribution = diffs[0] / 2.0 ** (level + 1)
        total += contribution
        if contribution < tol:
            break
    return float(total / (1.0 - 2.0 ** (1.0 - s)))


def _k_sum(tail_tolerance: float) -> float:
    """sum_{k>=0} (1/sqrt(3k+1) - 1/sqrt(3k+2)) with error below tail_tolerance.

    Terms decay like k^(-3/2).  After K explicit terms the remainder is
    replaced by its integral comparison, (2/3)(sqrt(3K+2) - sqrt(3K+1)), plus
    half the first omitted term; the residual of that correction is bounded by
    half the first omitted term, which fixes K.
    """
    def term(k: float) -> float:
        return 1.0 / math.sqrt(3.0 * k + 1.0) - 1.0 / math.sqrt(3.0 * k + 2.0)

    cutoff = max(64, math.ceil((0.05 / tail_tolerance) ** (2.0 / 3.0)))
    while term(cutoff) / 2.0 > tail_tolerance:
        cutoff *= 2
    k = np.arange(cutoff, dtype=float)
    explicit = math.fsum(1.0 / np.sqrt(3.0 * k + 1.0) - 1.0 / np.sqrt(3.0 * k + 2.0))
    tail = (2.0 / 3.0) * (math.sqrt(3.0 * cutoff + 2.0) - math.sqrt(3.0 * cutoff + 1.0))
    return explicit + tail + term(cutoff) / 2.0


def compute_b_coefficient(tail_tolerance: float) -> float:
    """The N^(3/2) coefficient of the 1/r sphere expansion, ~ -0.55305.

    ``tail_tolerance`` bounds the truncation error of the k-sum factor and
    must lie in (0, 1e-3].
    """
    if not 0.0 < tail_tolerance <= 1e-3:
        raise ValueError("tail_tolerance must lie in (0, 1e-3]")
    prefactor = 3.0 * math.sqrt(math.sqrt(3.0) / (8.0 * math.pi))
    return prefactor * zeta_alternating(0.5) * _k_sum(tail_tolerance)


@dataclass(frozen=True)
class AsymptoticModel:
    """A large-N energy expansion; coefficients not used by a family are None."""

    family: str
    a: float
    b: float
    c: float | None = None
    d: float | None = None
    e: float | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown model family {self.family!r}; expected one of {_FAMILIES}")


def log_sphere_model(c: float | None = None, d: float | None = None) -> AsymptoticModel:
    """Two-term log-sphere model, optionally refined by conjectured c*N + d*ln N."""
    return AsymptoticModel(LOG_SPHERE, a=A_LOG_SPHERE, b=B_LOG_SPHERE, c=c, d=d)


def thomson_sphere_model(d: float = 0.0, tail_tolerance: float = 1e-6) -> AsymptoticModel:
    """1/r sphere model with computed b; c = e = 0, d defaults to 0 (no published closed form)."""
    return AsymptoticModel(
        THOMSON_SPHERE,
        a=A_THOMSON,
        b=compute_b_coefficient(tail_tolerance),
        c=0.0,
        d=float(d),
        e=0.0,
    )


def model_energy(model: AsymptoticModel, n: int) -> float:
    """Model estimate of the total ground-state energy at N >= 2."""
    if n < 2:
        raise ValueError("the expansions are defined for N >= 2")
    if model.a is None or model.b is None:
        raise ValueError("model coefficients a and b must be resolved")
    fn = float(n)
    if model.family == LOG_SPHERE:
        value = model.a * fn * fn + model.b * fn * math.log(fn)
        if model.c is not None:
            value += model.c * fn
        if model.d is not None:
            value += model.d * math.log(fn)
        return float(value)
    value = model.a * fn * fn + model.b * fn ** 1.5
    if model.c is not None:
        value += model.c * fn
    if model.d is not None:
        value += model.d * math.sqrt(fn)
    if model.e is not None:
        value += model.e
    return float(value)


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


def residuals(table: EnergyTable, model: AsymptoticModel) -> list[tuple[int, float]]:
    """Per-row differences eps_table(N) - eps_model(N), sorted by N."""
    check_model_compatibility(table, model)
    return [
        (n, table.pair_specific(n) - pair_specific_model(model, n))
        for n in table.counts()
    ]
