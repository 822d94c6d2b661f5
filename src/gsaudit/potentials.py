"""Pair interaction kernels and configuration energy/gradient evaluation.

Supported kernels: the 2-D Coulomb (logarithmic) interaction -ln r, the
power-law family -sign(s) * r^s for real s < 2 (s = 0 is represented by the
logarithmic kernel, its limit), and the Lennard-Jones interaction
r^-12 - r^-6 (free 3-space only).  The D-dimensional Coulomb kernel r^(2-D)
is the power law at s = 2 - D; :func:`coulomb` builds it as such.

Total energies are sums over all unordered pairs of the kernel evaluated at
the chordal distance.  Summation uses exact compensated accumulation
(``math.fsum``) so that 12-significant-digit reference energies reproduce and
permuting the point list cannot change the result.  Every kernel formula is
written once, in ``_kernel``, which the energy, the gradient and the scalar
views all call.  Evaluation is O(N^2) per call, which is fine at the desk
scales this package targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import FREE3, Configuration, DomainSpec, embed_points, tangent_project_points

LOG = "log"
RIESZ = "riesz"
LENNARD_JONES = "lj"

_KINDS = (LOG, RIESZ, LENNARD_JONES)


class CoincidentPointsError(ValueError):
    """Two points coincide where the requested quantity is undefined."""


@dataclass(frozen=True)
class PotentialSpec:
    """A pair interaction kernel.

    ``exponent`` is the power-law exponent s and is set only for the
    ``riesz`` kind; the D-dimensional Coulomb kernel is that kind with
    s = 2 - D.
    """

    kind: str
    exponent: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind == RIESZ:
            s = self.exponent
            if s is None or not s < 2.0 or s == 0.0:
                raise ValueError("power-law exponent must satisfy s < 2 and s != 0 "
                                 "(use the log kernel for the s = 0 limit)")
        elif self.exponent is not None:
            raise ValueError(f"{self.kind!r} takes no parameters")


def log_coulomb() -> PotentialSpec:
    """The 2-D Coulomb kernel -ln r."""
    return PotentialSpec(LOG)


def riesz(s: float) -> PotentialSpec:
    """The power-law kernel -sign(s) * r^s, s < 2, s != 0."""
    return PotentialSpec(RIESZ, exponent=float(s))


def coulomb(dimension: int) -> PotentialSpec:
    """The D-dimensional Coulomb kernel r^(2-D), i.e. ``riesz(2 - D)``; D = 3 gives 1/r."""
    if dimension != int(dimension) or dimension < 3:
        raise ValueError("Coulomb dimension must be an integer >= 3")
    return riesz(2 - int(dimension))


def lennard_jones() -> PotentialSpec:
    """The Lennard-Jones kernel r^-12 - r^-6 (free 3-space only)."""
    return PotentialSpec(LENNARD_JONES)


def validate_domain_potential(domain: DomainSpec, pot: PotentialSpec) -> None:
    """Reject kernel/domain combinations outside the supported setting."""
    if pot.kind == LENNARD_JONES and domain.kind != FREE3:
        raise ValueError("the Lennard-Jones kernel is only supported in free 3-space")


def _kernel(pot: PotentialSpec, r2):
    """U(r) and U'(r)/r at squared separations r2 > 0 (a float or an array).

    The one place where each kernel's formula is written.
    """
    if pot.kind == LOG:
        return -0.5 * np.log(r2), -1.0 / r2
    if pot.kind == LENNARD_JONES:
        inv6 = r2 ** -3.0
        return inv6 * inv6 - inv6, (6.0 * inv6 - 12.0 * inv6 * inv6) / r2
    s = pot.exponent
    u = r2 ** (0.5 * s)
    return -math.copysign(1.0, s) * u, -abs(s) * u / r2


def pair_energy(pot: PotentialSpec, r: float) -> float:
    """Kernel value at separation r >= 0.

    At r = 0 the repulsive kernels diverge to +inf; the power-law kernel with
    0 < s < 2 tends to 0 there and returns 0 by continuity.
    """
    if r < 0.0:
        raise ValueError("separation must be nonnegative")
    if r == 0.0:
        return 0.0 if pot.kind == RIESZ and pot.exponent > 0.0 else math.inf
    return float(_kernel(pot, r * r)[0])


def radial_derivative(pot: PotentialSpec, r: float) -> float:
    """d/dr of the kernel at separation r > 0."""
    if r <= 0.0:
        raise ValueError("separation must be positive")
    return float(_kernel(pot, r * r)[1]) * r


def _squared_separations(x: np.ndarray) -> np.ndarray:
    """(N, N) squared distances between the rows of x, from direct differences.

    Built one coordinate at a time, so no (N, N, 3) array is formed.  The
    result is exactly symmetric with an exactly zero diagonal, and a pair of
    identical rows gives an exact zero.
    """
    n = x.shape[0]
    r2 = np.zeros((n, n))
    d = np.empty((n, n))
    for col in x.T:
        np.subtract(col[:, None], col, out=d)
        d *= d
        r2 += d
    return r2


def total_energy_of_points(points: np.ndarray, domain: DomainSpec, pot: PotentialSpec) -> float:
    """Total pair energy of an (N, k) intrinsic-coordinate array; may be +inf."""
    validate_domain_potential(domain, pot)
    n = points.shape[0]
    if n < 2:
        raise ValueError("energy needs at least two points")
    # ~tri is the strict upper triangle: each unordered pair once.
    r2 = _squared_separations(embed_points(points, domain))[~np.tri(n, dtype=bool)]
    zero = r2 == 0.0
    if zero.any():
        if not (pot.kind == RIESZ and pot.exponent > 0.0):
            return math.inf
        r2 = r2[~zero]
    return math.fsum(_kernel(pot, r2)[0])


def total_energy(config: Configuration, pot: PotentialSpec) -> float:
    """Sum of the kernel over all unordered pairs at their chordal distances.

    Invariant under permutations of the point list (the compensated sum is
    exact) and, on the sphere, under global rotations up to roundoff.
    """
    return total_energy_of_points(config.points, config.domain, pot)


def energy_gradient_of_points(
    points: np.ndarray, domain: DomainSpec, pot: PotentialSpec
) -> np.ndarray:
    """Tangent gradient for an (N, k) intrinsic array; see :func:`energy_gradient`."""
    validate_domain_potential(domain, pot)
    if points.shape[0] < 2:
        raise ValueError("gradient needs at least two points")
    x = embed_points(points, domain)
    r2 = _squared_separations(x)
    np.fill_diagonal(r2, 1.0)
    if not r2.all():
        raise CoincidentPointsError("coincident points: gradient undefined")
    w = _kernel(pot, r2)[1]
    np.fill_diagonal(w, 0.0)
    grad = x * w.sum(axis=1)[:, None] - w @ x
    return tangent_project_points(points, grad, domain)


def energy_gradient(config: Configuration, pot: PotentialSpec) -> np.ndarray:
    """Per-point ambient gradient of the total energy, projected to the tangent planes.

    Row i is the tangent projection of
    sum_{j != i} U'(r_ij) * (x_i - x_j) / r_ij in embedded coordinates.
    Raises CoincidentPointsError when two points coincide.
    """
    return energy_gradient_of_points(config.points, config.domain, pot)
