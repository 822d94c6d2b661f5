"""Pair interaction kernels and configuration energy/gradient evaluation.

Supported kernels: the 2-D Coulomb (logarithmic) interaction -ln r, the
power-law family -sign(s) * r^s for real s < 2 (s = 0 is represented by the
logarithmic kernel, its limit), and the Lennard-Jones interaction
r^-12 - r^-6 (free 3-space only).  The D-dimensional Coulomb kernel r^(2-D)
is the power law at s = 2 - D; :func:`coulomb` builds it as such.

Total energies are sums over all unordered pairs of the kernel evaluated at
the chordal distance.  The reported energy is exactly rounded: it equals
``math.fsum`` over every pair energy bit for bit, so 12-significant-digit
reference energies reproduce and permuting the point list cannot change the
result.  It is summed without one Python float per pair: error-free
extraction (Rump, Ogita & Oishi 2008) splits each block's energies into a
few floats with the same exact sum, and one ``math.fsum`` over those rounds
the total.  The line search takes its energy and the gradient together from
:func:`energy_gradient_of_points`, one walk over the pair blocks: the energy
is an uncompensated ``np.sum`` over the same pair energies that agrees to
roundoff.  Each kernel's value and derivative are written once, in
``_kernel``; the power law makes one power per pair, since
U'(r)/r = s U / r^2.  At r2 = 0 the kernel takes its limit: a coincident
pair's energy is +inf, or 0 for the power law with 0 < s < 2, and its
gradient is not finite, so :func:`energy_gradient` refuses it.
Evaluation is O(N^2) per call, which is fine at the desk scales this package
targets.  It runs over blocks of rows of the pair matrix, each from its own
diagonal on, so its memory is O(N) and no (N, N) array is ever formed.  Only
the pairs among a block's own rows are visited in both directions; the
gradient applies the weight U'(r)/r of every other pair, visited once, to
both of its ends.
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

_LARGEST = np.finfo(float).max


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


def _kernel(pot: PotentialSpec, r2: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """U(r) and U'(r)/r at squared separations r2 >= 0, as ``(u, w)``.

    The one place where each kernel's value and derivative are written.  U
    goes into the buffer u and the weight w over r2 itself.  At r2 = 0 the
    math gives the kernel's limit: U is +inf, or -0.0 for the power law with
    0 < s < 2, and w is +-inf or nan.  Callers silence the divide, overflow
    and invalid warnings on the way.
    """
    if pot.kind == LOG:
        np.log(r2, out=u)
        u *= -0.5
        np.divide(-1.0, r2, out=r2)
    elif pot.kind == LENNARD_JONES:
        # Below r2 ~ 1e-103 r^-6 overflows, and inf - inf would be nan; capped
        # at the largest float, its square still gives U = +inf.
        inv6 = np.minimum(np.power(r2, -3.0), _LARGEST)
        inv12 = inv6 * inv6
        np.subtract(inv12, inv6, out=u)
        np.divide(6.0 * inv6 - 12.0 * inv12, r2, out=r2)
    else:
        # For s below about -1.9, r^s overflows at the tiniest r2; +inf is
        # then the energy of the pair.  U'(r)/r = s U / r2 takes no second
        # power.
        s = pot.exponent
        np.power(r2, 0.5 * s, out=u)
        if s > 0.0:
            np.negative(u, out=u)
        np.divide(u, r2, out=r2)
        r2 *= s
    return u, r2


# Size of one block of the pair matrix, in elements: a (rows, N) float64 slab
# of 1 MB stays in cache and is reused from the heap.  Whole (N, N) arrays
# were mapped afresh and page-faulted on every call (33 MB each at N = 2048),
# so their cost swung with the memory traffic of everything else on the
# machine.
_BLOCK_ELEMENTS = 1 << 17


def _pair_blocks(x: np.ndarray, pot: PotentialSpec):
    """Kernel values and weights of the pairs of each row of x with itself and later rows.

    Yields ``(a, u, w)`` for consecutive row blocks a <= i < a + len(u), where
    ``u[k, j]`` and ``w[k, j]`` are :func:`_kernel` at the squared distance
    from row a + k to row a + j, with the diagonal zeroed.  The block's
    leading square holds its own rows' pairs in both directions; the columns
    right of it hold each pair with a later row once.  Each squared distance
    is built from direct differences one coordinate at a time, so the square
    is exactly symmetric, and a pair of identical rows gives an exact zero.
    ``u`` and ``w`` are reused buffers, valid until the next block is drawn.
    """
    n = x.shape[0]
    rows = max(1, min(n, _BLOCK_ELEMENTS // n))
    r2_buf, d_buf = np.empty(rows * n), np.empty(rows * n)
    first, *rest = np.ascontiguousarray(x.T)
    for a in range(0, n, rows):
        m = min(rows, n - a)
        r2 = r2_buf[: m * (n - a)].reshape(m, n - a)
        d = d_buf[: r2.size].reshape(r2.shape)
        np.subtract(first[a : a + m, None], first[a:], out=r2)
        r2 *= r2
        for col in rest:
            np.subtract(col[a : a + m, None], col[a:], out=d)
            d *= d
            r2 += d
        np.fill_diagonal(r2, 1.0)
        u, w = _kernel(pot, r2, d)
        np.fill_diagonal(u, 0.0)
        np.fill_diagonal(w, 0.0)
        yield a, u, w


def _exact_sum_terms(u: np.ndarray) -> list[float]:
    """A few floats whose exact sum is the exact sum of the entries of u.

    Error-free extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 2008):
    with sigma a power of two at least 2 * size * max|u|, h = (u + sigma) -
    sigma rounds each entry to a grid of sigma * 2^-53, so every partial sum
    of h is exact and ``np.sum(h)`` is exact in any order; u - h is exact
    too.  Each round peels off the leading 53 - log2(2 * size) bits of every
    entry, and rounds repeat until nothing is left.  Entries that are not
    finite, or whose sigma would overflow, are returned as they are.  u is
    overwritten.
    """
    scale = math.ceil(math.log2(u.size)) + 1
    terms = []
    while True:
        mu = max(float(np.max(u)), -float(np.min(u)))
        if mu == 0.0:
            return terms
        exponent = scale + math.frexp(mu)[1]
        if not (math.isfinite(mu) and exponent < 1024):
            return terms + u.ravel().tolist()
        sigma = math.ldexp(1.0, exponent)
        h = u + sigma
        h -= sigma
        terms.append(float(np.sum(h)))
        u -= h


def _embedded(points: np.ndarray, domain: DomainSpec, pot: PotentialSpec) -> np.ndarray:
    """Ambient coordinates of at least two points, for a supported kernel."""
    validate_domain_potential(domain, pot)
    if points.shape[0] < 2:
        raise ValueError("pair energies need at least two points")
    return embed_points(points, domain)


def total_energy_of_points(points: np.ndarray, domain: DomainSpec, pot: PotentialSpec) -> float:
    """Total pair energy of an (N, k) intrinsic-coordinate array; may be +inf.

    Correctly rounded: the result equals ``math.fsum`` over the energies of
    all pairs i < j.  A coincident pair gives +inf, except for a kernel that
    vanishes at r = 0, where the pair adds 0.
    """
    terms = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _, u, _ in _pair_blocks(_embedded(points, domain, pot), pot):
            # Of the block's leading square only the pairs right of the
            # diagonal count.
            m = u.shape[0]
            u[:, :m][np.tri(m, dtype=bool)] = 0.0
            terms += _exact_sum_terms(u)
    try:
        return math.fsum(terms)
    except OverflowError:
        # fsum raises when finite terms sum past the largest float: a
        # Lennard-Jones or power-law cluster at tiny separations, whose total
        # is +inf.
        return math.inf


def total_energy(config: Configuration, pot: PotentialSpec) -> float:
    """Sum of the kernel over all unordered pairs at their chordal distances.

    Invariant under permutations of the point list (the sum is exactly
    rounded) and, on the sphere, under global rotations up to roundoff.
    """
    return total_energy_of_points(config.points, config.domain, pot)


def energy_gradient_of_points(
    points: np.ndarray, domain: DomainSpec, pot: PotentialSpec
) -> tuple[float, np.ndarray]:
    """Line-search energy and tangent gradient of an (N, k) intrinsic array.

    Both come from one walk over the pair blocks.  The energy equals
    :func:`total_energy_of_points` up to roundoff, coincident pairs included,
    but adds plain ``np.sum`` totals of row blocks instead of rounding the
    exact sum; it is a deterministic function of the points, may be +inf,
    and no reported energy comes from it.  The gradient is that of
    :func:`energy_gradient`, except that it is not finite where two points
    coincide or a kernel's derivative overflows; nothing here raises on it.
    """
    x = _embedded(points, domain, pot)
    energy = 0.0
    grad = np.zeros_like(x)
    # Finite pair energies at tiny separations (Lennard-Jones, or a power law
    # with s < 0) can sum past the largest float, and there or at a coincident
    # pair the weights are infinite or nan.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for a, u, w in _pair_blocks(x, pot):
            # The block's leading square holds each of its pairs twice.  Each
            # row i of the block takes its pairs with every j >= a; the
            # columns right of the square also give each later row j its pair
            # with i, which no later block visits.
            m = u.shape[0]
            b = a + m
            energy += 0.5 * float(np.sum(u[:, :m])) + float(np.sum(u[:, m:]))
            grad[a:b] += x[a:b] * w.sum(axis=1)[:, None] - w @ x[a:]
            if b < len(x):
                right = w[:, m:]
                grad[b:] += x[b:] * right.sum(axis=0)[:, None] - right.T @ x[a:b]
        return energy, tangent_project_points(points, grad, domain)


def energy_gradient(config: Configuration, pot: PotentialSpec) -> np.ndarray:
    """Per-point ambient gradient of the total energy, projected to the tangent planes.

    Row i is the tangent projection of
    sum_{j != i} U'(r_ij) * (x_i - x_j) / r_ij in embedded coordinates.
    Raises CoincidentPointsError when two points coincide or are so close
    that the gradient overflows.
    """
    grad = energy_gradient_of_points(config.points, config.domain, pot)[1]
    if not np.isfinite(grad).all():
        raise CoincidentPointsError("points coincide or are too close: gradient is not finite")
    return grad
