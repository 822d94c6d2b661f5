"""Pair energy and gradient evaluation for the kernels of :mod:`gsaudit.problem`.

Total energies are sums over all unordered pairs of the kernel evaluated at
the chordal distance; the points are an (N, 3) array of ambient coordinates
on every domain.  The reported energy is exactly rounded: it equals
``math.fsum`` over every pair energy bit for bit, so 12-significant-digit
reference energies reproduce and permuting the point list cannot change the
result.  It is summed without one Python float per pair: error-free
extraction (Rump, Ogita & Oishi 2008) splits each block's energies into a
few floats with the same exact sum, and one ``math.fsum`` over those rounds
the total.  The line search takes its energy and the gradient together from
:func:`energy_gradient_of_points`, one walk over the pair blocks: the energy
is an uncompensated ``np.sum`` over the same pair energies that agrees to
roundoff.  Each kernel's value and derivative are written once, in
``_kernel``; the power law makes one power per pair, or one square root at
s = -1, since U'(r)/r = s U / r^2.  At r2 = 0 the kernel takes its limit: a
coincident pair's energy is +inf, or 0 for the power law with 0 < s < 2,
and its gradient is not finite, so :func:`energy_gradient` refuses it.
Evaluation is O(N^2) per call.  It runs over blocks of rows of the pair
matrix, each from its own diagonal on.  A block takes as many rows as fit in
512 KB, so the blocks are about equal in size; memory is O(N) and no (N, N)
array is ever formed.  Only the pairs among a block's own rows are visited
in both directions; the gradient applies the weight U'(r)/r of every other
pair, visited once, to both of its ends.  Each step of a block is one numpy
call over the whole block: each coordinate's differences and each side's
weighted sums are BLAS products, whose bits do not depend on the number of
BLAS threads, and the exact energy's walk computes no weights.  A walk of
two or more blocks (N > 256) runs on the calling thread and the helpers of
one cached pool, started by the first such walk and kept, one thread per
usable CPU up to two; each block's results are reduced in block order, so
every result is bit for bit the same whatever the number of threads.
"""

from __future__ import annotations

import functools
import math
import os
import threading

import numpy as np

from .geometry import Configuration, tangent_project_points
from .problem import LENNARD_JONES, LOG, DomainSpec, PotentialSpec, validate_domain_potential
from .problem import log_coulomb, riesz  # noqa: F401  (perfbench/workloads.py reads them here)

_LARGEST = np.finfo(float).max


class CoincidentPointsError(ValueError):
    """Two points coincide where the requested quantity is undefined."""


def _kernel(
    pot: PotentialSpec, r2: np.ndarray, u: np.ndarray, weights: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """U(r) and U'(r)/r at squared separations r2 >= 0, as ``(u, w)``.

    The one place where each kernel's value and derivative are written.  U
    goes into the buffer u and the weight w over r2 itself; without
    ``weights``, r2 is returned as it is.  At r2 = 0 the math gives the
    kernel's limit: U is +inf, or -0.0 for the power law with 0 < s < 2, and
    w is +-inf or nan.  Callers silence the divide, overflow and invalid
    warnings on the way.
    """
    if pot.kind == LOG:
        np.log(r2, out=u)
        u *= -0.5
        if weights:
            np.divide(-1.0, r2, out=r2)
    elif pot.kind == LENNARD_JONES:
        # Below r2 ~ 1e-103 r^-6 overflows, and inf - inf would be nan; capped
        # at the largest float, its square still gives U = +inf.
        inv6 = np.minimum(np.power(r2, -3.0), _LARGEST)
        inv12 = inv6 * inv6
        np.subtract(inv12, inv6, out=u)
        if weights:
            np.divide(6.0 * inv6 - 12.0 * inv12, r2, out=r2)
    else:
        # For s below about -1.9, r^s overflows at the tiniest r2; +inf is
        # then the energy of the pair.  U'(r)/r = s U / r2 takes no second
        # power.  At s = -1 a square root and a division cost about half of
        # one power.
        s = pot.exponent
        if s == -1.0:
            np.sqrt(r2, out=u)
            np.divide(1.0, u, out=u)
        else:
            np.power(r2, 0.5 * s, out=u)
            if s > 0.0:
                np.negative(u, out=u)
        if weights:
            np.divide(u, r2, out=r2)
            r2 *= s
    return u, r2


# Size of one block of the pair matrix, in elements: rows from their own
# diagonal on, up to 512 KB of float64, so every block but the last of a
# large-N walk is about this size.  It stays in cache and is reused from the
# heap, one pair of buffers per walking thread.  Whole (N, N) arrays were
# mapped afresh and page-faulted on every call (33 MB each at N = 2048), so
# their cost swung with the memory traffic of everything else on the machine.
_BLOCK_ELEMENTS = 1 << 16

# The lower triangle, diagonal included, of the largest square a block can
# lead with (m rows hold m * (N - a) >= m^2 pairs): its top-left m x m
# corner masks the square of every block of m rows.
_LOWER = np.tri(math.isqrt(_BLOCK_ELEMENTS), dtype=bool)

# Threads that walk the blocks of one call, the calling thread included: the
# usable CPUs, at most _MAX_THREADS.  More than two have not been measured.
# On two cores the second thread makes a 1/r walk at N = 2048 about 1.3 to
# 1.4 times as fast (about 16 ms against 22 ms), not 2: a few of each
# block's calls, the reductions and the product of the weights with [x | 1]
# among them, hold the GIL.
_MAX_THREADS = 2
_THREADS = min(
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
    _MAX_THREADS,
)


@functools.cache
def _helpers():
    """The pool of helper threads, started by the first walk of several blocks and kept.

    Each helper silences numpy's divide, overflow and invalid warnings once,
    for its whole life.  A forked child has none of the parent's threads, so
    it drops the cached pool and starts its own.
    """
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(
        _THREADS - 1,
        thread_name_prefix="gsaudit-pairs",
        initializer=np.seterr,
        initargs=(None, "ignore", "ignore", None, "ignore"),
    )


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_helpers.cache_clear)


def _blocks(n: int) -> list[tuple[int, int]]:
    """The row blocks ``(a, m)`` of a walk over N points, in row order.

    Block ``(a, m)`` holds rows a <= i < a + m from their own diagonal on,
    m * (N - a) pairs.  It takes as many rows as fit in ``_BLOCK_ELEMENTS``
    pairs, so the blocks are about equal in size, and one row when that row
    alone holds more.
    """
    blocks = []
    a = 0
    while a < n:
        m = max(1, min(n - a, _BLOCK_ELEMENTS // (n - a)))
        blocks.append((a, m))
        a += m
    return blocks


def _ends(x: np.ndarray) -> np.ndarray:
    """The product operands of a walk over the (N, k) points x, as one (2k + 2, N) array.

    Rows 0 to k - 1 hold the coordinates x_c, rows k and k + 1 ones, and
    rows k + 2 on the negated coordinates.  So rows c and k are the
    operand [x_c, 1] of :func:`_pair_block`, rows k + 1 and k + 2 + c its
    [1; -x_c], and rows 0 to k, transposed, the [x | 1] of the gradient.
    """
    n, k = x.shape
    ends = np.empty((2 * k + 2, n))
    ends[:k] = x.T
    ends[k : k + 2] = 1.0
    np.negative(x.T, out=ends[k + 2 :])
    return ends


def _pair_block(ends: np.ndarray, pot: PotentialSpec, a: int, m: int, buffers: tuple,
                weights: bool) -> tuple:
    """Kernel values and weights ``(u, w)`` of the m rows from row a on.

    The block holds the pairs of rows a <= i < a + m with themselves and
    later rows; ``ends`` holds the operands of :func:`_ends`.  ``u[k, j]`` and
    ``w[k, j]`` are :func:`_kernel` at the squared distance from row a + k to
    row a + j.  ``w``'s leading square holds its own rows' pairs in both
    directions, with its diagonal zeroed; in ``u`` the square's lower
    triangle and diagonal are zeroed, so u holds each pair once.  The
    columns right of the square hold each pair with a later row once.
    Without ``weights``, w is the block's squared distances, left for the
    caller to overwrite.

    Each coordinate's differences x_i - x_j are one BLAS product with inner
    dimension 2, [x_i, 1] @ [1; -x_j]: both of its products are exact, so
    their sum rounds once, to the bits of the subtraction.  So the square is
    exactly symmetric, and a pair of identical rows gives an exact zero.
    ``u`` and ``w`` are views of the two flat ``buffers``.
    """
    k = len(ends) // 2 - 1
    n = ends.shape[1]
    r2 = buffers[0][: m * (n - a)].reshape(m, n - a)
    d = buffers[1][: r2.size].reshape(r2.shape)
    for c in range(k):
        diff = d if c else r2
        np.matmul(ends[c : k + 1 : k - c, a : a + m].T, ends[k + 1 : k + 3 + c : c + 1, a:],
                  out=diff)
        diff *= diff
        if c:
            r2 += d
    np.fill_diagonal(r2, 1.0)
    u, w = _kernel(pot, r2, d, weights)
    np.copyto(u[:, :m], 0.0, where=_LOWER[:m, :m])
    if weights:
        np.fill_diagonal(w, 0.0)
    return u, w


def _walk(ends: np.ndarray, pot: PotentialSpec, visit, reduce, weights: bool = True) -> None:
    """Call ``reduce(visit(a, u, w))`` for each row block of a pair matrix, in order.

    The matrix is that of the points whose operands :func:`_ends` made
    ``ends``.  The blocks are those of :func:`_blocks`, as
    :func:`_pair_block` makes them, with or without ``weights``; u and w are
    valid until visit returns.  A walk of two or more blocks runs visit on
    up to ``_THREADS`` threads, the calling one included, each with its own
    buffers, as large as the largest block.  A block's result is reduced as soon as every
    earlier block's has been, by whichever thread completes that prefix,
    under a lock; so reduce sees the blocks in order, one at a time, and the
    outcome does not depend on the number of threads.  Every step of a
    block is a numpy call over the whole block, most of them BLAS products
    and ufuncs that release the GIL, so the threads overlap.  The caller
    silences numpy's divide, overflow and invalid warnings for its own
    thread; the helper threads of :func:`_helpers` run with them silenced.
    """
    n = ends.shape[1]
    blocks = _blocks(n)
    size = max(m * (n - a) for a, m in blocks)
    threads = min(_THREADS, len(blocks))
    if threads == 1:
        buffers = np.empty(size), np.empty(size)
        for a, m in blocks:
            reduce(visit(a, *_pair_block(ends, pot, a, m, buffers, weights)))
        return

    lock = threading.Lock()
    unclaimed = iter(enumerate(blocks))
    results = [None] * len(blocks)
    reduced = 0

    def work():
        nonlocal reduced
        buffers = np.empty(size), np.empty(size)
        while True:
            with lock:
                claimed = next(unclaimed, None)
            if claimed is None:
                return
            k, (a, m) = claimed
            result = visit(a, *_pair_block(ends, pot, a, m, buffers, weights))
            with lock:
                results[k] = result
                while reduced < len(results) and results[reduced] is not None:
                    reduce(results[reduced])
                    results[reduced] = None
                    reduced += 1

    from concurrent.futures import wait

    futures = [_helpers().submit(work) for _ in range(threads - 1)]
    try:
        work()
    finally:
        wait(futures)
    for future in futures:
        future.result()


def _exact_sum_terms(u: np.ndarray, h: np.ndarray) -> list[float]:
    """A few floats whose exact sum is the exact sum of the entries of u.

    Error-free extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 2008):
    with sigma a power of two at least 2 * size * max|u|, h = (u + sigma) -
    sigma rounds each entry to a grid of sigma * 2^-53, so every partial sum
    of h is exact and ``np.sum(h)`` is exact in any order; u - h is exact
    too.  Each round peels off the leading 53 - log2(2 * size) bits of every
    entry, and rounds repeat until nothing is left; max|u| is the one
    reduction a round adds to the sum.  Entries that are not finite, or
    whose sigma would overflow, are returned as they are.  u is overwritten,
    and h, an array of u's shape, is working space.
    """
    scale = math.ceil(math.log2(u.size)) + 1
    terms = []
    while True:
        mu = float(np.max(np.abs(u, out=h)))
        if mu == 0.0:
            return terms
        exponent = scale + math.frexp(mu)[1]
        if not (math.isfinite(mu) and exponent < 1024):
            return terms + u.ravel().tolist()
        sigma = math.ldexp(1.0, exponent)
        np.add(u, sigma, out=h)
        h -= sigma
        terms.append(float(np.sum(h)))
        u -= h


def _pair_points(points: np.ndarray, domain: DomainSpec, pot: PotentialSpec) -> np.ndarray:
    """At least two points as a float array, for a supported kernel."""
    validate_domain_potential(domain, pot)
    if points.shape[0] < 2:
        raise ValueError("pair energies need at least two points")
    return np.asarray(points, dtype=float)


def total_energy_of_points(points: np.ndarray, domain: DomainSpec, pot: PotentialSpec) -> float:
    """Total pair energy of an (N, 3) array of ambient points; may be +inf.

    Correctly rounded: the result equals ``math.fsum`` over the energies of
    all pairs i < j.  A coincident pair gives +inf, except for a kernel that
    vanishes at r = 0, where the pair adds 0.
    """
    terms = []
    ends = _ends(_pair_points(points, domain, pot))
    # A walk without weights; the block's squared distances are the working
    # space of the extraction.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        _walk(ends, pot, lambda a, u, r2: _exact_sum_terms(u, r2), terms.extend, False)
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
    """Line-search energy and tangent gradient of an (N, 3) array of ambient points.

    Both come from one walk over the pair blocks.  The energy equals
    :func:`total_energy_of_points` up to roundoff, coincident pairs included,
    but adds plain ``np.sum`` totals of row blocks instead of rounding the
    exact sum; it is a deterministic function of the points, may be +inf,
    and no reported energy comes from it.  The gradient is that of
    :func:`energy_gradient`, except that it is not finite where two points
    coincide or a kernel's derivative overflows; nothing here raises on it.
    """
    x = _pair_points(points, domain, pot)
    n, k = x.shape
    ends = _ends(x)
    ones_x = ends[: k + 1].T
    energy = 0.0
    grad = np.zeros_like(x)

    def visit(a, u, w):
        # u holds each of the block's pairs once.  Each row i of the block
        # takes w_ij (x_i - x_j) over every j >= a from one product of w
        # with [x | 1]; the columns right of the square also give each later
        # row j its pair with i, which no later block visits.
        m = u.shape[0]
        b = a + m
        e = float(np.sum(u))
        sums = w @ ones_x[a:]
        own = x[a:b] * sums[:, k:] - sums[:, :k]
        if b == n:
            return e, a, b, own, None
        sums = w[:, m:].T @ ones_x[a:b]
        return e, a, b, own, x[b:] * sums[:, k:] - sums[:, :k]

    def reduce(result):
        nonlocal energy
        e, a, b, own, later = result
        energy += e
        grad[a:b] += own
        if later is not None:
            grad[b:] += later

    # Finite pair energies at tiny separations (Lennard-Jones, or a power law
    # with s < 0) can sum past the largest float, and there or at a coincident
    # pair the weights are infinite or nan.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        _walk(ends, pot, visit, reduce)
        return energy, tangent_project_points(points, grad, domain)


def energy_gradient(config: Configuration, pot: PotentialSpec) -> np.ndarray:
    """Per-point ambient gradient of the total energy, projected to the tangent planes.

    Row i is the tangent projection of
    sum_{j != i} U'(r_ij) * (x_i - x_j) / r_ij in ambient coordinates.
    Raises CoincidentPointsError when two points coincide or are so close
    that the gradient overflows.
    """
    grad = energy_gradient_of_points(config.points, config.domain, pot)[1]
    if not np.isfinite(grad).all():
        raise CoincidentPointsError("points coincide or are too close: gradient is not finite")
    return grad
