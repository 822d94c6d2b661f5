import math
import multiprocessing
import os
import queue
import subprocess
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsaudit import potentials
from gsaudit.geometry import (
    Configuration,
    random_configuration,
    retract_points,
    surface_normals,
    tangent_project_points,
)
from gsaudit.potentials import (
    CoincidentPointsError,
    energy_gradient,
    energy_gradient_of_points,
    total_energy,
    total_energy_of_points,
)
from gsaudit.problem import (
    PotentialSpec,
    coulomb,
    free3,
    lennard_jones,
    log_coulomb,
    riesz,
    sphere,
    torus,
    validate_domain_potential,
)

TETRAHEDRON = np.array(
    [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
) / math.sqrt(3.0)
TETRAHEDRON_EDGE = math.sqrt(8.0 / 3.0)

ANTIPODAL = Configuration(sphere(), np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))


def pair_formula(pot, r):
    """(U(r), U'(r)) written from the kernel formulas, independent of the engine."""
    if pot.kind == "log":
        return -math.log(r), -1.0 / r
    if pot.kind == "lj":
        return r ** -12 - r ** -6, 6.0 * r ** -7 - 12.0 * r ** -13
    s = pot.exponent
    sign = -math.copysign(1.0, s)
    return sign * r ** s, sign * s * r ** (s - 1.0)


def two_points(r):
    return np.array([[0.0, 0.0, 0.0], [r, 0.0, 0.0]])


def engine_energy(pot, r):
    """The engine's energy of two free3 points r apart."""
    return total_energy_of_points(two_points(r), free3(), pot)


def engine_derivative(pot, r):
    """The engine's U'(r) for two free3 points r apart: minus the first point's x-gradient."""
    return -energy_gradient_of_points(two_points(r), free3(), pot)[1][0, 0]


class TestPotentialSpec:
    def test_riesz_exponent_range(self):
        riesz(-1.0)
        riesz(1.9)
        with pytest.raises(ValueError):
            riesz(0.0)
        with pytest.raises(ValueError):
            riesz(2.0)
        with pytest.raises(ValueError):
            riesz(2.5)
        for s in (-math.inf, math.nan):
            with pytest.raises(ValueError):
                riesz(s)

    def test_coulomb_dimension_range(self):
        assert coulomb(3).exponent == -1.0
        with pytest.raises(ValueError):
            coulomb(2)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown potential kind 'bogus'"):
            PotentialSpec("bogus")

    def test_parameterless_kernel_refuses_an_exponent(self):
        with pytest.raises(ValueError, match="'log' takes no parameters"):
            PotentialSpec("log", exponent=1.0)

    def test_lj_restricted_to_free_space(self):
        validate_domain_potential(free3(), lennard_jones())
        with pytest.raises(ValueError):
            validate_domain_potential(sphere(), lennard_jones())
        with pytest.raises(ValueError):
            validate_domain_potential(torus(1.414), lennard_jones())


class TestPairEnergy:
    def test_log_at_one(self):
        assert engine_energy(log_coulomb(), 1.0) == 0.0

    def test_inverse_r_at_two(self):
        assert engine_energy(riesz(-1.0), 2.0) == 0.5

    def test_negative_distance_kernel(self):
        # s = 1 gives -r: large separations are favored
        assert engine_energy(riesz(1.0), 3.0) == -3.0

    def test_lj_minimum(self):
        r_star = 2.0 ** (1.0 / 6.0)
        assert engine_energy(lennard_jones(), r_star) == pytest.approx(-0.25, abs=1e-15)

    def test_zero_separation(self):
        assert engine_energy(log_coulomb(), 0.0) == math.inf
        assert engine_energy(riesz(-1.0), 0.0) == math.inf
        assert engine_energy(coulomb(4), 0.0) == math.inf
        assert engine_energy(lennard_jones(), 0.0) == math.inf
        # continuity limit of the positive-exponent branch
        assert engine_energy(riesz(0.5), 0.0) == 0.0

    def test_inverse_r_kernel_matches_formula(self):
        # s = -1 takes U = 1/sqrt(r2): within two roundings of the formula,
        # with the formula's limits at r2 = 0.
        r = np.array([0.0, 1e-100, 1e-8, 0.3, 1.0, 1.7, 2.0, 1e100])
        with np.errstate(divide="ignore"):
            u, w = potentials._kernel(riesz(-1.0), r * r, np.empty(len(r)))
        assert (u[0], w[0]) == (math.inf, -math.inf)
        for rk, uk, wk in zip(r[1:].tolist(), u[1:], w[1:]):
            value, derivative = pair_formula(riesz(-1.0), rk)
            assert uk == pytest.approx(value, rel=4.5e-16)
            assert wk == pytest.approx(derivative / rk, rel=1e-15)

    def test_lj_overflow_is_infinite(self):
        assert engine_energy(lennard_jones(), 1e-60) == math.inf

    def test_coulomb_matches_power_law_exactly(self):
        rng = np.random.default_rng(17)
        for dim in (3, 4, 5, 7):
            equivalent = riesz(2.0 - dim)
            for r in rng.uniform(0.05, 3.0, size=40):
                assert engine_energy(coulomb(dim), r) == engine_energy(equivalent, r)

    def test_log_is_the_small_exponent_limit(self):
        # (r^-s - 1)/s -> -ln r as s -> 0+
        s = 1e-6
        for r in np.linspace(0.1, 2.0, 25):
            approx = (engine_energy(riesz(-s), r) - 1.0) / s
            assert abs(approx - engine_energy(log_coulomb(), r)) < 1e-5

    def test_radial_derivative_matches_finite_differences(self):
        h = 1e-7
        for pot in (log_coulomb(), riesz(-1.0), riesz(1.5), coulomb(5), lennard_jones()):
            for r in (0.3, 0.9, 1.7):
                fd = (engine_energy(pot, r + h) - engine_energy(pot, r - h)) / (2 * h)
                assert engine_derivative(pot, r) == pytest.approx(fd, rel=1e-6)


class TestTotalEnergy:
    def test_antipodal_inverse_r(self):
        assert total_energy(ANTIPODAL, riesz(-1.0)) == 0.5

    def test_antipodal_log(self):
        assert total_energy(ANTIPODAL, log_coulomb()) == pytest.approx(-math.log(2.0), abs=1e-15)

    def test_tetrahedron_inverse_r(self):
        config = Configuration(sphere(), TETRAHEDRON)
        expected = 6.0 / TETRAHEDRON_EDGE
        assert total_energy(config, riesz(-1.0)) == pytest.approx(expected, abs=1e-12)

    def test_single_point_rejected(self):
        c = Configuration(sphere(), np.array([[0.0, 0.0, 1.0]]))
        with pytest.raises(ValueError):
            total_energy(c, log_coulomb())

    def test_lj_on_sphere_rejected(self):
        with pytest.raises(ValueError):
            total_energy(ANTIPODAL, lennard_jones())

    # The points-level functions take the (N >= 2, 3) arrays that a
    # Configuration holds, and read a nested list as its array.
    @pytest.mark.parametrize("of_points", [total_energy_of_points, energy_gradient_of_points],
                             ids=["energy", "gradient"])
    @pytest.mark.parametrize("domain, shape", [(sphere(), (3, 2)), (free3(), (4, 5)),
                                               (sphere(), (1, 3)), (free3(), (6,))],
                             ids=["2-columns", "5-columns", "one-point", "flat"])
    def test_points_of_the_wrong_shape_rejected(self, of_points, domain, shape):
        with pytest.raises(ValueError, match=r"\(N, 3\) array"):
            of_points(np.ones(shape), domain, log_coulomb())

    @pytest.mark.parametrize("of_points", [total_energy_of_points, energy_gradient_of_points],
                             ids=["energy", "gradient"])
    def test_list_of_points_gives_the_bits_of_the_array(self, of_points):
        points = random_configuration(sphere(), 7, 3).points
        from_list = of_points(points.tolist(), sphere(), riesz(-1.0))
        from_array = of_points(points, sphere(), riesz(-1.0))
        if of_points is total_energy_of_points:
            assert from_list.hex() == from_array.hex()
        else:
            assert from_list[0].hex() == from_array[0].hex()
            assert from_list[1].tobytes() == from_array[1].tobytes()

    # At 10^-25.66 each pair energy is finite but their sum is not; at 1e-60
    # r^-6 itself overflows.
    @pytest.mark.parametrize("size", [10.0 ** -25.66, 1e-60], ids=["sum", "r6"])
    def test_lj_cluster_overflow_is_infinite(self, size):
        points = np.vstack([np.zeros(3), size * np.eye(3)])
        assert total_energy_of_points(points, free3(), lennard_jones()) == math.inf
        assert energy_gradient_of_points(points, free3(), lennard_jones())[0] == math.inf

    def test_coincident_points_give_infinity(self):
        pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        c = Configuration(sphere(), pts)
        assert total_energy(c, log_coulomb()) == math.inf
        assert total_energy(c, riesz(-1.0)) == math.inf
        # positive-exponent kernels stay finite by continuity
        assert math.isfinite(total_energy(c, riesz(1.0)))

    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(3)
        c = random_configuration(sphere(), 9, 12)
        e0 = total_energy(c, log_coulomb())
        for _ in range(10):
            perm = rng.permutation(9)
            assert total_energy(Configuration(sphere(), c.points[perm]), log_coulomb()) == e0

    def test_rotation_invariance(self):
        rng = np.random.default_rng(5)
        c = random_configuration(sphere(), 11, 2)
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q = q * np.sign(np.diag(r))
        e0 = total_energy(c, riesz(-1.0))
        e1 = total_energy(Configuration(sphere(), c.points @ q.T), riesz(-1.0))
        assert abs(e1 - e0) < 1e-10 * abs(e0)

    @pytest.mark.parametrize("domain", [sphere(), torus(1.414), free3()], ids=lambda d: d.kind)
    def test_coulomb_equals_power_law_on_configurations(self, domain):
        c = random_configuration(domain, 8, 77)
        assert total_energy(c, coulomb(3)) == total_energy(c, riesz(-1.0))


def directional_derivative_check(domain, pot, n, seed, rel=1e-6):
    """Central-difference oracle along tangent curves through the retraction."""
    config = random_configuration(domain, n, seed)
    grad = energy_gradient(config, pot)
    rng = np.random.default_rng(seed + 1)
    h = 1e-6
    directions = [grad / max(np.linalg.norm(grad), 1e-30)]
    for _ in range(2):
        raw = rng.standard_normal((n, 3))
        v = tangent_project_points(config.points, raw, domain)
        directions.append(v / np.linalg.norm(v))
    for v in directions:
        plus = total_energy_of_points(retract_points(config.points, h * v, domain), domain, pot)
        minus = total_energy_of_points(retract_points(config.points, -h * v, domain), domain, pot)
        fd = (plus - minus) / (2.0 * h)
        analytic = float(np.einsum("ij,ij->", grad, v))
        assert abs(fd - analytic) <= rel * max(abs(fd), abs(analytic)), (
            f"{domain.kind}/{pot.kind}: fd={fd!r} analytic={analytic!r}"
        )


class TestEnergyGradient:
    def test_antipodal_pair_is_critical(self):
        for pot in (log_coulomb(), riesz(-1.0), riesz(1.0), coulomb(4)):
            grad = energy_gradient(ANTIPODAL, pot)
            assert np.max(np.abs(grad)) < 1e-12

    def test_tetrahedron_is_critical(self):
        config = Configuration(sphere(), TETRAHEDRON)
        grad = energy_gradient(config, riesz(-1.0))
        assert np.max(np.linalg.norm(grad, axis=1)) < 1e-10

    def test_coincident_points_rejected(self):
        pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        with pytest.raises(CoincidentPointsError):
            energy_gradient(Configuration(sphere(), pts), riesz(-1.0))

    # Clusters so small that a kernel overflows: the energies are +inf and the
    # gradient is refused, with no RuntimeWarning on the way.
    @pytest.mark.parametrize(
        "pot, size",
        [(lennard_jones(), 10.0 ** -25.66), (lennard_jones(), 1e-60), (riesz(-2.0), 1e-160)],
        ids=["lj-sum", "lj-r6", "riesz-2"],
    )
    def test_overflowing_cluster(self, pot, size):
        points = np.vstack([np.zeros(3), size * np.eye(3)])
        assert total_energy_of_points(points, free3(), pot) == math.inf
        energy, grad = energy_gradient_of_points(points, free3(), pot)
        assert energy == math.inf
        assert not np.isfinite(grad).all()
        with pytest.raises(CoincidentPointsError):
            energy_gradient(Configuration(free3(), points), pot)

    def test_gradient_rows_are_tangent(self):
        for domain in (sphere(), torus(1.414)):
            c = random_configuration(domain, 10, 4)
            grad = energy_gradient(c, riesz(-1.0))
            normals = surface_normals(c.points, domain)
            assert np.max(np.abs(np.einsum("ij,ij->i", grad, normals))) < 1e-12

    @pytest.mark.parametrize("domain", [sphere(), torus(1.414)], ids=lambda d: d.kind)
    @pytest.mark.parametrize("pot", [log_coulomb(), riesz(-1.0), riesz(1.0), coulomb(4)],
                             ids=lambda p: f"{p.kind}{p.exponent or ''}")
    def test_matches_finite_differences_surfaces(self, domain, pot):
        directional_derivative_check(domain, pot, n=8, seed=101)

    @pytest.mark.parametrize("pot", [log_coulomb(), riesz(-1.0), riesz(1.0), coulomb(4),
                                     lennard_jones()],
                             ids=lambda p: f"{p.kind}{p.exponent or ''}")
    def test_matches_finite_differences_free_space(self, pot):
        directional_derivative_check(free3(), pot, n=8, seed=202)


ENGINE_CASES = [
    (domain, pot)
    for domain in (sphere(), torus(1.414), free3())
    for pot in (log_coulomb(), riesz(-1.0), riesz(1.0), coulomb(4), riesz(1.5), lennard_jones())
    if pot.kind != "lj" or domain.kind == "free3"
]

# Block sizes for N = 9: blocks of 2, 2, 3 and 2 rows at 18 pairs; at 5 pairs,
# seven one-row blocks (the first four longer than 5 pairs) and a last of two.
SMALL_BLOCKS = (2 * 9, 5)


@pytest.mark.parametrize(
    "domain,pot", ENGINE_CASES,
    ids=[f"{d.kind}-{p.kind}{p.exponent or ''}" for d, p in ENGINE_CASES],
)
class TestEngineMatchesScalarKernel:
    """Energy and gradient agree with a pair-by-pair loop over the kernel formulas,
    and the line-search energy of the one-walk engine agrees with the exact one."""

    def test_energy_is_fsum_of_pair_energies(self, domain, pot):
        config = random_configuration(domain, 9, 31)
        x = config.points
        pairs = [
            pair_formula(pot, float(np.linalg.norm(x[i] - x[j])))[0]
            for i in range(9) for j in range(i + 1, 9)
        ]
        assert total_energy(config, pot) == pytest.approx(math.fsum(pairs), rel=1e-12)

    def test_energy_is_exactly_rounded_over_row_blocks(self, domain, pot, monkeypatch):
        points = random_configuration(domain, 9, 37).points
        x = points
        r2 = []
        for i in range(9):
            for j in range(i + 1, 9):
                d = x[i] - x[j]
                r2.append(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
        u, _ = potentials._kernel(pot, np.array(r2), np.empty(len(r2)))
        want = math.fsum(u.tolist())
        assert total_energy_of_points(points, domain, pot) == want
        for block in SMALL_BLOCKS:
            monkeypatch.setattr(potentials, "_BLOCK_ELEMENTS", block)
            assert total_energy_of_points(points, domain, pot) == want

    def test_search_energy_matches_total_energy(self, domain, pot):
        points = random_configuration(domain, 9, 33).points
        exact = total_energy_of_points(points, domain, pot)
        energy, _ = energy_gradient_of_points(points, domain, pot)
        assert energy == pytest.approx(exact, rel=1e-12)

    def test_search_energy_with_coincident_points(self, domain, pot):
        points = random_configuration(domain, 7, 34).points
        points[5] = points[2]
        exact = total_energy_of_points(points, domain, pot)
        assert math.isfinite(exact) == (pot.kind == "riesz" and pot.exponent > 0.0)
        energy, grad = energy_gradient_of_points(points, domain, pot)
        assert energy == pytest.approx(exact, rel=1e-12)
        assert not np.isfinite(grad).all()
        with pytest.raises(CoincidentPointsError):
            energy_gradient(Configuration(domain, points), pot)

    def test_gradient_rows_match_pair_sum(self, domain, pot):
        config = random_configuration(domain, 9, 32)
        x = config.points
        ambient = np.zeros_like(x)
        for i in range(9):
            for j in range(9):
                if i != j:
                    r = float(np.linalg.norm(x[i] - x[j]))
                    ambient[i] += pair_formula(pot, r)[1] / r * (x[i] - x[j])
        expected = tangent_project_points(config.points, ambient, domain)
        grad = energy_gradient(config, pot)
        for got, want in zip(grad, expected):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_row_blocks_match_one_block(self, domain, pot, monkeypatch):
        points = random_configuration(domain, 9, 35).points
        whole = [
            total_energy_of_points(points, domain, pot),
            *energy_gradient_of_points(points, domain, pot),
        ]
        assert whole[1] == pytest.approx(whole[0], rel=1e-12)
        for block in SMALL_BLOCKS:
            monkeypatch.setattr(potentials, "_BLOCK_ELEMENTS", block)
            assert total_energy_of_points(points, domain, pot) == whole[0]
            energy, grad = energy_gradient_of_points(points, domain, pot)
            assert energy == pytest.approx(whole[0], rel=1e-12)
            assert energy == pytest.approx(whole[1], rel=1e-12)
            for got, want in zip(grad, whole[2]):
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_row_blocks_with_coincident_points(self, domain, pot, monkeypatch):
        points = random_configuration(domain, 9, 36).points
        points[7] = points[1]
        exact = total_energy_of_points(points, domain, pot)
        for block in SMALL_BLOCKS:
            monkeypatch.setattr(potentials, "_BLOCK_ELEMENTS", block)
            assert total_energy_of_points(points, domain, pot) == exact
            energy, grad = energy_gradient_of_points(points, domain, pot)
            assert energy == pytest.approx(exact, rel=1e-12)
            assert not np.isfinite(grad).all()
            with pytest.raises(CoincidentPointsError):
                energy_gradient(Configuration(domain, points), pot)


def test_energy_sums_subnormal_pair_energies_exactly(monkeypatch):
    # Beside the class, whose tests run once per engine case.  The pair
    # energies -3.6e-311, -3.2e-310 and -1.4e-310 are subnormal: halving or
    # scaling one rounds it, and the exact sum must not.  They are the
    # kernel's values at the pairs' r2, as in the class's exactness test:
    # r2 itself is subnormal, so the formula at r would differ in the last
    # bits.
    pot = riesz(1.99)
    points = np.array([[0.0, 0.0, 0.0], [1e-156, 0.0, 0.0], [3e-156, 0.0, 0.0]])
    r = np.array([1e-156, 3e-156, 3e-156 - 1e-156])
    u, _ = potentials._kernel(pot, r * r, np.empty(3))
    assert np.all((-u > 0.0) & (-u < sys.float_info.min))
    assert u == pytest.approx([pair_formula(pot, rk)[0] for rk in r.tolist()], rel=1e-11)
    want = math.fsum(u.tolist())
    assert total_energy_of_points(points, free3(), pot) == want
    monkeypatch.setattr(potentials, "_BLOCK_ELEMENTS", 2 * 3)
    assert total_energy_of_points(points, free3(), pot) == want


def walk_bits(points, domain, pot):
    """Exact energy, line-search energy and gradient, as bytes."""
    energy, grad = energy_gradient_of_points(points, domain, pot)
    return total_energy_of_points(points, domain, pot).hex(), energy.hex(), grad.tobytes()


# At N = 9, blocks of 2, 2, 3 and 2 rows, or seven one-row blocks and a last
# of two; at N = 600, the four default blocks.
BLOCK_CASES = pytest.mark.parametrize(
    "n, block",
    [(9, 2 * 9), (9, 5), (600, potentials._BLOCK_ELEMENTS)],
    ids=["2-rows", "1-row", "default"],
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5000), st.integers(1, 1 << 17))
def test_blocks_tile_the_rows_within_the_size(n, size):
    with mock.patch.object(potentials, "_BLOCK_ELEMENTS", size):
        blocks = potentials._blocks(n)
    a = 0
    for start, m in blocks:
        assert start == a
        if n - a > size:
            assert m == 1
        else:
            assert 1 <= m and m * (n - a) <= size
        if a + m < n:
            # Full: one more row would not fit.
            assert (m + 1) * (n - a) > size
        a += m
    assert a == n


def test_default_blocks():
    # One block up to N = 256, so small-N walks run on the calling thread.
    assert potentials._blocks(256) == [(0, 256)]
    assert len(potentials._blocks(257)) == 2
    assert len(potentials._blocks(2048)) <= 35


@pytest.fixture
def threads(monkeypatch):
    """``threads(count)`` makes later walks run on count threads.

    It patches ``_THREADS`` and starts the helper pool afresh, so the next
    walk of several blocks starts a pool of count - 1 helpers, whatever an
    earlier walk of the test run started.  Teardown shuts that pool down and
    clears the cache again.
    """

    def close():
        if potentials._helpers.cache_info().currsize:
            potentials._helpers().shutdown()
        potentials._helpers.cache_clear()

    def use(count):
        monkeypatch.setattr(potentials, "_THREADS", count)
        close()

    yield use
    close()


def walk_helper_first(monkeypatch, threads):
    """Walk on three threads, with a block walked by a helper thread first.

    The calling thread waits before each of its blocks until, in the same
    walk, a helper thread has walked one.
    """
    threads(3)
    caller = threading.get_ident()
    helped = threading.Event()
    walk, pair_block = potentials._walk, potentials._pair_block

    def first_helped_walk(*args):
        helped.clear()
        return walk(*args)

    def helper_first_block(*args):
        if threading.get_ident() == caller:
            assert helped.wait(timeout=60), "no helper thread walked a block"
            return pair_block(*args)
        try:
            return pair_block(*args)
        finally:
            helped.set()

    monkeypatch.setattr(potentials, "_walk", first_helped_walk)
    monkeypatch.setattr(potentials, "_pair_block", helper_first_block)


@BLOCK_CASES
@pytest.mark.parametrize(
    "domain,pot", ENGINE_CASES,
    ids=[f"{d.kind}-{p.kind}{p.exponent or ''}" for d, p in ENGINE_CASES],
)
def test_threaded_walk_gives_the_bits_of_one_thread(n, block, domain, pot, monkeypatch, threads):
    monkeypatch.setattr(potentials, "_BLOCK_ELEMENTS", block)
    points = random_configuration(domain, n, 38).points
    threads(1)
    serial = walk_bits(points, domain, pot)
    walk_helper_first(monkeypatch, threads)
    assert walk_bits(points, domain, pot) == serial


@BLOCK_CASES
@pytest.mark.parametrize("pot", [log_coulomb(), riesz(-1.0)], ids=["log", "riesz-1"])
def test_threaded_walk_with_coincident_points(n, block, pot, monkeypatch, threads):
    # Points 2k and 2k + 1 coincide, so every block holds a coincident pair,
    # and a helper thread walks at least one.  A RuntimeWarning on any
    # thread fails the test.
    monkeypatch.setattr(potentials, "_BLOCK_ELEMENTS", block)
    walk_helper_first(monkeypatch, threads)
    points = random_configuration(sphere(), n, 39).points
    points[1::2] = points[: n - 1 : 2]
    assert total_energy_of_points(points, sphere(), pot) == math.inf
    energy, grad = energy_gradient_of_points(points, sphere(), pot)
    assert energy == math.inf
    assert not np.isfinite(grad).all()
    with pytest.raises(CoincidentPointsError):
        energy_gradient(Configuration(sphere(), points), pot)


def test_threaded_walk_under_frequent_switches(monkeypatch, threads):
    # Four threads on 60 blocks of 2 to 14 rows, switching every microsecond:
    # a lost or reordered reduction would change the bits.
    monkeypatch.setattr(potentials, "_BLOCK_ELEMENTS", 2 * 200)
    points = random_configuration(sphere(), 200, 44).points
    threads(1)
    serial = walk_bits(points, sphere(), riesz(-1.0))
    threads(4)
    walkers = set()
    pair_block = potentials._pair_block

    def spy(*args):
        walkers.add(threading.get_ident())
        return pair_block(*args)

    monkeypatch.setattr(potentials, "_pair_block", spy)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert walk_bits(points, sphere(), riesz(-1.0)) == serial
    finally:
        sys.setswitchinterval(interval)
    assert len(walkers) > 2


def test_threads_start_only_for_walks_of_several_blocks(monkeypatch, threads):
    threads(3)
    before = threading.active_count()
    points = random_configuration(sphere(), 30, 42).points
    walk_bits(points, sphere(), log_coulomb())
    assert potentials._helpers.cache_info().currsize == 0
    assert threading.active_count() == before
    monkeypatch.setattr(potentials, "_BLOCK_ELEMENTS", 2 * 30)
    for _ in range(40):
        walk_bits(points, sphere(), log_coulomb())
    assert potentials._helpers.cache_info().currsize == 1
    assert threading.active_count() - before <= potentials._THREADS - 1


def send_walk_bits(points, results):
    results.put(walk_bits(points, sphere(), riesz(-1.0)))


def test_forked_child_walks_on_its_own_threads(threads):
    # The child inherits the parent's started pool, but none of its threads.
    threads(3)
    points = random_configuration(sphere(), 600, 43).points
    parent = walk_bits(points, sphere(), riesz(-1.0))
    assert potentials._helpers.cache_info().currsize == 1
    context = multiprocessing.get_context("fork")
    results = context.Queue()
    child = context.Process(target=send_walk_bits, args=(points, results))
    child.start()
    try:
        try:
            got = results.get(timeout=60)
        except queue.Empty:
            pytest.fail("the forked child's walk did not finish")
        child.join(timeout=60)
        assert not child.is_alive()
        assert child.exitcode == 0
        assert got == parent
    finally:
        if child.is_alive():
            child.kill()
            child.join(timeout=10)


ONE_CPU_WALK = """
import os, sys, threading
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import gsaudit
assert "concurrent.futures" not in sys.modules, "import gsaudit loaded concurrent.futures"
from gsaudit import potentials
from gsaudit.geometry import random_configuration
from gsaudit.potentials import energy_gradient_of_points, total_energy_of_points
from gsaudit.problem import riesz, sphere
assert potentials._THREADS == 1, potentials._THREADS
assert len(potentials._blocks(600)) == 4
points = random_configuration(sphere(), 600, 45).points
before = threading.active_count()
energy, grad = energy_gradient_of_points(points, sphere(), riesz(-1.0))
exact = total_energy_of_points(points, sphere(), riesz(-1.0))
assert threading.active_count() == before, "a walk started a thread"
assert potentials._helpers.cache_info().currsize == 0, "a walk started a pool"
assert "concurrent.futures" not in sys.modules, "a walk loaded concurrent.futures"
print(exact.hex(), energy.hex(), grad.tobytes().hex())
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_one_cpu_walks_on_the_calling_thread(threads):
    # _THREADS as computed at import, in a process pinned to one CPU first.
    proc = subprocess.run(
        [sys.executable, "-c", ONE_CPU_WALK], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    exact, energy, grad = proc.stdout.split()
    threads(1)
    points = random_configuration(sphere(), 600, 45).points
    assert (exact, energy, bytes.fromhex(grad)) == walk_bits(points, sphere(), riesz(-1.0))


ONE_BLAS_THREAD_WALK = """
import os
os.environ["OPENBLAS_NUM_THREADS"] = "1"
from gsaudit.geometry import random_configuration
from gsaudit.potentials import energy_gradient_of_points, total_energy_of_points
from gsaudit.problem import log_coulomb, riesz, sphere
points = random_configuration(sphere(), 600, 46).points
for pot in (riesz(-1.0), log_coulomb()):
    energy, grad = energy_gradient_of_points(points, sphere(), pot)
    exact = total_energy_of_points(points, sphere(), pot)
    print(exact.hex(), energy.hex(), grad.tobytes().hex())
"""


def test_walk_bits_do_not_depend_on_blas_threads():
    # The walk's BLAS products (coordinate differences and gradient sums)
    # give the same bits with one BLAS thread as with the default count.
    proc = subprocess.run(
        [sys.executable, "-c", ONE_BLAS_THREAD_WALK], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    points = random_configuration(sphere(), 600, 46).points
    for line, pot in zip(proc.stdout.splitlines(), (riesz(-1.0), log_coulomb()), strict=True):
        exact, energy, grad = line.split()
        assert (exact, energy, bytes.fromhex(grad)) == walk_bits(points, sphere(), pot)


@pytest.mark.parametrize("domain", [sphere(), torus(1.414), free3()], ids=lambda d: d.kind)
def test_duplicated_point_in_general_position_rejected(domain):
    points = random_configuration(domain, 6, 41).points
    points[4] = points[1]
    assert np.all(np.abs(points[1]) > 1e-3)
    with pytest.raises(CoincidentPointsError):
        energy_gradient(Configuration(domain, points), riesz(-1.0))


def assert_exact_sum_is_fsum(values):
    u = np.array(values, dtype=float)
    try:
        want = math.fsum(values)
    except OverflowError:
        with pytest.raises(OverflowError):
            math.fsum(potentials._exact_sum_terms(u, np.empty_like(u)))
        return
    assert math.fsum(potentials._exact_sum_terms(u, np.empty_like(u))).hex() == want.hex()


finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


@settings(deadline=None)
@given(st.lists(finite, min_size=1, max_size=300))
def test_exact_sum_terms_match_fsum(values):
    assert_exact_sum_is_fsum(values)


@settings(deadline=None)
@given(st.lists(finite, min_size=1, max_size=100), st.randoms(use_true_random=False))
def test_exact_sum_terms_match_fsum_when_cancelling(values, random):
    values = values + [-v for v in values]
    random.shuffle(values)
    assert math.fsum(values) == 0.0
    assert_exact_sum_is_fsum(values)


@settings(deadline=None)
@given(
    st.lists(st.floats(min_value=2.0 ** 1023, max_value=1.7e308), min_size=1, max_size=5),
    st.lists(finite, max_size=50),
    st.randoms(use_true_random=False),
)
def test_exact_sum_terms_near_overflow(huge, values, random):
    values = values + [random.choice([1.0, -1.0]) * v for v in huge]
    random.shuffle(values)
    assert_exact_sum_is_fsum(values)
