import math

import numpy as np
import pytest

from gsaudit.geometry import (
    Configuration,
    embed_points,
    free3,
    random_configuration,
    retract_points,
    sphere,
    surface_normals,
    tangent_project_points,
    torus,
)
from gsaudit.potentials import (
    CoincidentPointsError,
    coulomb,
    energy_gradient,
    energy_gradient_of_points,
    lennard_jones,
    log_coulomb,
    pair_energy,
    radial_derivative,
    riesz,
    total_energy,
    total_energy_of_points,
    validate_domain_potential,
)

TETRAHEDRON = np.array(
    [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
) / math.sqrt(3.0)
TETRAHEDRON_EDGE = math.sqrt(8.0 / 3.0)

ANTIPODAL = Configuration(sphere(), np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))


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

    def test_coulomb_dimension_range(self):
        assert coulomb(3).exponent == -1.0
        with pytest.raises(ValueError):
            coulomb(2)

    def test_lj_restricted_to_free_space(self):
        validate_domain_potential(free3(), lennard_jones())
        with pytest.raises(ValueError):
            validate_domain_potential(sphere(), lennard_jones())
        with pytest.raises(ValueError):
            validate_domain_potential(torus(1.414), lennard_jones())


class TestPairEnergy:
    def test_log_at_one(self):
        assert pair_energy(log_coulomb(), 1.0) == 0.0

    def test_inverse_r_at_two(self):
        assert pair_energy(riesz(-1.0), 2.0) == 0.5

    def test_negative_distance_kernel(self):
        # s = 1 gives -r: large separations are favored
        assert pair_energy(riesz(1.0), 3.0) == -3.0

    def test_lj_minimum(self):
        r_star = 2.0 ** (1.0 / 6.0)
        assert pair_energy(lennard_jones(), r_star) == pytest.approx(-0.25, abs=1e-15)

    def test_zero_separation(self):
        assert pair_energy(log_coulomb(), 0.0) == math.inf
        assert pair_energy(riesz(-1.0), 0.0) == math.inf
        assert pair_energy(coulomb(4), 0.0) == math.inf
        assert pair_energy(lennard_jones(), 0.0) == math.inf
        # continuity limit of the positive-exponent branch
        assert pair_energy(riesz(0.5), 0.0) == 0.0

    def test_negative_separation_rejected(self):
        with pytest.raises(ValueError):
            pair_energy(log_coulomb(), -1.0)

    def test_coulomb_matches_power_law_exactly(self):
        rng = np.random.default_rng(17)
        for dim in (3, 4, 5, 7):
            equivalent = riesz(2.0 - dim)
            for r in rng.uniform(0.05, 3.0, size=40):
                assert pair_energy(coulomb(dim), r) == pair_energy(equivalent, r)

    def test_log_is_the_small_exponent_limit(self):
        # (r^-s - 1)/s -> -ln r as s -> 0+
        s = 1e-6
        for r in np.linspace(0.1, 2.0, 25):
            approx = (pair_energy(riesz(-s), r) - 1.0) / s
            assert abs(approx - pair_energy(log_coulomb(), r)) < 1e-5

    def test_radial_derivative_matches_finite_differences(self):
        h = 1e-7
        for pot in (log_coulomb(), riesz(-1.0), riesz(1.5), coulomb(5), lennard_jones()):
            for r in (0.3, 0.9, 1.7):
                fd = (pair_energy(pot, r + h) - pair_energy(pot, r - h)) / (2 * h)
                assert radial_derivative(pot, r) == pytest.approx(fd, rel=1e-6)


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


@pytest.mark.parametrize(
    "domain,pot", ENGINE_CASES,
    ids=[f"{d.kind}-{p.kind}{p.exponent or ''}" for d, p in ENGINE_CASES],
)
class TestEngineMatchesScalarKernel:
    """Energy and gradient agree with a pair-by-pair loop over the scalar kernel."""

    def test_energy_is_fsum_of_pair_energies(self, domain, pot):
        config = random_configuration(domain, 9, 31)
        x = embed_points(config.points, domain)
        pairs = [
            pair_energy(pot, float(np.linalg.norm(x[i] - x[j])))
            for i in range(9) for j in range(i + 1, 9)
        ]
        assert total_energy(config, pot) == pytest.approx(math.fsum(pairs), rel=1e-12)

    def test_gradient_rows_match_pair_sum(self, domain, pot):
        config = random_configuration(domain, 9, 32)
        x = embed_points(config.points, domain)
        ambient = np.zeros_like(x)
        for i in range(9):
            for j in range(9):
                if i != j:
                    r = float(np.linalg.norm(x[i] - x[j]))
                    ambient[i] += radial_derivative(pot, r) / r * (x[i] - x[j])
        expected = tangent_project_points(config.points, ambient, domain)
        grad = energy_gradient(config, pot)
        for got, want in zip(grad, expected):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("domain", [sphere(), torus(1.414), free3()], ids=lambda d: d.kind)
def test_duplicated_point_in_general_position_rejected(domain):
    points = random_configuration(domain, 6, 41).points
    points[4] = points[1]
    assert np.all(np.abs(embed_points(points, domain)[1]) > 1e-3)
    with pytest.raises(CoincidentPointsError):
        energy_gradient_of_points(points, domain, riesz(-1.0))
