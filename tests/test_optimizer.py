import math

import numpy as np
import pytest

from gsaudit.audit import monotonicity_audit
from gsaudit.geometry import Configuration, free3, random_configuration, sphere, surface_normals, torus
from gsaudit.optimizer import (
    OptimizerSettings,
    build_table,
    derived_seed,
    local_minimize,
    multistart,
)
from gsaudit.potentials import (
    CoincidentPointsError,
    energy_gradient,
    lennard_jones,
    log_coulomb,
    riesz,
    total_energy,
)

INVERSE_R = riesz(-1.0)

# analytic optima on the unit sphere for the 1/r kernel
E2 = 0.5
E3 = math.sqrt(3.0)
E4 = 6.0 / math.sqrt(8.0 / 3.0)


class TestSettings:
    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerSettings(restarts=0)
        with pytest.raises(ValueError):
            OptimizerSettings(gradient_tolerance=0.0)
        with pytest.raises(ValueError):
            OptimizerSettings(max_iterations=0)
        with pytest.raises(ValueError):
            OptimizerSettings(initial_step=0.0)

    def test_size_dependent_defaults(self):
        s = OptimizerSettings()
        assert s.resolved(10) == (500, 0.01)
        assert OptimizerSettings(max_iterations=7, initial_step=0.5).resolved(10) == (7, 0.5)

    def test_derived_seeds_differ_per_restart(self):
        seeds = {derived_seed(0, r) for r in range(100)}
        assert len(seeds) == 100
        assert derived_seed(0, 3) == derived_seed(0, 3)


class TestLocalMinimize:
    def test_two_points_reach_antipodal(self):
        settings = OptimizerSettings(gradient_tolerance=1e-9)
        result = local_minimize(random_configuration(sphere(), 2, 15), INVERSE_R, settings)
        assert result.energy == pytest.approx(E2, abs=1e-9)
        p, q = result.configuration.points
        assert np.linalg.norm(p + q) < 1e-4

    def test_two_points_log(self):
        settings = OptimizerSettings(gradient_tolerance=1e-9)
        result = local_minimize(random_configuration(sphere(), 2, 8), log_coulomb(), settings)
        assert result.energy == pytest.approx(-math.log(2.0), abs=1e-9)

    def test_accepted_energies_strictly_decrease(self):
        result = local_minimize(
            random_configuration(sphere(), 9, 3), log_coulomb(), OptimizerSettings()
        )
        trace = np.array(result.energy_trace)
        assert np.all(np.diff(trace) < 0.0)

    def test_energy_matches_final_configuration(self):
        result = local_minimize(
            random_configuration(torus(1.414), 5, 4), INVERSE_R, OptimizerSettings()
        )
        assert total_energy(result.configuration, INVERSE_R) == result.energy

    def test_gradient_norm_recomputable(self):
        result = local_minimize(
            random_configuration(sphere(), 6, 5), INVERSE_R, OptimizerSettings()
        )
        grad = energy_gradient(result.configuration, INVERSE_R)
        recomputed = float(np.sqrt((grad * grad).sum(axis=1).max()))
        assert abs(recomputed - result.gradient_norm) < 1e-12

    def test_tangency_at_convergence(self):
        settings = OptimizerSettings(gradient_tolerance=1e-7, max_iterations=5000)
        result = local_minimize(random_configuration(sphere(), 5, 6), INVERSE_R, settings)
        assert result.converged
        grad = energy_gradient(result.configuration, INVERSE_R)
        normals = surface_normals(result.configuration.points, sphere())
        assert np.max(np.abs(np.einsum("ij,ij->i", grad, normals))) < 1e-12
        assert np.max(np.linalg.norm(grad, axis=1)) < settings.gradient_tolerance

    def test_coincident_start_rejected(self):
        pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        with pytest.raises(CoincidentPointsError):
            local_minimize(Configuration(sphere(), pts), INVERSE_R, OptimizerSettings())

    def test_result_satisfies_domain_invariants(self):
        for domain in (sphere(), torus(1.414)):
            result = local_minimize(
                random_configuration(domain, 6, 7), INVERSE_R, OptimizerSettings()
            )
            result.configuration.validate()

    def test_rotating_the_start_barely_moves_the_final_energy(self):
        rng = np.random.default_rng(19)
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q = q * np.sign(np.diag(r))
        start = random_configuration(sphere(), 4, 21)
        rotated = Configuration(sphere(), start.points @ q.T)
        settings = OptimizerSettings(gradient_tolerance=1e-9, max_iterations=2000)
        e0 = local_minimize(start, INVERSE_R, settings).energy
        e1 = local_minimize(rotated, INVERSE_R, settings).energy
        assert abs(e0 - e1) < 1e-8


class TestMultistart:
    def test_three_points_reach_equilateral(self):
        settings = OptimizerSettings(restarts=50, seed=0, gradient_tolerance=1e-9)
        result = multistart(sphere(), INVERSE_R, 3, settings)
        assert result.energy == pytest.approx(E3, abs=1e-9)

    def test_four_points_reach_tetrahedron(self):
        settings = OptimizerSettings(restarts=50, seed=0)
        result = multistart(sphere(), INVERSE_R, 4, settings)
        assert result.energy == pytest.approx(E4, abs=1e-8)

    def test_deterministic(self):
        settings = OptimizerSettings(restarts=20, seed=42)
        a = multistart(sphere(), INVERSE_R, 5, settings)
        b = multistart(sphere(), INVERSE_R, 5, settings)
        assert a.energy == b.energy
        assert a.restart_index == b.restart_index
        assert np.array_equal(a.configuration.points, b.configuration.points)

    def test_energies_are_upper_bounds_on_analytic_minima(self):
        settings = OptimizerSettings(restarts=30, seed=5)
        for n, exact in [(2, E2), (3, E3), (4, E4)]:
            result = multistart(sphere(), INVERSE_R, n, settings)
            assert result.energy >= exact - 1e-8

    def test_lj_cluster_free_space(self):
        # four points at pairwise separation 2^(1/6) reach the kernel minimum
        # -0.25 on all six pairs
        settings = OptimizerSettings(restarts=40, seed=2)
        result = multistart(free3(), lennard_jones(), 4, settings)
        assert result.energy == pytest.approx(-1.5, abs=1e-7)

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            multistart(sphere(), INVERSE_R, 1, OptimizerSettings())


class TestBuildTable:
    def test_small_inverse_r_table_is_audit_clean(self):
        settings = OptimizerSettings(restarts=60, seed=3)
        table = build_table(sphere(), INVERSE_R, list(range(2, 7)), settings)
        assert table.counts() == [2, 3, 4, 5, 6]
        assert monotonicity_audit(table).clean

    def test_log_table_pair_specific_increases(self):
        settings = OptimizerSettings(restarts=40, seed=4)
        table = build_table(sphere(), log_coulomb(), [2, 3, 4], settings)
        eps = [table.pair_specific(n) for n in table.counts()]
        assert eps == sorted(eps)

    def test_metadata_and_labels(self):
        settings = OptimizerSettings(restarts=5, seed=9)
        table = build_table(sphere(), INVERSE_R, [2], settings)
        assert table.metadata.domain == sphere()
        assert table.metadata.potential == INVERSE_R
        assert "restarts=5" in table.entries[2].label
        assert "seed=9" in table.entries[2].label

    def test_unconverged_best_restart_warns(self, caplog):
        settings = OptimizerSettings(restarts=2, seed=1, max_iterations=1)
        with caplog.at_level("WARNING", logger="gsaudit.optimizer"):
            build_table(sphere(), INVERSE_R, [7], settings)
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 1
        assert "N=7" in messages[0] and "gradient norm" in messages[0]

    def test_converged_rows_do_not_warn(self, caplog):
        settings = OptimizerSettings(restarts=2, seed=1, gradient_tolerance=1e-8)
        with caplog.at_level("WARNING", logger="gsaudit.optimizer"):
            build_table(sphere(), INVERSE_R, [2, 3], settings)
        assert not caplog.records

    def test_single_row_table(self):
        settings = OptimizerSettings(restarts=5, seed=1)
        table = build_table(sphere(), INVERSE_R, [2], settings)
        assert monotonicity_audit(table).clean

    def test_rows_below_two_rejected(self):
        with pytest.raises(ValueError):
            build_table(sphere(), INVERSE_R, [1, 2], OptimizerSettings())
