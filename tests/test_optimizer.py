import math

import numpy as np
import pytest

from gsaudit import optimizer
from gsaudit.audit import monotonicity_audit
from gsaudit.geometry import (
    Configuration,
    StepTooLargeError,
    random_configuration,
    retract_points,
    surface_normals,
)
from gsaudit.table import format_table
from gsaudit.optimizer import (
    OptimizerSettings,
    brute_force_monotonicity_check,
    build_table,
    derived_seed,
    local_minimize,
    multistart,
)
from gsaudit.potentials import (
    CoincidentPointsError,
    energy_gradient,
    energy_gradient_of_points,
    total_energy,
)
from gsaudit.problem import free3, lennard_jones, log_coulomb, riesz, sphere, torus

INVERSE_R = riesz(-1.0)

# analytic optima on the unit sphere for the 1/r kernel
E2 = 0.5
E3 = math.sqrt(3.0)
E4 = 6.0 / math.sqrt(8.0 / 3.0)


def bb1_oracle(c0, pot, max_iter):
    """The BB1 descent alone, as every run takes it until its first rejected trial.

    Returns the accepted line-search energies, the final points and the
    iteration of the first rejected trial (None if there was none).
    """
    domain = c0.domain
    x = c0.points.copy()
    energy, grad = energy_gradient_of_points(x, domain, pot)
    step = 0.1 / c0.n_points
    trace, first_rejection = [energy], None
    for iteration in range(max_iter):
        while True:
            try:
                x_new = retract_points(x, -step * grad, domain)
            except StepTooLargeError:
                step *= 0.5
                continue
            e_new, grad_new = energy_gradient_of_points(x_new, domain, pot)
            if e_new < energy and np.isfinite(grad_new).all():
                break
            step *= 0.5
            if first_rejection is None:
                first_rejection = iteration
        x, energy = x_new, e_new
        trace.append(energy)
        s = -step * grad
        y = grad_new - grad
        sy = float(np.einsum("ij,ij->", s, y))
        bb = float(np.einsum("ij,ij->", s, s)) / sy if sy > 0.0 else math.inf
        step = min(max(bb, 1e-3 * step), 1e3 * step) if math.isfinite(bb) else 1.2 * step
        grad = grad_new
    return trace, x, first_rejection


def dense_bfgs_inverse(pairs, dim):
    """The inverse-Hessian matrix of BFGS from H0 = s.y / y.y of the newest pair."""
    _, y, sy = pairs[-1]
    h = sy / float(y @ y) * np.eye(dim)
    for s, y, sy in pairs:
        v = np.eye(dim) - np.outer(y, s) / sy
        h = v.T @ h @ v + np.outer(s, s) / sy
    return h


class TestSettings:
    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerSettings(restarts=0)
        with pytest.raises(ValueError):
            OptimizerSettings(gradient_tolerance=0.0)
        for tolerance in (math.nan, math.inf):
            with pytest.raises(ValueError):
                OptimizerSettings(gradient_tolerance=tolerance)
        with pytest.raises(ValueError):
            OptimizerSettings(max_iterations=0)

    @pytest.mark.parametrize("field", ["restarts", "max_iterations"])
    @pytest.mark.parametrize("value", [2.5, math.nan, math.inf, "3"])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            OptimizerSettings(**{field: value})

    @pytest.mark.parametrize("field", ["restarts", "max_iterations"])
    def test_numpy_integer_counts_pass(self, field):
        settings = OptimizerSettings(**{field: np.int64(3)})
        assert multistart(sphere(), log_coulomb(), 3, settings).energy < 0.0

    def test_size_dependent_defaults(self):
        s = OptimizerSettings()
        assert s.resolved(10) == (500, 0.01)
        assert OptimizerSettings(max_iterations=7).resolved(10) == (7, 0.01)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, math.nan, "3"])
    def test_seed_is_an_integer_below_two_to_the_64(self, seed):
        with pytest.raises(ValueError, match="seed"):
            OptimizerSettings(seed=seed)

    def test_every_accepted_seed_names_its_own_run(self):
        largest = OptimizerSettings(seed=np.uint64(2**64 - 1))
        assert "seed=18446744073709551615 " in largest.digest()
        assert derived_seed(largest.seed, 0) != derived_seed(0, 0)
        assert derived_seed(2**64 - 1, 1) == int(
            np.random.SeedSequence(2**64 - 1, spawn_key=(1,)).generate_state(1, np.uint64)[0]
        )

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

    @pytest.mark.parametrize("n", [53, 54, 56, 58, 59])
    def test_converges_within_the_iteration_cap(self, n):
        # With a fixed x1.2 step growth these starts all hit the 50N cap.
        start = random_configuration(sphere(), n, derived_seed(0, 0))
        settings = OptimizerSettings(gradient_tolerance=1e-6)
        assert local_minimize(start, log_coulomb(), settings).converged

    def test_log_run_is_pinned(self):
        # The generator's main path: the energy (by float.hex) and the number
        # of accepted iterates of one build-log-sphere start.
        start = random_configuration(sphere(), 53, derived_seed(0, 0))
        result = local_minimize(start, log_coulomb(), OptimizerSettings(gradient_tolerance=1e-6))
        assert float.hex(result.energy) == "-0x1.452363595641fp+8"
        assert len(result.energy_trace) == 168

    @pytest.mark.parametrize("pot", [log_coulomb(), INVERSE_R], ids=["log", "inverse-r"])
    def test_line_search_stall_ends_the_run(self, monkeypatch, pot):
        # No line-search energy resolves a gradient norm of 1e-15, so the
        # halved step falls below the stall threshold long before the cap.
        line_search, outcomes = optimizer._line_search, []

        def recorded(*args):
            outcomes.append(line_search(*args))
            return outcomes[-1]

        monkeypatch.setattr(optimizer, "_line_search", recorded)
        settings = OptimizerSettings(gradient_tolerance=1e-15)
        result = local_minimize(random_configuration(sphere(), 6, 1), pot, settings)
        max_iter, _ = settings.resolved(6)
        assert not result.converged
        assert outcomes[-1] is None and None not in outcomes[:-1]
        assert len(result.energy_trace) == len(outcomes) < max_iter // 5
        assert np.all(np.diff(result.energy_trace) < 0.0)
        assert result.energy == total_energy(result.configuration, pot)

    def test_inverse_r_stall_is_pinned(self):
        # A build-table start on the 1/r kernel whose line search stalls near
        # 1e-6.  An accept test that resolves smaller decreases is expected to
        # move this pin.  The BLAS kernel moves the run's last bits and, at the
        # default tolerance, whether it converges; at 1e-10 the run on every
        # kernel ends at the stall exit, far below the iteration cap.
        start = random_configuration(sphere(), 67, derived_seed(0, 0))
        settings = OptimizerSettings(gradient_tolerance=1e-10)
        result = local_minimize(start, INVERSE_R, settings)
        max_iter, _ = settings.resolved(67)
        assert not result.converged
        assert len(result.energy_trace) - 1 < max_iter
        assert 1e-7 < result.gradient_norm < 1e-5
        assert np.all(np.diff(result.energy_trace) < 0.0)

    def test_non_descending_lbfgs_direction_drops_the_pairs(self, monkeypatch):
        # With s.y > 0 the two-loop direction always descends, so only a
        # broken product reaches this guard: the run must fall back to the
        # BB step along -grad instead of climbing, and start its pairs afresh.
        calls = []

        def uphill(g, pairs):
            calls.append(len(pairs))
            return -g

        monkeypatch.setattr(optimizer, "_two_loop", uphill)
        start = random_configuration(sphere(), 12, 0)
        result = local_minimize(start, log_coulomb(), OptimizerSettings())
        assert calls and set(calls) == {1}
        assert result.converged
        assert np.all(np.diff(result.energy_trace) < 0.0)

    @pytest.mark.parametrize(
        "domain, n, steps", [(sphere(), 200, 6), (torus(3.0), 64, 12)]
    )
    def test_bb1_phase_without_rejections_is_unchanged(self, domain, n, steps):
        # A relax-style run: 1/r, a few steps, and no rejected trial, so it
        # never leaves the BB1 rule.
        start = random_configuration(domain, n, 0)
        settings = OptimizerSettings(max_iterations=steps, gradient_tolerance=1e-12)
        trace, points, first_rejection = bb1_oracle(start, INVERSE_R, steps)
        assert first_rejection is None
        result = local_minimize(start, INVERSE_R, settings)
        assert result.energy_trace == tuple(trace)
        assert np.array_equal(result.configuration.points, points)

    def test_bb1_phase_lasts_until_the_first_rejected_trial(self):
        start = random_configuration(sphere(), 64, 0)
        trace, _, first_rejection = bb1_oracle(start, log_coulomb(), 20)
        assert first_rejection is not None
        result = local_minimize(start, log_coulomb(), OptimizerSettings(max_iterations=20))
        kept = first_rejection + 2
        assert result.energy_trace[:kept] == tuple(trace[:kept])
        assert result.energy_trace[kept] != trace[kept]

    @pytest.mark.parametrize("count", [1, 3, optimizer._LBFGS_MEMORY])
    def test_two_loop_matches_the_dense_bfgs_product(self, count):
        rng = np.random.default_rng(count)
        dim = 24
        a = rng.standard_normal((dim, dim))
        hessian = a @ a.T + dim * np.eye(dim)
        pairs = []
        for _ in range(count):
            s = rng.standard_normal(dim)
            y = hessian @ s
            pairs.append((s, y, float(s @ y)))
        g = rng.standard_normal(dim)
        expected = dense_bfgs_inverse(pairs, dim) @ g
        got = optimizer._two_loop(g, pairs)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize(
        "domain, pot", [(sphere(), log_coulomb()), (torus(3.0), INVERSE_R)]
    )
    def test_steps_after_the_switch_are_tangent(self, monkeypatch, domain, pot):
        two_loop, retract = optimizer._two_loop, optimizer.retract_points
        switched, steps = [], []

        def counted_two_loop(g, pairs):
            switched.append(len(pairs))
            return two_loop(g, pairs)

        def captured(points, tangents, dom):
            if switched:
                steps.append((points, tangents))
            return retract(points, tangents, dom)

        monkeypatch.setattr(optimizer, "_two_loop", counted_two_loop)
        monkeypatch.setattr(optimizer, "retract_points", captured)
        result = local_minimize(random_configuration(domain, 16, 9), pot, OptimizerSettings())
        assert result.converged
        assert len(steps) > 10 and max(switched) == optimizer._LBFGS_MEMORY
        for points, tangents in steps:
            normal_part = np.einsum("ij,ij->i", tangents, surface_normals(points, domain))
            assert np.all(np.abs(normal_part) <= 1e-12 * np.linalg.norm(tangents, axis=1))

    @pytest.mark.parametrize(
        "domain, pot, n",
        [(sphere(), log_coulomb(), 7), (sphere(), INVERSE_R, 36), (torus(3.0), INVERSE_R, 23)],
    )
    def test_small_n_restarts_converge(self, domain, pot, n):
        # BB1 steps alone ran most of these restarts to the 50·N iteration
        # cap without reaching the default tolerance.
        for r in range(5):
            start = random_configuration(domain, n, derived_seed(0, r))
            assert local_minimize(start, pot, OptimizerSettings(), r).converged

    def test_one_engine_walk_per_trial(self, monkeypatch):
        calls = {"engine": 0, "exact": 0, "trials": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(optimizer, "energy_gradient_of_points",
                            counted("engine", optimizer.energy_gradient_of_points))
        monkeypatch.setattr(optimizer, "total_energy_of_points",
                            counted("exact", optimizer.total_energy_of_points))
        # Each trial retracts once.
        monkeypatch.setattr(optimizer, "retract_points",
                            counted("trials", optimizer.retract_points))
        result = local_minimize(
            random_configuration(sphere(), 12, 9), log_coulomb(), OptimizerSettings()
        )
        assert calls["trials"] >= len(result.energy_trace) - 1 > 0
        assert calls["engine"] == 1 + calls["trials"]
        assert calls["exact"] == 1

    def test_trial_with_non_finite_gradient_halves_the_step(self, monkeypatch):
        engine = optimizer.energy_gradient_of_points
        calls = []

        def first_trial_broken(points, domain, pot):
            calls.append(points)
            energy, grad = engine(points, domain, pot)
            if len(calls) == 2:
                return energy - 1.0, np.full_like(grad, np.nan)
            return energy, grad

        monkeypatch.setattr(optimizer, "energy_gradient_of_points", first_trial_broken)
        start = random_configuration(sphere(), 6, 5)
        result = local_minimize(start, INVERSE_R, OptimizerSettings())
        trace = np.array(result.energy_trace)
        assert np.all(np.isfinite(trace)) and np.all(np.diff(trace) < 0.0)
        assert trace[1] > trace[0] - 1.0
        assert result.converged

    def test_step_too_large_for_the_torus_halves_the_step(self, monkeypatch):
        retract = optimizer.retract_points
        tangents = []

        def first_trial_too_large(points, steps, domain):
            tangents.append(steps)
            if len(tangents) == 1:
                raise StepTooLargeError("step exceeds the torus limit")
            return retract(points, steps, domain)

        monkeypatch.setattr(optimizer, "retract_points", first_trial_too_large)
        start = random_configuration(torus(1.414), 6, 5)
        result = local_minimize(start, INVERSE_R, OptimizerSettings())
        assert np.array_equal(tangents[1], 0.5 * tangents[0])
        assert len(result.energy_trace) > 1
        assert result.converged

    def test_coincident_start_rejected(self):
        pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        with pytest.raises(CoincidentPointsError):
            local_minimize(Configuration(sphere(), pts), INVERSE_R, OptimizerSettings())
        # The energy is finite here, but the gradient is not.
        with pytest.raises(CoincidentPointsError):
            local_minimize(Configuration(sphere(), pts), riesz(1.0), OptimizerSettings())

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
        assert "restarts=5" in table.metadata.source
        assert "seed=9" in table.metadata.source

    def test_header_names_the_step_rule(self):
        settings = OptimizerSettings(restarts=2, seed=9)
        assert settings.digest().endswith(" step=bb1+lbfgs8")
        table = build_table(sphere(), INVERSE_R, [2], settings)
        assert f"#source={settings.digest()}\n" in format_table(table)

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

    def test_default_tolerance_rows_do_not_warn(self, caplog):
        settings = OptimizerSettings(restarts=2, seed=1)
        with caplog.at_level("WARNING", logger="gsaudit.optimizer"):
            build_table(sphere(), INVERSE_R, list(range(2, 13)), settings)
        assert not caplog.records

    def test_single_row_table(self):
        settings = OptimizerSettings(restarts=5, seed=1)
        table = build_table(sphere(), INVERSE_R, [2], settings)
        assert monotonicity_audit(table).clean

    def test_rows_below_two_rejected(self):
        with pytest.raises(ValueError):
            build_table(sphere(), INVERSE_R, [1, 2], OptimizerSettings())


class TestBruteForceSmallN:
    def test_n_max_range_enforced(self):
        settings = OptimizerSettings(restarts=1000)
        for bad in (1, 9):
            with pytest.raises(ValueError):
                brute_force_monotonicity_check(sphere(), INVERSE_R, bad, settings)

    def test_budget_enforced(self):
        settings = OptimizerSettings(restarts=299)
        with pytest.raises(ValueError):
            brute_force_monotonicity_check(sphere(), INVERSE_R, 3, settings)

    def test_n_max_two_is_vacuous(self):
        settings = OptimizerSettings(restarts=200, seed=0)
        report = brute_force_monotonicity_check(sphere(), INVERSE_R, 2, settings)
        assert report.eps_strictly_increasing
        assert report.table.counts() == [2]
        assert report.table.energy(2) == pytest.approx(0.5, abs=1e-9)

    def test_inverse_r_up_to_three(self):
        settings = OptimizerSettings(restarts=300, seed=1)
        report = brute_force_monotonicity_check(sphere(), INVERSE_R, 3, settings)
        assert report.eps_strictly_increasing
        eps = [report.table.pair_specific(n) for n in report.table.counts()]
        assert eps[0] == pytest.approx(0.25, abs=1e-9)
        assert eps[1] == pytest.approx(math.sqrt(3.0) / 6.0, abs=1e-9)

    def test_log_kernel_step_bound(self):
        settings = OptimizerSettings(restarts=300, seed=2)
        report = brute_force_monotonicity_check(sphere(), log_coulomb(), 3, settings)
        assert report.eps_strictly_increasing
        assert report.table.pair_specific(2) == pytest.approx(-math.log(2.0) / 2.0, abs=1e-9)
        # the same law in its per-step form: E(3) >= 3 * E(2) = -3 ln 2
        assert report.table.energy(3) >= 3.0 * report.table.energy(2)

    def test_table_is_build_tables(self):
        settings = OptimizerSettings(restarts=300, seed=1)
        report = brute_force_monotonicity_check(sphere(), INVERSE_R, 3, settings)
        table = build_table(sphere(), INVERSE_R, [2, 3], settings)
        assert report.table.entries == table.entries
        assert format_table(report.table) == format_table(table)
