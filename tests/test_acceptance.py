"""End-to-end acceptance suite.

Each test exercises one acceptance criterion at its pinned tolerance and
prints one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``
to see them).  Expected values come from independent oracles computed inline:
exact rational arithmetic for table fixtures, closed-form configuration
energies for small N, golden-ratio icosahedron coordinates, Euler-Maclaurin
direct summation for the zeta constant, and central finite differences for
gradients.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import fixture_path
from gsaudit.asymptotics import B_THOMSON, ZETA_HALF, log_sphere_model, pair_specific_model
from gsaudit.audit import monotonicity_audit, pair_specific, table_digest
from gsaudit.cli import main, parse_table, write_table
from gsaudit.geometry import random_configuration, retract_points, tangent_project_points
from gsaudit.optimizer import OptimizerSettings, brute_force_monotonicity_check, build_table, multistart
from gsaudit.potentials import energy_gradient, total_energy_of_points
from gsaudit.problem import coulomb, free3, lennard_jones, log_coulomb, riesz, sphere, torus


@pytest.fixture()
def report(capsys):
    """One PASS/FAIL line per criterion, printed even under output capture."""

    def _report(num: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
        assert ok, f"criterion {num}: {detail}"

    return _report


def test_criterion_1_log_sphere_pair_97(report):
    start = time.perf_counter()
    table = parse_table(fixture_path("log_sphere_pair_n97.tsv"))
    audit = monotonicity_audit(table)
    elapsed = time.perf_counter() - start
    checks = []
    checks.append(len(audit.violations) == 1)
    v = audit.violations[0]
    checks.append((v.n, v.gap) == (97, 3))
    checks.append(abs(v.delta_eps - (-0.013678811)) <= 1e-9)
    bound = audit.improved_bounds[97].bound
    checks.append(abs(bound - (-1019.030349)) <= 1e-5)
    checks.append(elapsed < 1.0)
    report(1, all(checks),
           f"N=97 delta_eps={v.delta_eps:.12f} bound={bound:.6f} ({elapsed:.3f}s)")


def test_criterion_2_log_sphere_pair_2000(report):
    start = time.perf_counter()
    table = parse_table(fixture_path("log_sphere_pair_n2000.tsv"))
    audit = monotonicity_audit(table)
    elapsed = time.perf_counter() - start
    checks = []
    checks.append(len(audit.violations) == 1)
    v = audit.violations[0]
    checks.append((v.n, v.gap) == (2000, 2212))
    checks.append(abs(v.delta_eps - (-0.000503199)) <= 1e-9)
    bound = audit.improved_bounds[2000].bound
    checks.append(abs(bound - (-388198.8687)) <= 1e-3)
    checks.append(elapsed < 1.0)
    report(2, all(checks),
           f"N=2000 delta_eps={v.delta_eps:.12f} bound={bound:.4f} ({elapsed:.3f}s)")


def test_criterion_3_thomson_1801(report):
    # the N=1802 row is reconstructed from the published pair-specific
    # difference; re-derive it here in exact rational arithmetic and check the
    # bundled fixture carries exactly that value
    printed_delta = -0.0000044325
    eps_1801 = Fraction("1579605.0292504800") / (1801 * 1800)
    derived_1802 = float((eps_1801 + Fraction("-0.0000044325")) * (1802 * 1801))
    table = parse_table(fixture_path("thomson_sphere_tail.tsv"))
    checks = [table.energy(1801) == 1579605.0292504800,
              table.energy(1802) == derived_1802]
    audit = monotonicity_audit(table)
    flagged = {v.n for v in audit.violations}
    checks.append(1801 in flagged)
    delta = next(v.delta_eps for v in audit.violations if (v.n, v.gap) == (1801, 1))
    checks.append(abs(delta - printed_delta) <= 1e-10)
    report(3, all(checks), f"flagged {sorted(flagged)}; delta_eps(1801,1)={delta:.12e}")


def icosahedron_energy() -> float:
    """Independent oracle: 1/r energy of the unit icosahedron from golden-ratio coordinates."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    scale = math.sqrt(1.0 + phi * phi)
    vertices = []
    for a, b in [(1.0, phi), (1.0, -phi), (-1.0, phi), (-1.0, -phi)]:
        vertices.append((0.0, a / scale, b / scale))
        vertices.append((a / scale, b / scale, 0.0))
        vertices.append((b / scale, 0.0, a / scale))
    return math.fsum(
        1.0 / math.dist(p, q) for p, q in itertools.combinations(vertices, 2)
    )


def test_criterion_4_small_n_optimizer_exactness(report):
    start = time.perf_counter()
    settings = OptimizerSettings(restarts=200, seed=0)
    inverse_r = riesz(-1.0)
    oracle_12 = icosahedron_energy()
    targets = [
        (2, 0.5, 1e-9),
        (3, math.sqrt(3.0), 1e-9),
        (4, 6.0 / math.sqrt(8.0 / 3.0), 1e-8),
        (12, oracle_12, 1e-6),
    ]
    checks = [abs(oracle_12 - 49.165253058) < 1e-8,
              abs(6.0 / math.sqrt(8.0 / 3.0) - 3.674234614) < 1e-9]
    details = []
    for n, expected, tol in targets:
        got = multistart(sphere(), inverse_r, n, settings).energy
        checks.append(abs(got - expected) <= tol)
        details.append(f"N={n}: {got:.12g} (target {expected:.12g} +-{tol:g})")
    elapsed = time.perf_counter() - start
    checks.append(elapsed < 60.0)
    report(4, all(checks), "; ".join(details) + f" ({elapsed:.1f}s)")


def test_criterion_5_small_n_monotonicity_property(report):
    start = time.perf_counter()
    settings = OptimizerSettings(restarts=600, seed=0)
    checks = []
    details = []
    for pot, name in [(riesz(-1.0), "1/r"), (log_coulomb(), "log")]:
        result = brute_force_monotonicity_check(sphere(), pot, 6, settings)
        checks.append(result.eps_strictly_increasing)
        eps = ", ".join(f"{result.table.pair_specific(n):.5f}" for n in result.table.counts())
        details.append(f"{name}: eps=[{eps}]")
    elapsed = time.perf_counter() - start
    checks.append(elapsed < 120.0)
    report(5, all(checks), "; ".join(details) + f" ({elapsed:.1f}s)")


def zeta_direct_summation(s: float, terms: int = 4000) -> float:
    """Independent oracle: direct power sums with Euler-Maclaurin tail corrections."""
    total = math.fsum(k ** -s for k in range(1, terms))
    m = float(terms)
    total += m ** (1.0 - s) / (s - 1.0)
    total += 0.5 * m ** -s
    total += s * m ** (-s - 1.0) / 12.0
    total -= s * (s + 1.0) * (s + 2.0) * m ** (-s - 3.0) / 720.0
    return total


def test_criterion_6_series_coefficient(report):
    start = time.perf_counter()
    b = B_THOMSON
    zeta_half = ZETA_HALF
    oracle = zeta_direct_summation(0.5)
    elapsed = time.perf_counter() - start
    checks = [
        abs(b - (-0.55305)) <= 1e-4,
        abs(zeta_half - (-1.4603545)) <= 1e-6,
        abs(zeta_half - oracle) <= 1e-9,
        elapsed < 5.0,
    ]
    report(6, all(checks), f"b={b:.7f} zeta(1/2)={zeta_half:.9f} oracle={oracle:.9f} ({elapsed:.2f}s)")


def test_criterion_7_log_sphere_asymptotic_agreement(report):
    start = time.perf_counter()
    settings = OptimizerSettings(restarts=6, seed=0, gradient_tolerance=1e-6)
    table = build_table(sphere(), log_coulomb(), list(range(51, 81)), settings)
    model = log_sphere_model()
    worst = 0.0
    for n in table.counts():
        gap = abs(table.pair_specific(n) - pair_specific_model(model, n))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    ok = worst < 0.01 and elapsed < 600.0
    report(7, ok, f"N=51..80 worst |eps - model| = {worst:.5f} (limit 0.01) ({elapsed:.1f}s)")


def test_criterion_8_gradient_correctness(report):
    start = time.perf_counter()
    combos = []
    for domain in (sphere(), torus(1.414), free3()):
        kernels = [log_coulomb(), riesz(-1.0), riesz(1.0), coulomb(5)]
        if domain.kind == "free3":
            kernels.append(lennard_jones())
        combos.extend((domain, pot) for pot in kernels)
    rng = np.random.default_rng(2024)
    h = 1e-6
    n_configs = 0
    worst = 0.0
    for index, (domain, pot) in enumerate(combos):
        for seed in (index, 100 + index):
            config = random_configuration(domain, 7, seed)
            grad = energy_gradient(config, pot)
            directions = [grad / np.linalg.norm(grad)]
            raw = rng.standard_normal((2,) + config.points.shape[:1] + (3,))
            for r in raw:
                v = tangent_project_points(config.points, r, domain)
                directions.append(v / np.linalg.norm(v))
            for v in directions:
                plus = total_energy_of_points(
                    retract_points(config.points, h * v, domain), domain, pot
                )
                minus = total_energy_of_points(
                    retract_points(config.points, -h * v, domain), domain, pot
                )
                fd = (plus - minus) / (2.0 * h)
                analytic = float(np.einsum("ij,ij->", grad, v))
                rel = abs(fd - analytic) / max(abs(fd), abs(analytic))
                worst = max(worst, rel)
            n_configs += 1
    elapsed = time.perf_counter() - start
    ok = n_configs >= 20 and worst <= 1e-6 and elapsed < 30.0
    report(8, ok, f"{n_configs} configurations, worst relative error {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_9_determinism_and_round_trip(report, tmp_path, capsys):
    start = time.perf_counter()
    checks = []
    flags = ["optimize", "--domain", "sphere", "--potential", "riesz:-1",
             "--n", "2-4", "--restarts", "10", "--seed", "3"]
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    checks.append(main(flags + ["--out", str(a)]) == 0)
    checks.append(main(flags + ["--out", str(b)]) == 0)
    identical = a.read_bytes() == b.read_bytes()
    checks.append(identical)
    fixtures = ["log_sphere_pair_n97.tsv", "log_sphere_pair_n2000.tsv",
                "thomson_sphere_tail.tsv", "thomson_sphere_exact_small.tsv"]
    exact = True
    for name in fixtures:
        original = parse_table(fixture_path(name))
        copy_path = tmp_path / name
        write_table(original, copy_path)
        reparsed = parse_table(copy_path)
        same_rows = {n: e.energy for n, e in reparsed.entries.items()} == {
            n: e.energy for n, e in original.entries.items()
        }
        exact = exact and same_rows and table_digest(reparsed) == table_digest(original)
    checks.append(exact)
    elapsed = time.perf_counter() - start
    report(9, all(checks),
           f"byte-identical={identical} round-trips-exact={exact} ({elapsed:.1f}s)")
