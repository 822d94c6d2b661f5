import math
import re

import pytest

from conftest import fixture_path
from gsaudit.asymptotics import (
    A_LOG_SPHERE,
    LOG_SPHERE,
    THOMSON_SPHERE,
    B_THOMSON,
    ZETA_HALF,
    AsymptoticModel,
    check_model_compatibility,
    log_sphere_model,
    model_energy,
    pair_specific_model,
    thomson_sphere_model,
)
from gsaudit.audit import EnergyTable, TableMetadata
from gsaudit.cli import parse_table
from gsaudit.problem import coulomb, free3, log_coulomb, riesz, sphere, torus

# b = 3 sqrt(sqrt(3)/(8 pi)) zeta(1/2) (zeta(1/2, 1/3) - zeta(1/2, 2/3)) / sqrt(3),
# the k-sum written with Hurwitz zeta values, evaluated at 30 digits with mpmath.
B_CLOSED_FORM = -0.5530512933575952


def hurwitz_direct_summation(s: float, q: float = 1.0, terms: int = 4000) -> float:
    """Independent oracle: direct power sums with Euler-Maclaurin tail corrections."""
    total = math.fsum((k + q) ** -s for k in range(terms))
    m = terms + q
    total += m ** (1.0 - s) / (s - 1.0)
    total += 0.5 * m ** -s
    total += s * m ** (-s - 1.0) / 12.0
    total -= s * (s + 1.0) * (s + 2.0) * m ** (-s - 3.0) / 720.0
    return total


def zeta_direct_summation(s: float, terms: int = 4000) -> float:
    return hurwitz_direct_summation(s, 1.0, terms)


class TestZeta:
    def test_half_against_direct_summation(self):
        assert ZETA_HALF == pytest.approx(zeta_direct_summation(0.5), abs=1e-10)

    def test_half_frozen_value(self):
        assert ZETA_HALF == pytest.approx(-1.4603545088095868, abs=1e-9)


class TestBCoefficient:
    def test_published_value(self):
        assert B_THOMSON == pytest.approx(-0.55305, abs=1e-4)

    def test_closed_form(self):
        assert B_THOMSON == pytest.approx(B_CLOSED_FORM, abs=1e-13)

    def test_against_direct_summation(self):
        k_sum = (hurwitz_direct_summation(0.5, 1.0 / 3.0)
                 - hurwitz_direct_summation(0.5, 2.0 / 3.0)) / math.sqrt(3.0)
        prefactor = 3.0 * math.sqrt(math.sqrt(3.0) / (8.0 * math.pi))
        assert B_THOMSON == pytest.approx(prefactor * zeta_direct_summation(0.5) * k_sum, abs=1e-12)


class TestModels:
    def test_log_sphere_fixed_coefficients(self):
        m = log_sphere_model()
        assert m.a == pytest.approx((1.0 - math.log(4.0)) / 4.0, abs=1e-15)
        assert m.b == -0.25

    def test_thomson_fixed_coefficients(self):
        m = thomson_sphere_model()
        assert m.a == 0.5
        assert m.b == pytest.approx(-0.55305, abs=1e-4)
        assert m.b == B_THOMSON

    def test_thomson_two_term_at_four(self):
        m = thomson_sphere_model()
        assert model_energy(m, 4) == pytest.approx(8.0 + 8.0 * m.b, abs=1e-12)
        assert model_energy(m, 4) == pytest.approx(3.5756, abs=2e-3)

    def test_log_sphere_formula(self):
        m = log_sphere_model()
        n = 100
        assert model_energy(m, n) == pytest.approx(
            m.a * n * n + m.b * n * math.log(n), abs=1e-12
        )

    def test_leading_order_limits(self):
        # the N^(3/2) term still contributes b/sqrt(N) ~ 5.5e-4 at N = 10^6;
        # the 1e-6 window needs N = 10^12
        m = thomson_sphere_model()
        assert model_energy(m, 10 ** 6) / 10 ** 12 == pytest.approx(0.5, abs=1e-3)
        assert model_energy(m, 10 ** 12) / 10 ** 24 == pytest.approx(0.5, abs=1e-6)
        assert pair_specific_model(m, 10 ** 6) == pytest.approx(0.5, abs=1e-3)
        assert pair_specific_model(log_sphere_model(), 10 ** 8) == pytest.approx(
            A_LOG_SPHERE, abs=1e-5
        )

    def test_pair_specific_consistency(self):
        m = thomson_sphere_model()
        for n in (2, 17, 1801, 10 ** 6):
            assert pair_specific_model(m, n) * (n * (n - 1)) == pytest.approx(
                model_energy(m, n), rel=1e-15
            )

    def test_linear_in_each_coefficient(self):
        n = 123
        for family in (LOG_SPHERE, THOMSON_SPHERE):
            base = model_energy(AsymptoticModel(family, a=0.5, b=-0.55), n)
            for a_step, b_step in ((0.3, 0.0), (0.0, 0.3)):
                one = model_energy(AsymptoticModel(family, a=0.5 + a_step, b=-0.55 + b_step), n)
                two = model_energy(
                    AsymptoticModel(family, a=0.5 + 2 * a_step, b=-0.55 + 2 * b_step), n
                )
                assert two - base == pytest.approx(2.0 * (one - base), rel=1e-12)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            model_energy(log_sphere_model(), 1)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            AsymptoticModel("flat-plane", a=0.0, b=0.0)


def residuals(table, model):
    """Per-row differences eps_table(N) - eps_model(N), sorted by N."""
    check_model_compatibility(table, model)
    return [(n, table.pair_specific(n) - pair_specific_model(model, n)) for n in table.counts()]


class TestResiduals:
    def test_exact_small_rows_shrink(self):
        table = parse_table(fixture_path("thomson_sphere_exact_small.tsv"))
        rs = residuals(table, thomson_sphere_model())
        assert [n for n, _ in rs] == [2, 3, 4, 5, 6, 12]
        magnitudes = [abs(r) for _, r in rs]
        assert magnitudes == sorted(magnitudes, reverse=True)

    def test_empty_table_gives_empty_list(self):
        assert residuals(EnergyTable(), log_sphere_model()) == []

    def test_family_mismatch_rejected(self):
        log_table = parse_table(fixture_path("log_sphere_pair_n97.tsv"))
        with pytest.raises(ValueError):
            residuals(log_table, thomson_sphere_model())
        thomson_table = parse_table(fixture_path("thomson_sphere_exact_small.tsv"))
        with pytest.raises(ValueError):
            residuals(thomson_table, log_sphere_model())

    def test_domain_mismatch_rejected(self):
        t = EnergyTable(metadata=TableMetadata(domain=torus(1.414)))
        t.add(2, 0.5)
        with pytest.raises(ValueError):
            residuals(t, thomson_sphere_model())

    def test_metadata_free_tables_pass(self):
        t = EnergyTable()
        t.add(2, 0.5)
        assert len(residuals(t, thomson_sphere_model())) == 1

    def test_both_inverse_r_spellings_accepted(self):
        for pot in (riesz(-1.0), coulomb(3)):
            t = EnergyTable(metadata=TableMetadata(domain=sphere(), potential=pot))
            t.add(2, 0.5)
            check_model_compatibility(t, thomson_sphere_model())

    @pytest.mark.parametrize(
        "model, own, token, other",
        [(log_sphere_model(), log_coulomb(), "log", riesz(-1.0)),
         (thomson_sphere_model(), riesz(-1.0), "riesz:-1.0", log_coulomb())],
        ids=["log-sphere", "thomson-sphere"],
    )
    def test_one_rule_for_domain_and_kernel(self, model, own, token, other):
        # A table passes when each header is absent or names the family's problem.
        for metadata in (TableMetadata(), TableMetadata(sphere()), TableMetadata(potential=own),
                         TableMetadata(sphere(), own)):
            check_model_compatibility(EnergyTable(metadata=metadata), model)
        message = f"model family {model.family!r} describes {token} on the unit sphere"
        for metadata in (TableMetadata(torus(2.0)), TableMetadata(free3(), own),
                         TableMetadata(potential=other), TableMetadata(sphere(), riesz(-2.0))):
            with pytest.raises(ValueError, match=re.escape(message)):
                check_model_compatibility(EnergyTable(metadata=metadata), model)

    def test_log_table_consistent_with_leading_coefficient(self):
        table = parse_table(fixture_path("log_sphere_pair_n2000.tsv"))
        assert abs(table.pair_specific(2000) - A_LOG_SPHERE) < 0.01
