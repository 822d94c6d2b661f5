import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import gsaudit.audit
from conftest import fixture_path
from gsaudit.audit import (
    EnergyTable,
    RELATIVE_TOLERANCE_BASE,
    improved_upper_bound,
    monotonicity_audit,
    pair_specific,
    table_digest,
)
from gsaudit.cli import parse_table


def make_table(rows):
    t = EnergyTable()
    for n, e in rows:
        t.add(n, e)
    return t


# fixture contents: the two log-sphere pairs plus the 1/r tail rows whose
# later entries are reconstructed below from the published differences
LOG_PAIR_97 = [(97, -891.653265231), (100, -1083.376338235)]
LOG_PAIR_2000 = [(2000, -386187.080630499), (4212, -1722205.927290610)]

EXACT_SMALL_THOMSON = [
    (2, 0.5),
    (3, math.sqrt(3.0)),
    (4, 6.0 / math.sqrt(8.0 / 3.0)),
    (5, 0.5 + 6.0 / math.sqrt(2.0) + math.sqrt(3.0)),
    (6, 12.0 / math.sqrt(2.0) + 1.5),
]


class TestPairSpecific:
    def test_two_points(self):
        assert pair_specific(2, 0.5) == 0.25

    def test_against_exact_division(self):
        # oracle: exact rational division, rounded once to float
        for n, e in [(97, -891.653265231), (2000, -386187.080630499), (3, 1.25)]:
            exact = float(Fraction(repr(e)) / (n * (n - 1)))
            assert pair_specific(n, e) == pytest.approx(exact, abs=1e-18)

    def test_frozen_values(self):
        assert pair_specific(97, -891.653265231) == pytest.approx(
            -0.09575314274387886, abs=1e-15
        )
        assert pair_specific(2000, -386187.080630499) == pytest.approx(
            -0.09659506769147048, abs=1e-15
        )

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            pair_specific(1, 1.0)


class TestMonotonicityAudit:
    def test_log_pair_97(self):
        report = monotonicity_audit(make_table(LOG_PAIR_97))
        assert len(report.violations) == 1
        v = report.violations[0]
        assert (v.n, v.gap) == (97, 3)
        assert v.delta_eps == pytest.approx(-0.013678811, abs=1e-9)
        bound = report.improved_bounds[97]
        assert bound.witness_gap == 3
        assert bound.bound == pytest.approx(-1019.030349, abs=1e-5)

    def test_log_pair_2000(self):
        report = monotonicity_audit(make_table(LOG_PAIR_2000))
        assert len(report.violations) == 1
        v = report.violations[0]
        assert (v.n, v.gap) == (2000, 2212)
        assert v.delta_eps == pytest.approx(-0.000503199, abs=1e-9)
        bound = report.improved_bounds[2000]
        assert bound.witness_gap == 2212
        assert bound.bound == pytest.approx(-388198.8687, abs=1e-3)

    def test_exact_small_table_is_clean_at_zero_tolerance(self):
        report = monotonicity_audit(make_table(EXACT_SMALL_THOMSON), tolerance=0.0)
        assert report.violations == ()
        assert report.improved_bounds == {}

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            monotonicity_audit(EnergyTable())

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            monotonicity_audit(make_table(LOG_PAIR_97), tolerance=-1.0)

    def test_insertion_order_does_not_matter(self):
        a = make_table(LOG_PAIR_2000 + LOG_PAIR_97)
        b = make_table(LOG_PAIR_97[::-1] + LOG_PAIR_2000[::-1])
        ra, rb = monotonicity_audit(a), monotonicity_audit(b)
        assert ra == rb
        assert ra.table_digest == rb.table_digest

    def test_violations_sorted_and_complete(self):
        # a decreasing table: every later row violates against every earlier
        t = make_table([(2, 10.0), (3, 10.0), (4, 10.0)])
        report = monotonicity_audit(t, tolerance=0.0)
        assert [(v.n, v.gap) for v in report.violations] == [(2, 1), (2, 2), (3, 1)]

    def test_tolerance_suppresses_small_decreases(self):
        eps2 = 0.25
        t = make_table([(2, 0.5), (3, (eps2 - 1e-12) * 6)])
        assert monotonicity_audit(t).violations == ()  # relative default ~1e-9
        assert len(monotonicity_audit(t, tolerance=0.0).violations) == 1

    def test_soundness_recomputable_from_table(self):
        t = make_table(LOG_PAIR_97 + LOG_PAIR_2000)
        report = monotonicity_audit(t)
        for v in report.violations:
            lhs = pair_specific(v.n + v.gap, t.energy(v.n + v.gap))
            rhs = pair_specific(v.n, t.energy(v.n))
            assert lhs - rhs == v.delta_eps
            assert lhs < rhs - report.tolerance * (
                max(1.0, abs(rhs)) if report.relative else 1.0
            )

    def test_bound_arithmetic_path(self):
        t = make_table(LOG_PAIR_97 + LOG_PAIR_2000)
        report = monotonicity_audit(t)
        for n, b in report.improved_bounds.items():
            witness = n + b.witness_gap
            expected = n * (n - 1) * pair_specific(witness, t.energy(witness))
            assert b.bound == expected
            assert b.bound < t.energy(n)

    def test_every_flagged_n_gets_a_bound(self):
        t = make_table(LOG_PAIR_97 + LOG_PAIR_2000)
        report = monotonicity_audit(t)
        assert set(report.improved_bounds) == {v.n for v in report.violations}


class TestImprovedUpperBound:
    def test_monotone_table_yields_no_improvement(self):
        t = make_table(EXACT_SMALL_THOMSON)
        assert improved_upper_bound(t, 4) is None

    def test_missing_n(self):
        with pytest.raises(KeyError):
            improved_upper_bound(make_table(LOG_PAIR_97), 98)

    def test_last_row_has_no_later_data(self):
        assert improved_upper_bound(make_table(LOG_PAIR_97), 100) is None

    def test_tie_takes_smallest_witness(self):
        # scaled candidates from N=3 and N=4 are exactly equal
        t = make_table([(2, 10.0), (3, 3.0), (4, 6.0)])
        result = improved_upper_bound(t, 2)
        assert result.witness_gap == 1
        assert result.bound == 2 * pair_specific(3, 3.0)


class TestEnergyTableIngestion:
    def test_duplicate_keeps_lower(self, caplog):
        t = EnergyTable()
        with caplog.at_level("WARNING"):
            assert t.add(12, 49.2)
            assert not t.add(12, 49.3)
            assert t.add(12, 49.165253058)
        assert t.energy(12) == 49.165253058
        assert sum("duplicate N=12" in r.message for r in caplog.records) == 2

    def test_counts_sorted(self):
        t = make_table([(5, 1.0), (2, 1.0), (9, 1.0)])
        assert t.counts() == [2, 5, 9]

    def test_row_below_two_rejected(self):
        with pytest.raises(ValueError):
            EnergyTable().add(1, 0.0)

    @pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf])
    def test_non_finite_energy_rejected(self, energy):
        t = EnergyTable()
        with pytest.raises(ValueError, match="finite"):
            t.add(5, energy)
        assert t.entries == {}

    def test_digest_ignores_labels_and_order(self):
        a = EnergyTable()
        a.add(2, 0.5, label="x")
        a.add(3, 1.7, label="y")
        b = EnergyTable()
        b.add(3, 1.7)
        b.add(2, 0.5)
        assert table_digest(a) == table_digest(b)
        b.add(4, 3.7)
        assert table_digest(a) != table_digest(b)


class TestDerivedTailFixture:
    """The bundled 1/r tail fixture must match its published construction."""

    def reconstruct(self):
        eps_1801 = Fraction("1579605.0292504800") / (1801 * 1800)
        eps_2002 = Fraction("2004888.5938241700") / (2002 * 2001)
        return {
            1801: 1579605.0292504800,
            1802: float((eps_1801 + Fraction("-0.0000044325")) * (1802 * 1801)),
            2002: 2004888.5938241700,
            2012: float((eps_2002 + Fraction("-0.0125431412")) * (2012 * 2011)),
            2022: float((eps_2002 + Fraction("-0.012518560")) * (2022 * 2021)),
        }

    def test_fixture_matches_reconstruction(self):
        table = parse_table(fixture_path("thomson_sphere_tail.tsv"))
        expected = self.reconstruct()
        assert {n: e.energy for n, e in table.entries.items()} == expected

    def test_exactly_the_published_violations(self):
        table = parse_table(fixture_path("thomson_sphere_tail.tsv"))
        report = monotonicity_audit(table)
        assert [(v.n, v.gap) for v in report.violations] == [(1801, 1), (2002, 10), (2002, 20)]

    def test_published_deltas_reproduced(self):
        table = parse_table(fixture_path("thomson_sphere_tail.tsv"))
        report = monotonicity_audit(table)
        deltas = {(v.n, v.gap): v.delta_eps for v in report.violations}
        assert deltas[(1801, 1)] == pytest.approx(-0.0000044325, abs=1e-10)
        assert deltas[(2002, 10)] == pytest.approx(-0.0125431412, abs=1e-10)
        assert deltas[(2002, 20)] == pytest.approx(-0.012518560, abs=1e-10)

    def test_published_bound_at_2002(self):
        table = parse_table(fixture_path("thomson_sphere_tail.tsv"))
        report = monotonicity_audit(table)
        bound = report.improved_bounds[2002]
        assert bound.witness_gap == 10
        assert bound.bound == pytest.approx(1954640.745, abs=2e-3)



def test_audit_module_imports_only_the_table():
    """The audit is a pure table property: no optimizer, geometry or kernels.

    The table and the models read only the problem vocabulary, too.
    """
    allowed = {"audit": {".table"}, "table": {".problem"}, "asymptotics": {".problem", ".table"}}
    for module, expected in allowed.items():
        path = Path(gsaudit.audit.__file__).with_name(f"{module}.py")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        package_imports = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("gsaudit")):
                package_imports.add(("." * node.level) + (node.module or ""))
            elif isinstance(node, ast.Import):
                package_imports.update(a.name for a in node.names if a.name.startswith("gsaudit"))
        assert package_imports == expected, module
