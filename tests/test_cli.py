import json
import math
import subprocess
import sys

import pytest

from gsaudit import fixture_path
from gsaudit.asymptotics import A_LOG_SPHERE, thomson_sphere_model
from gsaudit.audit import EnergyTable, TableMetadata, pair_specific, table_digest
from gsaudit.cli import (
    InputError,
    format_table,
    main,
    parse_domain_token,
    parse_n_range,
    parse_potential_token,
    parse_table,
    write_table,
)
from gsaudit.geometry import free3, sphere, torus
from gsaudit.potentials import coulomb, lennard_jones, log_coulomb, riesz

FIXTURES = [
    "log_sphere_pair_n97.tsv",
    "log_sphere_pair_n2000.tsv",
    "thomson_sphere_tail.tsv",
    "thomson_sphere_exact_small.tsv",
]


class TestTokenParsing:
    def test_domains(self):
        assert parse_domain_token("sphere") == sphere()
        assert parse_domain_token("torus:1.414") == torus(1.414)
        assert parse_domain_token("free3") == free3()

    def test_bad_domains(self):
        for token in ("cube", "torus", "torus:0.5", "sphere:2"):
            with pytest.raises(InputError):
                parse_domain_token(token)

    def test_potentials(self):
        assert parse_potential_token("log") == log_coulomb()
        assert parse_potential_token("riesz:-1") == riesz(-1.0)
        assert parse_potential_token("coulomb:3") == coulomb(3)
        assert parse_potential_token("lj") == lennard_jones()

    def test_bad_potentials(self):
        for token in ("gravity", "riesz", "riesz:2", "coulomb:2", "lj:1"):
            with pytest.raises(InputError):
                parse_potential_token(token)

    def test_n_ranges(self):
        assert parse_n_range("2-6") == [2, 3, 4, 5, 6]
        assert parse_n_range("2,3,12") == [2, 3, 12]
        assert parse_n_range("2-4,12,3") == [2, 3, 4, 12]

    def test_bad_n_ranges(self):
        for token in ("", "abc", "5-2", "2..5"):
            with pytest.raises(InputError):
                parse_n_range(token)


class TestParseTable:
    def test_fixture_metadata(self):
        t = parse_table(fixture_path("log_sphere_pair_n97.tsv"))
        assert t.metadata.domain == sphere()
        assert t.metadata.potential == log_coulomb()
        assert t.counts() == [97, 100]
        assert t.energy(97) == -891.653265231
        assert t.energy(100) == -1083.376338235

    def test_malformed_line_names_line_number(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("2\t0.5\nnot a row at all\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"bad\.tsv:2"):
            parse_table(p)

    def test_bad_energy_names_line_number(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("2\tzap\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"bad\.tsv:1"):
            parse_table(p)

    def test_unknown_domain_value_lists_valid_ones(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("#domain=pretzel\n2\t0.5\n", encoding="utf-8")
        with pytest.raises(InputError, match="sphere"):
            parse_table(p)

    def test_unknown_potential_value(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("#potential=yukawa\n2\t0.5\n", encoding="utf-8")
        with pytest.raises(InputError, match="riesz"):
            parse_table(p)

    def test_count_below_two_rejected(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("1\t0.5\n", encoding="utf-8")
        with pytest.raises(InputError, match="N"):
            parse_table(p)

    def test_empty_data_section(self, tmp_path):
        p = tmp_path / "empty.tsv"
        p.write_text("#domain=sphere\n", encoding="utf-8")
        with pytest.raises(InputError, match="no rows"):
            parse_table(p)
        assert parse_table(p, allow_empty=True).entries == {}

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            parse_table(tmp_path / "absent.tsv")

    def test_duplicate_keeps_lower_with_warning(self, tmp_path, caplog):
        p = tmp_path / "dup.tsv"
        p.write_text("12\t49.2\n12\t49.165253058\n", encoding="utf-8")
        with caplog.at_level("WARNING"):
            t = parse_table(p)
        assert t.energy(12) == 49.165253058
        assert any("duplicate" in r.message for r in caplog.records)

    def test_blank_lines_ignored(self, tmp_path):
        p = tmp_path / "gaps.tsv"
        p.write_text("\n2\t0.5\n\n\n3\t1.7\n", encoding="utf-8")
        assert parse_table(p).counts() == [2, 3]

    def test_torus_aspect_ratio_header(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("#domain=torus\n#aspect_ratio=1.414\n2\t0.5\n", encoding="utf-8")
        assert parse_table(p).metadata.domain == torus(1.414)


class TestRoundTrip:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixture_round_trips_exactly(self, name, tmp_path):
        original = parse_table(fixture_path(name))
        out = tmp_path / "copy.tsv"
        write_table(original, out)
        reparsed = parse_table(out)
        assert {n: e.energy for n, e in reparsed.entries.items()} == {
            n: e.energy for n, e in original.entries.items()
        }
        assert reparsed.metadata.domain == original.metadata.domain
        assert reparsed.metadata.potential == original.metadata.potential
        assert table_digest(reparsed) == table_digest(original)

    def test_awkward_floats_round_trip(self, tmp_path):
        t = EnergyTable(metadata=TableMetadata(domain=torus(1.414), potential=riesz(-1.5)))
        values = [0.1 + 0.2, 1.0 / 3.0, -1e-17, 12345678.901234567, 5e300]
        for i, v in enumerate(values):
            t.add(i + 2, v)
        out = tmp_path / "t.tsv"
        write_table(t, out)
        again = parse_table(out)
        assert {n: e.energy for n, e in again.entries.items()} == {
            n: e.energy for n, e in t.entries.items()
        }
        assert again.metadata.domain == t.metadata.domain
        assert again.metadata.potential == t.metadata.potential

    def test_canonical_text_has_lf_endings_and_sorted_rows(self):
        t = EnergyTable()
        t.add(5, 1.0)
        t.add(2, 0.5)
        text = format_table(t)
        assert "\r" not in text
        assert text.index("2\t") < text.index("5\t")


class TestAuditCommand:
    def test_violation_exit_and_text(self, capsys):
        rc = main(["audit", "--input", str(fixture_path("log_sphere_pair_n2000.tsv"))])
        assert rc == 1
        out = capsys.readouterr().out
        assert "N=2000 fails n=2212" in out
        assert "-0.000503199" in out
        assert "-388198.8687" in out

    def test_clean_exit_zero(self, capsys):
        rc = main(["audit", "--input", str(fixture_path("thomson_sphere_exact_small.tsv"))])
        assert rc == 0
        assert "no violations" in capsys.readouterr().out

    def test_missing_file_exit_two(self, capsys):
        rc = main(["audit", "--input", "/nonexistent/table.tsv"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_records_re_derivable(self, capsys):
        path = fixture_path("thomson_sphere_tail.tsv")
        rc = main(["audit", "--input", str(path), "--format", "records"])
        assert rc == 1
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        table = parse_table(path)
        digest = table_digest(table)
        violations = [r for r in records if r["type"] == "violation"]
        bounds = [r for r in records if r["type"] == "bound"]
        assert [(r["N"], r["n"]) for r in violations] == [(1801, 1), (2002, 10), (2002, 20)]
        for r in violations:
            assert r["table_digest"] == digest
            replayed = pair_specific(r["N"] + r["n"], table.energy(r["N"] + r["n"])) - (
                pair_specific(r["N"], table.energy(r["N"]))
            )
            assert replayed == r["delta_eps"]
        for r in bounds:
            expected = r["N"] * (r["N"] - 1) * pair_specific(
                r["N"] + r["witness_n"], table.energy(r["N"] + r["witness_n"])
            )
            assert r["bound"] == expected

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_energy_exit_two(self, token, tmp_path, capsys):
        p = tmp_path / "bad.tsv"
        p.write_text(f"2\t0.5\n3\t{token}\n4\t3.6\n", encoding="utf-8")
        rc = main(["audit", "--input", str(p)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "bad.tsv:2" in captured.err
        assert "no violations" not in captured.out
        assert "improved bound" not in captured.out

    def test_explicit_tolerance_flag(self, capsys):
        rc = main([
            "audit", "--input", str(fixture_path("log_sphere_pair_n97.tsv")),
            "--tolerance", "1.0",
        ])
        assert rc == 0


class TestOptimizeCommand:
    def test_deterministic_byte_identical(self, tmp_path, capsys):
        flags = ["optimize", "--domain", "sphere", "--potential", "riesz:-1",
                 "--n", "2-3", "--restarts", "5", "--seed", "7"]
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert main(flags + ["--out", str(a)]) == 0
        assert main(flags + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_output_parses_and_audits_clean(self, tmp_path, capsys):
        out = tmp_path / "t.tsv"
        rc = main(["optimize", "--domain", "sphere", "--potential", "riesz:-1",
                   "--n", "2-4", "--restarts", "20", "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert main(["audit", "--input", str(out)]) == 0
        table = parse_table(out)
        assert table.energy(4) == pytest.approx(6.0 / math.sqrt(8.0 / 3.0), abs=1e-8)

    def test_lj_on_sphere_rejected(self, tmp_path, capsys):
        rc = main(["optimize", "--domain", "sphere", "--potential", "lj",
                   "--n", "2-3", "--out", str(tmp_path / "x.tsv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_range_rejected(self, tmp_path, capsys):
        rc = main(["optimize", "--domain", "sphere", "--potential", "log",
                   "--n", "5-2", "--out", str(tmp_path / "x.tsv")])
        assert rc == 2

    def test_torus_run_writes_aspect_ratio(self, tmp_path, capsys):
        out = tmp_path / "torus.tsv"
        rc = main(["optimize", "--domain", "torus:1.414", "--potential", "coulomb:3",
                   "--n", "2-3", "--restarts", "5", "--seed", "0", "--out", str(out)])
        assert rc == 0
        assert parse_table(out).metadata.domain == torus(1.414)


class TestAsymptoteCommand:
    def test_synthetic_large_n_model_value(self, tmp_path, capsys):
        prefix = tmp_path / "plot"
        rc = main(["asymptote", "--model", "thomson-sphere",
                   "--input", str(fixture_path("thomson_sphere_exact_small.tsv")),
                   "--out", str(prefix), "--n", "1000000"])
        assert rc == 0
        model_rows = (tmp_path / "plot-model.dat").read_text().splitlines()
        assert len(model_rows) == 1
        n, value = model_rows[0].split("\t")
        assert n == "1000000"
        b = thomson_sphere_model().b
        expected = 0.5 + b * 1e-3 + 0.5e-6
        assert float(value) == pytest.approx(expected, abs=1e-6)
        data_rows = (tmp_path / "plot-data.dat").read_text().splitlines()
        assert len(data_rows) == 6

    def test_aligned_columns_by_default(self, tmp_path, capsys):
        prefix = tmp_path / "plot"
        rc = main(["asymptote", "--model", "thomson-sphere",
                   "--input", str(fixture_path("thomson_sphere_exact_small.tsv")),
                   "--out", str(prefix)])
        assert rc == 0
        data = (tmp_path / "plot-data.dat").read_text().splitlines()
        model = (tmp_path / "plot-model.dat").read_text().splitlines()
        assert [r.split("\t")[0] for r in data] == [r.split("\t")[0] for r in model]
        table = parse_table(fixture_path("thomson_sphere_exact_small.tsv"))
        for row in data:
            n, value = row.split("\t")
            assert float(value) == table.pair_specific(int(n))

    def test_log_sphere_limit(self, tmp_path, capsys):
        src = tmp_path / "src.tsv"
        src.write_text("#domain=sphere\n#potential=log\n2\t-0.6931471805599453\n",
                       encoding="utf-8")
        rc = main(["asymptote", "--model", "log-sphere", "--input", str(src),
                   "--out", str(tmp_path / "p"), "--n", "100000000"])
        assert rc == 0
        _, value = (tmp_path / "p-model.dat").read_text().split("\t")
        assert float(value) == pytest.approx(A_LOG_SPHERE, abs=1e-5)

    def test_empty_table_still_emits_model(self, tmp_path, capsys):
        src = tmp_path / "empty.tsv"
        src.write_text("#domain=sphere\n#potential=log\n", encoding="utf-8")
        rc = main(["asymptote", "--model", "log-sphere", "--input", str(src),
                   "--out", str(tmp_path / "p"), "--n", "100,1000"])
        assert rc == 0
        assert (tmp_path / "p-data.dat").read_text() == ""
        assert len((tmp_path / "p-model.dat").read_text().splitlines()) == 2

    def test_family_mismatch_exit_two(self, tmp_path, capsys):
        rc = main(["asymptote", "--model", "log-sphere",
                   "--input", str(fixture_path("thomson_sphere_exact_small.tsv")),
                   "--out", str(tmp_path / "p")])
        assert rc == 2


class TestSmallNCheckCommand:
    def test_vacuous_pass(self, capsys):
        rc = main(["prop1-check", "--domain", "sphere", "--potential", "riesz:-1",
                   "--n-max", "2", "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "N=2" in out and "strictly increasing: True" in out

    def test_log_kernel_small(self, capsys):
        rc = main(["prop1-check", "--domain", "sphere", "--potential", "log",
                   "--n-max", "3", "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "eps=-0.34657" in out

    def test_n_max_capped(self, capsys):
        rc = main(["prop1-check", "--domain", "sphere", "--potential", "log",
                   "--n-max", "9"])
        assert rc == 2

    def test_undersized_budget_rejected(self, capsys):
        rc = main(["prop1-check", "--domain", "sphere", "--potential", "log",
                   "--n-max", "3", "--restarts", "100"])
        assert rc == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gsaudit", "audit", "--input",
         str(fixture_path("log_sphere_pair_n97.tsv"))],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "N=97 fails n=3" in proc.stdout
