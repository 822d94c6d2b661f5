import json
import math
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_path
from gsaudit.asymptotics import A_LOG_SPHERE, thomson_sphere_model
from gsaudit.audit import EnergyTable, TableMetadata, pair_specific, table_digest
from gsaudit.cli import main, parse_n_range, parse_table, write_table
from gsaudit.problem import (
    InputError,
    coulomb,
    free3,
    lennard_jones,
    log_coulomb,
    parse_domain_token,
    parse_potential_token,
    riesz,
    sphere,
    torus,
)
from gsaudit.table import format_table

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
        for token in ("cube", "torus", "torus:0.5", "torus:inf", "torus:nan", "sphere:2"):
            with pytest.raises(InputError):
                parse_domain_token(token)

    def test_potentials(self):
        assert parse_potential_token("log") == log_coulomb()
        assert parse_potential_token("riesz:-1") == riesz(-1.0)
        assert parse_potential_token("coulomb:3") == coulomb(3)
        assert parse_potential_token("lj") == lennard_jones()

    def test_bad_potentials(self):
        for token in ("gravity", "riesz", "riesz:2", "riesz:-inf", "coulomb:2", "lj:1"):
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

    @pytest.mark.parametrize("token", ["+5", "1_0", "-5", "2-", "2-4,-5", "\u0663-\u0665",
                                       "\uff12", "2-\u0664"])
    def test_n_range_takes_unsigned_decimal_counts(self, token):
        with pytest.raises(InputError, match="bad count"):
            parse_n_range(token)

    def test_spaces_around_the_range_dash(self):
        assert parse_n_range("2 - 4") == [2, 3, 4]
        assert parse_n_range(" 2- 4 , 7 ") == [2, 3, 4, 7]

    def test_signed_count_exits_two_before_the_optimization(self, tmp_path, capsys):
        out = tmp_path / "t.tsv"
        rc = main(["optimize", "--domain", "sphere", "--potential", "log",
                   "--n", "-5", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: bad count '-5' in --n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "parse, token, message",
        [(parse_domain_token, "torus", "torus domain needs an aspect ratio, e.g. torus:1.414"),
         (parse_domain_token, "pretzel",
          "unknown domain 'pretzel'; expected sphere | torus:<ratio> | free3"),
         (parse_domain_token, "sphere:2",
          "unknown domain 'sphere:2'; expected sphere | torus:<ratio> | free3"),
         (parse_domain_token, "torus:abc",
          "bad domain 'torus:abc': could not convert string to float: 'abc'"),
         (parse_potential_token, "riesz", "riesz potential needs an exponent, e.g. riesz:-1"),
         (parse_potential_token, "coulomb", "coulomb potential needs a dimension, e.g. coulomb:3"),
         (parse_potential_token, "coulomb:2",
          "bad potential 'coulomb:2': Coulomb dimension must be an integer >= 3"),
         (parse_potential_token, "coulomb:3.5",
          "bad potential 'coulomb:3.5': invalid literal for int() with base 10: '3.5'"),
         (parse_potential_token, "lj:1",
          "unknown potential 'lj:1'; expected log | riesz:<s> | coulomb:<D> | lj")],
    )
    def test_token_error_messages(self, parse, token, message):
        with pytest.raises(InputError) as info:
            parse(token)
        assert str(info.value) == message


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

    def test_bad_count_names_line_number(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("2\t0.5\nx\t1.0\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"bad\.tsv:2: bad count 'x'"):
            parse_table(p)

    def test_rows_carry_no_per_row_source(self, tmp_path):
        # The source is the table's, so a #source line between rows changes
        # nothing about the rows before it.
        p = tmp_path / "sources.tsv"
        p.write_text("#source=a\n2\t0.5\n#source=b\n3\t1.7\n", encoding="utf-8")
        t = parse_table(p)
        expected = EnergyTable()
        expected.add(2, 0.5)
        expected.add(3, 1.7)
        assert t.entries == expected.entries
        assert t.metadata.source == "b"

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

    def test_empty_data_section(self, tmp_path, capsys):
        # A header-only file is an empty table, which the audit refuses.
        p = tmp_path / "empty.tsv"
        p.write_text("#domain=sphere\n", encoding="utf-8")
        table = parse_table(p)
        assert table.entries == {}
        assert table.metadata == TableMetadata(domain=sphere())
        assert main(["audit", "--input", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "empty table" in captured.err
        assert captured.out == ""

    def test_non_utf8_file_names_the_file(self, tmp_path, capsys):
        p = tmp_path / "bytes.tsv"
        p.write_bytes(b"\xff\xfe")
        with pytest.raises(InputError, match="^" + re.escape(f"{p}: 'utf-8' codec")):
            parse_table(p)
        assert main(["audit", "--input", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: ")
        assert "Traceback" not in err

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

    @pytest.mark.parametrize(
        "headers",
        ["#domain=sphere\n#potential=lj\n", "#domain=sphere\n#aspect_ratio=2.0\n"],
        ids=["lj-on-sphere", "ratio-off-torus"],
    )
    def test_headers_no_spec_accepts_fail_the_audit(self, headers, tmp_path, capsys):
        p = tmp_path / "bad.tsv"
        p.write_text(headers + "2\t0.5\n3\t1.7\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"bad\.tsv"):
            parse_table(p)
        assert main(["audit", "--input", str(p)]) == 2
        captured = capsys.readouterr()
        assert "bad.tsv" in captured.err
        assert "no violations" not in captured.out

    def test_aspect_ratio_without_domain_fails_the_audit(self, tmp_path, capsys):
        p = tmp_path / "bad.tsv"
        p.write_text("#aspect_ratio=2\n2\t0.5\n3\t1.7\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"bad\.tsv: #aspect_ratio needs #domain=torus"):
            parse_table(p)
        assert main(["audit", "--input", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {p}:")
        assert "no violations" not in captured.out

    @pytest.mark.parametrize(
        "header, message",
        [("#domain=pretzel", "unknown domain 'pretzel'"),
         ("#domain=torus", "torus domain needs an aspect ratio"),
         ("#potential=yukawa", "unknown potential 'yukawa'")],
        ids=["pretzel", "torus-without-ratio", "yukawa"],
    )
    def test_bad_header_token_names_the_file(self, header, message, tmp_path, capsys):
        p = tmp_path / "bad.tsv"
        p.write_text(f"{header}\n2\t0.5\n", encoding="utf-8")
        with pytest.raises(InputError, match="^" + re.escape(f"{p}: {message}")):
            parse_table(p)
        assert main(["audit", "--input", str(p)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {p}: {message}")

    @pytest.mark.parametrize("ratio", ["0.5", "inf"])
    def test_bad_torus_aspect_ratio_header_fails_the_audit(self, ratio, tmp_path, capsys):
        p = tmp_path / "t.tsv"
        p.write_text(f"#domain=torus\n#aspect_ratio={ratio}\n2\t0.5\n", encoding="utf-8")
        assert main(["audit", "--input", str(p)]) == 2
        assert "error:" in capsys.readouterr().err


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

    # Shortest-repr rows must give back every bit of any finite float: signed
    # zeros, subnormals and values at the edge of overflow included.
    @settings(deadline=None)
    @given(
        rows=st.dictionaries(
            st.integers(min_value=2, max_value=10**9),
            st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 1.7976931348623157e308, -1e308])
            | st.floats(allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=20,
        ),
        # Only pairs that name a problem: Lennard-Jones lives in free 3-space alone.
        metadata=st.builds(
            TableMetadata,
            domain=st.sampled_from([sphere(), free3()])
            | st.floats(min_value=1.0, exclude_min=True, allow_infinity=False).map(torus),
            potential=st.just(log_coulomb())
            | st.floats(max_value=2.0, exclude_max=True, allow_infinity=False)
            .filter(bool)
            .map(riesz),
        )
        | st.just(TableMetadata(free3(), lennard_jones())),
    )
    def test_arbitrary_finite_tables_round_trip_exactly(self, rows, metadata, tmp_path_factory):
        t = EnergyTable(metadata=metadata)
        for n, e in rows.items():
            t.add(n, e)
        out = tmp_path_factory.mktemp("round_trip") / "t.tsv"
        write_table(t, out)
        again = parse_table(out)
        assert {n: e.energy.hex() for n, e in again.entries.items()} == {
            n: e.hex() for n, e in rows.items()
        }
        assert again.metadata == t.metadata
        assert table_digest(again) == table_digest(t)

    def test_metadata_refuses_a_pair_that_names_no_problem(self):
        # So no table that parse_table would refuse can be written.
        with pytest.raises(ValueError, match="Lennard-Jones"):
            TableMetadata(domain=sphere(), potential=lennard_jones())
        with pytest.raises(ValueError, match="Lennard-Jones"):
            TableMetadata(torus(2.0), lennard_jones(), "source")
        metadata = TableMetadata(domain=sphere(), potential=log_coulomb())
        with pytest.raises(FrozenInstanceError):
            metadata.potential = lennard_jones()

    def test_header_only_table_round_trips(self, tmp_path, capsys):
        t = EnergyTable(metadata=TableMetadata(sphere(), log_coulomb(), "run 1"))
        out = tmp_path / "t.tsv"
        write_table(t, out)
        again = parse_table(out)
        assert again.entries == {}
        assert again.metadata == t.metadata
        assert table_digest(again) == table_digest(t)
        assert main(["audit", "--input", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @settings(deadline=None)
    @given(source=st.text())
    def test_every_source_that_can_be_written_reads_back(self, source, tmp_path_factory):
        try:
            metadata = TableMetadata(sphere(), log_coulomb(), source)
        except ValueError:
            assert source != source.strip() or len(source.splitlines()) > 1
            return
        t = EnergyTable(metadata=metadata)
        t.add(2, -1.0)
        out = tmp_path_factory.mktemp("source") / "t.tsv"
        write_table(t, out)
        again = parse_table(out)
        assert again.metadata == t.metadata
        assert {n: e.energy for n, e in again.entries.items()} == {2: -1.0}
        assert table_digest(again) == table_digest(t)

    @pytest.mark.parametrize("source", ["run 1\n3\t-1.0", " padded ", "a\x1cb", "a\r", "x\u2028y"])
    def test_metadata_refuses_a_source_that_does_not_read_back(self, source):
        with pytest.raises(ValueError, match="source"):
            TableMetadata(sphere(), log_coulomb(), source)

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

    def test_empty_table_error_names_the_file(self, tmp_path, capsys):
        p = tmp_path / "empty.tsv"
        p.write_text("#domain=sphere\n", encoding="utf-8")
        assert main(["audit", "--input", str(p)]) == 2
        assert capsys.readouterr().err == f"error: {p}: cannot audit an empty table\n"

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

    @pytest.mark.parametrize(
        "row, message",
        [("1_0\t5.0", "bad count '1_0'"), ("+3\t1.7", "bad count '+3'"),
         ("\u0663\t1.7", "bad count '\u0663'"), ("\uff13\t1.7", "bad count '\uff13'"),
         ("3\t1_7.0", "bad energy '1_7.0'"), ("3\t\u0661.\u0667", "bad energy '\u0661.\u0667'")],
        ids=["underscore-count", "signed-count", "arabic-indic-count", "fullwidth-count",
             "underscore-energy", "arabic-indic-energy"],
    )
    def test_row_token_that_int_or_float_would_widen_exits_two(self, row, message, tmp_path,
                                                                 capsys):
        # Counts are ASCII digits and energies ASCII without '_' separators,
        # though int() and float() read all of these.
        p = tmp_path / "bad.tsv"
        p.write_text(f"2\t0.5\n{row}\n", encoding="utf-8")
        assert main(["audit", "--input", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {p}:2: {message}")
        assert captured.out == ""

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_tolerance_exit_two(self, token, tmp_path, capsys):
        # Pair-specific energies -ln(2)/2 then -100/6: a plain violation.
        p = tmp_path / "violating.tsv"
        p.write_text(f"2\t{-math.log(2.0)!r}\n3\t-100\n", encoding="utf-8")
        assert main(["audit", "--input", str(p)]) == 1
        assert "N=2 fails n=1" in capsys.readouterr().out
        rc = main(["audit", "--input", str(p), "--tolerance", token])
        captured = capsys.readouterr()
        assert rc == 2
        assert "tolerance" in captured.err
        assert "no violations" not in captured.out

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

    @pytest.mark.parametrize(
        "domain, potential", [("torus:inf", "log"), ("sphere", "riesz:-inf")]
    )
    def test_non_finite_parameter_rejected(self, domain, potential, tmp_path, capsys):
        out = tmp_path / "x.tsv"
        rc = main(["optimize", "--domain", domain, "--potential", potential,
                   "--n", "2-3", "--restarts", "1", "--out", str(out)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_range_rejected(self, tmp_path, capsys):
        rc = main(["optimize", "--domain", "sphere", "--potential", "log",
                   "--n", "5-2", "--out", str(tmp_path / "x.tsv")])
        assert rc == 2

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_exits_two(self, seed, tmp_path, capsys):
        # Masked to 64 bits, either would run another seed's rows under its own header.
        out = tmp_path / "x.tsv"
        rc = main(["optimize", "--domain", "sphere", "--potential", "log",
                   "--n", "2", "--restarts", "1", "--seed", seed, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: seed must be ")
        assert not out.exists()

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


@pytest.mark.parametrize(
    "command",
    [
        ["optimize", "--domain", "sphere", "--potential", "riesz:-1", "--n", "2-3",
         "--restarts", "1"],
        ["asymptote", "--model", "thomson-sphere",
         "--input", str(fixture_path("thomson_sphere_exact_small.tsv"))],
    ],
    ids=["optimize", "asymptote"],
)
def test_output_into_missing_directory_exits_two(command, tmp_path, capsys):
    rc = main(command + ["--out", str(tmp_path / "missing" / "out")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["missing/x.tsv", ""], ids=["into-missing-dir", "is-a-dir"])
def test_unwritable_output_fails_before_the_optimization(out, tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("build_table ran before the output was checked")

    monkeypatch.setattr("gsaudit.optimizer.build_table", refuse)
    rc = main(["optimize", "--domain", "sphere", "--potential", "log", "--n", "2-40",
               "--restarts", "5", "--out", str(tmp_path / out)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


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

    def test_log_kernel_output_is_pinned(self, capsys):
        rc = main(["prop1-check", "--domain", "sphere", "--potential", "log",
                   "--n-max", "3", "--seed", "0"])
        assert rc == 0
        assert capsys.readouterr().out == (
            "N=2 energy=-0.693147180559944 eps=-0.346573590279972\n"
            "N=3 energy=-1.6479184330021646 eps=-0.27465307216702745\n"
            "pair-specific sequence strictly increasing: True\n"
        )

    def test_n_max_capped(self, capsys):
        rc = main(["prop1-check", "--domain", "sphere", "--potential", "log",
                   "--n-max", "9"])
        assert rc == 2

    def test_undersized_budget_rejected(self, capsys):
        rc = main(["prop1-check", "--domain", "sphere", "--potential", "log",
                   "--n-max", "3", "--restarts", "100"])
        assert rc == 2


def test_package_import_leaves_the_cli_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import gsaudit, sys; assert 'gsaudit.cli' not in sys.modules"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


GATE_WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from gsaudit.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
engine = ("gsaudit.geometry", "gsaudit.potentials", "gsaudit.optimizer")
loaded = [name for name in engine if name in sys.modules]
print(json.dumps({"results": results, "loaded": loaded}))
"""


def test_gate_runs_without_numpy(tmp_path, capsys):
    # audit and asymptote import neither numpy nor the engine, and their
    # output does not depend on whether numpy is installed.
    commands = [
        ["audit", "--input", str(fixture_path(name)), "--format", fmt]
        for name in FIXTURES for fmt in ("text", "records")
    ] + [
        ["asymptote", "--model", "log-sphere", "--out", str(tmp_path / "log"),
         "--input", str(fixture_path("log_sphere_pair_n97.tsv"))],
        ["asymptote", "--model", "thomson-sphere", "--out", str(tmp_path / "thomson"),
         "--input", str(fixture_path("thomson_sphere_tail.tsv"))],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", GATE_WITHOUT_NUMPY, json.dumps(commands)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    isolated = json.loads(proc.stdout)
    assert isolated["loaded"] == []
    written = sorted(tmp_path.iterdir())
    isolated_files = [path.read_bytes() for path in written]
    for path in written:
        path.unlink()
    in_process = []
    for argv in commands:
        code = main(argv)
        captured = capsys.readouterr()
        in_process.append([code, captured.out, captured.err])
    assert isolated["results"] == in_process
    assert [code for code, _, _ in in_process] == [1] * 6 + [0] * 4
    assert sorted(tmp_path.iterdir()) == written
    assert [path.read_bytes() for path in written] == isolated_files


def test_export_list_is_importable():
    import gsaudit

    missing = [name for name in gsaudit.__all__ if not hasattr(gsaudit, name)]
    assert missing == []
    namespace: dict = {}
    exec("from gsaudit import *", namespace)
    assert set(gsaudit.__all__) <= set(namespace)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gsaudit", "audit", "--input",
         str(fixture_path("log_sphere_pair_n97.tsv"))],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "N=97 fails n=3" in proc.stdout
