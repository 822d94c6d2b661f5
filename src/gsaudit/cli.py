"""Command-line surface: table files, audit gate, optimizer, model output.

Table file format (bit-exact round trip): UTF-8 text with LF line endings;
``#key=value`` header lines carrying metadata (domain, potential,
aspect_ratio, source); data lines ``N<TAB>E`` with E written as a decimal
string via shortest round-trip repr, so re-parsing reproduces the exact
float.  Blank lines are ignored; duplicate N keeps the lower energy with a
logged warning; N < 2 and non-finite energies are input errors.

Exit codes: 0 clean, 1 monotonicity violations found (or a failed small-N
check), 2 usage or input error — the audit subcommand is designed to compose
into experiment pipelines as a gate.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import asymptotics
from .audit import (
    AuditReport,
    EnergyTable,
    TableMetadata,
    brute_force_monotonicity_check,
    monotonicity_audit,
)
from .geometry import FREE3, SPHERE, TORUS, DomainSpec, free3, sphere, torus
from .potentials import (
    LENNARD_JONES,
    LOG,
    RIESZ,
    PotentialSpec,
    coulomb,
    lennard_jones,
    log_coulomb,
    riesz,
)
from .optimizer import OptimizerSettings, build_table

logger = logging.getLogger(__name__)

_DOMAIN_TOKENS = "sphere | torus:<ratio> | free3"
_POTENTIAL_TOKENS = "log | riesz:<s> | coulomb:<D> | lj"


class InputError(ValueError):
    """A user input (file or flag value) could not be interpreted."""


def parse_domain_token(token: str) -> DomainSpec:
    name, _, arg = token.partition(":")
    try:
        if name == SPHERE and not arg:
            return sphere()
        if name == FREE3 and not arg:
            return free3()
        if name == TORUS:
            if not arg:
                raise InputError("torus domain needs an aspect ratio, e.g. torus:1.414")
            return torus(float(arg))
    except InputError:
        raise
    except ValueError as exc:
        raise InputError(f"bad domain {token!r}: {exc}") from exc
    raise InputError(f"unknown domain {token!r}; expected {_DOMAIN_TOKENS}")


def parse_potential_token(token: str) -> PotentialSpec:
    name, _, arg = token.partition(":")
    try:
        if name == LOG and not arg:
            return log_coulomb()
        if name == LENNARD_JONES and not arg:
            return lennard_jones()
        if name == RIESZ:
            if not arg:
                raise InputError("riesz potential needs an exponent, e.g. riesz:-1")
            return riesz(float(arg))
        if name == "coulomb":
            if not arg:
                raise InputError("coulomb potential needs a dimension, e.g. coulomb:3")
            return coulomb(int(arg))
    except InputError:
        raise
    except ValueError as exc:
        raise InputError(f"bad potential {token!r}: {exc}") from exc
    raise InputError(f"unknown potential {token!r}; expected {_POTENTIAL_TOKENS}")


def format_domain_token(domain: DomainSpec) -> str:
    return domain.kind


def format_potential_token(pot: PotentialSpec) -> str:
    if pot.kind == RIESZ:
        return f"riesz:{pot.exponent!r}"
    return pot.kind


def parse_n_range(token: str) -> list[int]:
    """Comma-separated counts and inclusive lo-hi ranges, e.g. '2-6,12'."""
    values: list[int] = []
    for part in token.split(","):
        part = part.strip()
        if not part:
            continue
        lo, dash, hi = part.partition("-") if not part.startswith("-") else ("", "", "")
        try:
            if dash:
                a, b = int(lo), int(hi)
                if b < a:
                    raise InputError(f"descending range {part!r} in --n")
                values.extend(range(a, b + 1))
            else:
                values.append(int(part))
        except InputError:
            raise
        except ValueError as exc:
            raise InputError(f"bad count {part!r} in --n: {exc}") from exc
    if not values:
        raise InputError("--n selected no counts")
    return sorted(set(values))


def parse_table(path: str | Path, allow_empty: bool = False) -> EnergyTable:
    """Read a table file; see the module docstring for the format.

    Malformed lines raise InputError naming the line number.  ``allow_empty``
    admits header-only files (used by the asymptote subcommand, which can emit
    a model over a requested range with no data rows).
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    headers: dict[str, str] = {}
    table = EnergyTable()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, eq, value = line[1:].strip().partition("=")
            if eq:
                headers[key.strip().lower()] = value.strip()
            continue
        fields = line.split()
        if len(fields) != 2:
            raise InputError(f"{path}:{lineno}: expected 'N<TAB>E', got {raw!r}")
        try:
            n = int(fields[0])
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: bad count {fields[0]!r}") from exc
        try:
            energy = float(fields[1])
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: bad energy {fields[1]!r}") from exc
        try:
            table.add(n, energy, label=headers.get("source", ""))
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
    if not table.entries and not allow_empty:
        raise InputError(f"{path}: no rows")
    meta = TableMetadata(source=headers.get("source", ""))
    if "domain" in headers:
        token = headers["domain"]
        if token == TORUS and "aspect_ratio" in headers:
            token = f"torus:{headers['aspect_ratio']}"
        meta.domain = parse_domain_token(token)
    if "potential" in headers:
        meta.potential = parse_potential_token(headers["potential"])
    table.metadata = meta
    return table


def format_table(table: EnergyTable) -> str:
    """Canonical serialization: fixed header order, rows sorted by N, LF endings."""
    lines: list[str] = []
    meta = table.metadata
    if meta.domain is not None:
        lines.append(f"#domain={format_domain_token(meta.domain)}")
        if meta.domain.kind == TORUS:
            lines.append(f"#aspect_ratio={meta.domain.aspect_ratio!r}")
    if meta.potential is not None:
        lines.append(f"#potential={format_potential_token(meta.potential)}")
    if meta.source:
        lines.append(f"#source={meta.source}")
    for n in table.counts():
        lines.append(f"{n}\t{table.entries[n].energy!r}")
    return "\n".join(lines) + "\n"


def write_table(table: EnergyTable, path: str | Path) -> None:
    Path(path).write_text(format_table(table), encoding="utf-8", newline="\n")


def report_records(report: AuditReport) -> list[dict]:
    """Line-delimited record objects for the audit report (violations then bounds)."""
    records: list[dict] = []
    for v in report.violations:
        records.append(
            {
                "type": "violation",
                "N": v.n,
                "n": v.gap,
                "delta_eps": v.delta_eps,
                "table_digest": report.table_digest,
            }
        )
    for n in sorted(report.improved_bounds):
        b = report.improved_bounds[n]
        records.append(
            {
                "type": "bound",
                "N": n,
                "witness_n": b.witness_gap,
                "bound": b.bound,
                "table_digest": report.table_digest,
            }
        )
    return records


def _cmd_audit(args: argparse.Namespace) -> int:
    table = parse_table(args.input)
    report = monotonicity_audit(table, tolerance=args.tolerance)
    if args.format == "records":
        for record in report_records(report):
            print(json.dumps(record))
    else:
        for v in report.violations:
            line = f"N={v.n} fails n={v.gap}: Δε={v.delta_eps:.9f}"
            bound = report.improved_bounds.get(v.n)
            if bound is not None:
                line += f"; improved bound {bound.bound:.10g} (witness n={bound.witness_gap})"
            print(line)
        if report.clean:
            print(f"no violations among {len(table.entries)} rows")
    return 0 if report.clean else 1


def _cmd_optimize(args: argparse.Namespace) -> int:
    domain = parse_domain_token(args.domain)
    pot = parse_potential_token(args.potential)
    counts = parse_n_range(args.n)
    settings = OptimizerSettings(restarts=args.restarts, seed=args.seed)
    table = build_table(domain, pot, counts, settings)
    write_table(table, args.out)
    print(f"wrote {len(table.entries)} rows to {args.out}")
    return 0


def _cmd_asymptote(args: argparse.Namespace) -> int:
    table = parse_table(args.input, allow_empty=True)
    if args.model == asymptotics.LOG_SPHERE:
        model = asymptotics.log_sphere_model()
    else:
        model = asymptotics.thomson_sphere_model()
    asymptotics.check_model_compatibility(table, model)
    data_rows = table.counts()
    model_rows = parse_n_range(args.n) if args.n else data_rows
    prefix = Path(args.out)
    data_path = prefix.parent / (prefix.name + "-data.dat")
    model_path = prefix.parent / (prefix.name + "-model.dat")
    data_text = "".join(f"{n}\t{table.pair_specific(n)!r}\n" for n in data_rows)
    model_text = "".join(
        f"{n}\t{asymptotics.pair_specific_model(model, n)!r}\n" for n in model_rows
    )
    data_path.write_text(data_text, encoding="utf-8", newline="\n")
    model_path.write_text(model_text, encoding="utf-8", newline="\n")
    print(f"wrote {data_path} ({len(data_rows)} rows) and {model_path} ({len(model_rows)} rows)")
    return 0


def _cmd_small_n_check(args: argparse.Namespace) -> int:
    domain = parse_domain_token(args.domain)
    pot = parse_potential_token(args.potential)
    restarts = args.restarts if args.restarts is not None else 100 * args.n_max
    settings = OptimizerSettings(restarts=restarts, seed=args.seed)
    report = brute_force_monotonicity_check(domain, pot, args.n_max, settings)
    for row in report.rows:
        print(f"N={row.n} energy={row.energy!r} eps={row.pair_specific!r}")
    print(f"pair-specific sequence strictly increasing: {report.eps_strictly_increasing}")
    print(f"per-step bound E(N+1) >= ((N+1)/(N-1)) E(N): {report.step_bound_ok}")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsaudit",
        description="Audit N-body ground-state energy tables and generate candidates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_audit = sub.add_parser("audit", help="monotonicity-audit a table file")
    p_audit.add_argument("--input", required=True, help="table file to audit")
    p_audit.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="absolute violation guard (default: relative rule 1e-9*max(1,|eps|))",
    )
    p_audit.add_argument("--format", choices=("text", "records"), default="text")
    p_audit.set_defaults(func=_cmd_audit)

    p_opt = sub.add_parser("optimize", help="produce a candidate energy table")
    p_opt.add_argument("--domain", required=True, help=_DOMAIN_TOKENS)
    p_opt.add_argument("--potential", required=True, help=_POTENTIAL_TOKENS)
    p_opt.add_argument("--n", required=True, help="counts, e.g. 2-6 or 2,3,12")
    p_opt.add_argument("--restarts", type=int, default=50)
    p_opt.add_argument("--seed", type=int, default=0)
    p_opt.add_argument("--out", required=True, help="output table file")
    p_opt.set_defaults(func=_cmd_optimize)

    p_asy = sub.add_parser("asymptote", help="emit plot data: table vs large-N model")
    p_asy.add_argument(
        "--model", required=True, choices=(asymptotics.LOG_SPHERE, asymptotics.THOMSON_SPHERE)
    )
    p_asy.add_argument("--input", required=True, help="table file")
    p_asy.add_argument("--out", required=True, help="output prefix for -data.dat/-model.dat")
    p_asy.add_argument(
        "--n", default=None, help="model rows to emit (default: the table's counts)"
    )
    p_asy.set_defaults(func=_cmd_asymptote)

    p_small = sub.add_parser(
        "prop1-check", help="brute-force small-N verification of the monotonicity law"
    )
    p_small.add_argument("--domain", required=True, help=_DOMAIN_TOKENS)
    p_small.add_argument("--potential", required=True, help=_POTENTIAL_TOKENS)
    p_small.add_argument("--n-max", type=int, required=True, help="largest N, at most 8")
    p_small.add_argument(
        "--restarts", type=int, default=None, help="restart budget (default 100*n_max)"
    )
    p_small.add_argument("--seed", type=int, default=0)
    p_small.set_defaults(func=_cmd_small_n_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
