"""Command-line surface: audit gate, optimizer, model output.

Exit codes: 0 clean, 1 monotonicity violations found (or a failed small-N
check), 2 usage, input or file error — the audit subcommand is designed to
compose into experiment pipelines as a gate.  Only the optimizing commands
import the optimizer, so ``audit`` and ``asymptote`` run without numpy.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys
from pathlib import Path

from . import asymptotics
from .audit import AuditReport, monotonicity_audit
from .problem import (
    COUNT, DOMAIN_TOKENS, POTENTIAL_TOKENS, InputError, parse_domain_token, parse_potential_token,
)
# perfbench/workloads.py also reads parse_table and write_table from here.
from .table import format_rows, parse_table, write_table


# One part of --n: an unsigned decimal count, or an inclusive range lo-hi.
_COUNTS = re.compile(rf"({COUNT.pattern})(?:\s*-\s*({COUNT.pattern}))?")


def parse_n_range(token: str) -> list[int]:
    """Comma-separated counts and inclusive lo-hi ranges, e.g. '2-6,12'."""
    values: list[int] = []
    for part in token.split(","):
        part = part.strip()
        if not part:
            continue
        match = _COUNTS.fullmatch(part)
        if match is None:
            raise InputError(f"bad count {part!r} in --n; expected a count or lo-hi")
        lo, hi = int(match[1]), int(match[2] or match[1])
        if hi < lo:
            raise InputError(f"descending range {part!r} in --n")
        values.extend(range(lo, hi + 1))
    if not values:
        raise InputError("--n selected no counts")
    return sorted(set(values))


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
    if not table.entries:
        raise InputError(f"{args.input}: cannot audit an empty table")
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
    from .optimizer import OptimizerSettings, build_table

    domain = parse_domain_token(args.domain)
    pot = parse_potential_token(args.potential)
    counts = parse_n_range(args.n)
    settings = OptimizerSettings(restarts=args.restarts, seed=args.seed)
    # Fail before the optimization, not after it.
    out = Path(args.out)
    if out.is_dir():
        raise OSError(f"output {str(out)!r} is a directory")
    if not (out.parent.is_dir() and os.access(out.parent, os.W_OK)):
        raise OSError(f"cannot write into directory {str(out.parent)!r}")
    table = build_table(domain, pot, counts, settings)
    write_table(table, args.out)
    print(f"wrote {len(table.entries)} rows to {args.out}")
    return 0


def _cmd_asymptote(args: argparse.Namespace) -> int:
    table = parse_table(args.input)
    model = asymptotics.MODELS[args.model]()
    asymptotics.check_model_compatibility(table, model)
    data_rows = table.counts()
    model_rows = parse_n_range(args.n) if args.n else data_rows
    prefix = Path(args.out)
    data_path = prefix.parent / (prefix.name + "-data.dat")
    model_path = prefix.parent / (prefix.name + "-model.dat")
    data_text = format_rows((n, table.pair_specific(n)) for n in data_rows)
    model_text = format_rows((n, asymptotics.pair_specific_model(model, n)) for n in model_rows)
    data_path.write_text(data_text, encoding="utf-8", newline="\n")
    model_path.write_text(model_text, encoding="utf-8", newline="\n")
    print(f"wrote {data_path} ({len(data_rows)} rows) and {model_path} ({len(model_rows)} rows)")
    return 0


def _cmd_small_n_check(args: argparse.Namespace) -> int:
    from .optimizer import OptimizerSettings, brute_force_monotonicity_check

    domain = parse_domain_token(args.domain)
    pot = parse_potential_token(args.potential)
    restarts = args.restarts if args.restarts is not None else 100 * args.n_max
    settings = OptimizerSettings(restarts=restarts, seed=args.seed)
    report = brute_force_monotonicity_check(domain, pot, args.n_max, settings)
    table = report.table
    for n in table.counts():
        print(f"N={n} energy={table.energy(n)!r} eps={table.pair_specific(n)!r}")
    print(f"pair-specific sequence strictly increasing: {report.eps_strictly_increasing}")
    return 0 if report.eps_strictly_increasing else 1


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

    # The optimizing commands' problem and seed options.
    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("--domain", required=True, help=DOMAIN_TOKENS)
    problem.add_argument("--potential", required=True, help=POTENTIAL_TOKENS)
    problem.add_argument("--seed", type=int, default=0)

    p_opt = sub.add_parser("optimize", parents=[problem], help="produce a candidate energy table")
    p_opt.add_argument("--n", required=True, help="counts, e.g. 2-6 or 2,3,12")
    p_opt.add_argument("--restarts", type=int, default=50)
    p_opt.add_argument("--out", required=True, help="output table file")
    p_opt.set_defaults(func=_cmd_optimize)

    p_asy = sub.add_parser("asymptote", help="emit plot data: table vs large-N model")
    p_asy.add_argument("--model", required=True, choices=asymptotics.MODELS)
    p_asy.add_argument("--input", required=True, help="table file")
    p_asy.add_argument("--out", required=True, help="output prefix for -data.dat/-model.dat")
    p_asy.add_argument(
        "--n", default=None, help="model rows to emit (default: the table's counts)"
    )
    p_asy.set_defaults(func=_cmd_asymptote)

    p_small = sub.add_parser(
        "prop1-check", parents=[problem],
        help="brute-force small-N verification of the monotonicity law",
    )
    p_small.add_argument("--n-max", type=int, required=True, help="largest N, at most 8")
    p_small.add_argument(
        "--restarts", type=int, default=None, help="restart budget (default 100*n_max)"
    )
    p_small.set_defaults(func=_cmd_small_n_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
