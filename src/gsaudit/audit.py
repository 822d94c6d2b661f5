"""Monotonicity auditing of putative ground-state energy tables.

The pair-specific energy of a true N-point ground state, E(N) / (N(N-1)),
can only increase with N.  A recorded table of computer-experimental energies
must therefore satisfy eps(N+n) >= eps(N) for every pair of present indices;
any decrease certifies that the table's entry at N sits strictly above the
true ground-state energy.  Whenever that happens, scaling the later entry
back, (N(N-1) / ((N+n)(N+n-1))) * E(N+n), is a valid upper bound on the true
energy at N that beats the recorded value.

This module implements the audit over all index pairs and the improved
upper bounds with their witnesses.  The table itself, its file format and its
digest live in :mod:`gsaudit.table`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .table import pair_specific, table_digest
from .table import EnergyTable, TableMetadata  # noqa: F401  (perfbench/workloads.py reads both)

# Default violation guard: a pair (N, N+n) only counts as a violation when
# eps(N+n) - eps(N) < -tau with tau = RELATIVE_TOLERANCE_BASE * max(1, |eps(N)|).
# Published 12-digit tables compare exactly; the relative guard protects
# user-supplied noisy tables from spurious flags.
RELATIVE_TOLERANCE_BASE = 1e-9


@dataclass(frozen=True)
class Violation:
    """A pair of table rows whose pair-specific energies decrease.

    ``n`` is the flagged particle count N, ``gap`` the offset n >= 1 to the
    later row, ``delta_eps`` the (negative) difference eps(N+n) - eps(N).
    """

    n: int
    gap: int
    delta_eps: float


@dataclass(frozen=True)
class ImprovedBound:
    """A sharper upper bound for a flagged N, with the witnessing offset."""

    bound: float
    witness_gap: int


@dataclass
class AuditReport:
    violations: tuple[Violation, ...]
    improved_bounds: dict[int, ImprovedBound]
    tolerance: float
    relative: bool
    table_digest: str

    @property
    def clean(self) -> bool:
        return not self.violations


def improved_upper_bound(table: EnergyTable, n: int) -> ImprovedBound | None:
    """Best upper bound on the true energy at N from the later table rows.

    The bound is N(N-1) * min over present M > N of eps(M), each candidate
    computed as ``N(N-1) * pair_specific(M, E(M))`` and paired with its
    offset M - N, so ties go to the smallest offset.  Returns None when the
    bound is not below the recorded E(N), which includes a table with no
    row past N.
    """
    if n not in table.entries:
        raise KeyError(f"N={n} is not present in the table")
    bound, gap = min(
        ((n * (n - 1) * pair_specific(m, entry.energy), m - n)
         for m, entry in table.entries.items() if m > n),
        default=(math.inf, 0),
    )
    return ImprovedBound(bound, gap) if bound < table.entries[n].energy else None


def monotonicity_audit(table: EnergyTable, tolerance: float | None = None) -> AuditReport:
    """Scan every ordered pair of present counts for pair-specific decreases.

    A pair (N, N+n) is a violation when eps(N+n) - eps(N) < -tau.  With
    ``tolerance`` given, tau is that absolute value; with None, the default
    relative rule tau = RELATIVE_TOLERANCE_BASE * max(1, |eps(N)|) applies.
    All violating pairs are reported (not just the first per N), sorted by
    (N, n), and every flagged N gets its improved upper bound.  The report is
    a pure function of the table contents and the tolerance.
    """
    if not table.entries:
        raise ValueError("cannot audit an empty table")
    if tolerance is not None and not 0.0 <= tolerance < math.inf:
        raise ValueError("tolerance must be finite and nonnegative")
    counts = table.counts()
    eps = [table.pair_specific(n) for n in counts]
    violations: list[Violation] = []
    for i, (n, eps_n) in enumerate(zip(counts, eps)):
        tau = RELATIVE_TOLERANCE_BASE * max(1.0, abs(eps_n)) if tolerance is None else tolerance
        for m, eps_m in zip(counts[i + 1:], eps[i + 1:]):
            delta = eps_m - eps_n
            if delta < -tau:
                violations.append(Violation(n, m - n, delta))
    bounds = {n: improved_upper_bound(table, n) for n in sorted({v.n for v in violations})}
    return AuditReport(
        violations=tuple(violations),
        improved_bounds={n: b for n, b in bounds.items() if b is not None},
        tolerance=tolerance if tolerance is not None else RELATIVE_TOLERANCE_BASE,
        relative=tolerance is None,
        table_digest=table_digest(table),
    )

