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

    Minimizes (N(N-1) / (M(M-1))) * E(M) over all present M > N.  Returns
    None when no later row improves on the recorded E(N) (or none exists);
    ties in the minimum go to the smallest offset.
    """
    if n not in table.entries:
        raise KeyError(f"N={n} is not present in the table")
    pairs_n = n * (n - 1)
    best: float | None = None
    best_gap = 0
    for m in table.counts():
        if m <= n:
            continue
        candidate = pairs_n * pair_specific(m, table.entries[m].energy)
        if best is None or candidate < best:
            best, best_gap = candidate, m - n
    if best is None or not best < table.entries[n].energy:
        return None
    return ImprovedBound(best, best_gap)


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
    eps = {n: table.pair_specific(n) for n in counts}
    violations: list[Violation] = []
    for i, n in enumerate(counts):
        tau = tolerance if tolerance is not None else (
            RELATIVE_TOLERANCE_BASE * max(1.0, abs(eps[n]))
        )
        for m in counts[i + 1:]:
            delta = eps[m] - eps[n]
            if delta < -tau:
                violations.append(Violation(n, m - n, delta))
    bounds: dict[int, ImprovedBound] = {}
    for n in sorted({v.n for v in violations}):
        improvement = improved_upper_bound(table, n)
        if improvement is not None:
            bounds[n] = improvement
    return AuditReport(
        violations=tuple(violations),
        improved_bounds=bounds,
        tolerance=tolerance if tolerance is not None else RELATIVE_TOLERANCE_BASE,
        relative=tolerance is None,
        table_digest=table_digest(table),
    )

