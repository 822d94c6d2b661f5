"""Monotonicity auditing of putative ground-state energy tables.

The pair-specific energy of a true N-point ground state, E(N) / (N(N-1)),
can only increase with N.  A recorded table of computer-experimental energies
must therefore satisfy eps(N+n) >= eps(N) for every pair of present indices;
any decrease certifies that the table's entry at N sits strictly above the
true ground-state energy.  Whenever that happens, scaling the later entry
back, (N(N-1) / ((N+n)(N+n-1))) * E(N+n), is a valid upper bound on the true
energy at N that beats the recorded value.

This module implements the pair-specific scaling, the audit over all index
pairs, the improved upper bounds with their witnesses, and a brute-force
small-N verification of the monotonicity law using the multistart optimizer
as an oracle.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass, field

from .geometry import DomainSpec
from .potentials import PotentialSpec

logger = logging.getLogger(__name__)

# Default violation guard: a pair (N, N+n) only counts as a violation when
# eps(N+n) - eps(N) < -tau with tau = RELATIVE_TOLERANCE_BASE * max(1, |eps(N)|).
# Published 12-digit tables compare exactly; the relative guard protects
# user-supplied noisy tables from spurious flags.
RELATIVE_TOLERANCE_BASE = 1e-9


def pair_specific(n: int, energy: float) -> float:
    """Energy per ordered pair, energy / (N(N-1)); the quantity that is monotone."""
    if n < 2:
        raise ValueError("pair-specific energy needs N >= 2")
    return energy / (n * (n - 1))


@dataclass(frozen=True)
class TableEntry:
    energy: float
    label: str = ""


@dataclass
class TableMetadata:
    domain: DomainSpec | None = None
    potential: PotentialSpec | None = None
    source: str = ""


@dataclass
class EnergyTable:
    """Sparse map from particle count N to a putative ground-state energy.

    At most one entry per N: on duplicate insertion the smaller energy wins
    (both are upper bounds on the true value, so the lower one is sharper)
    and the discard is logged.
    """

    entries: dict[int, TableEntry] = field(default_factory=dict)
    metadata: TableMetadata = field(default_factory=TableMetadata)

    def add(self, n: int, energy: float, label: str = "") -> bool:
        """Insert an entry under the keep-lower rule; returns True if it was kept.

        Raises ValueError for N < 2 or a non-finite energy, which no
        configuration has.
        """
        if n < 2:
            raise ValueError(f"table rows need N >= 2, got N={n}")
        if not math.isfinite(energy):
            raise ValueError(f"energy at N={n} must be finite, got {energy!r}")
        old = self.entries.get(n)
        if old is not None:
            if energy >= old.energy:
                logger.warning(
                    "duplicate N=%d: keeping %r, discarding %r", n, old.energy, energy
                )
                return False
            logger.warning(
                "duplicate N=%d: keeping %r, discarding %r", n, energy, old.energy
            )
        self.entries[n] = TableEntry(float(energy), label)
        return True

    def counts(self) -> list[int]:
        return sorted(self.entries)

    def energy(self, n: int) -> float:
        return self.entries[n].energy

    def pair_specific(self, n: int) -> float:
        return pair_specific(n, self.entries[n].energy)


def table_digest(table: EnergyTable) -> str:
    """Stable content hash of the table rows (insertion-order independent)."""
    h = hashlib.sha256()
    for n in table.counts():
        h.update(f"{n}\t{table.entries[n].energy!r}\n".encode())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class Violation:
    """A pair of table rows whose pair-specific energies decrease.

    ``n`` is the flagged particle count N, ``gap`` the offset n >= 1 to the
    later row, ``delta_eps`` the (negative) difference eps(N+n) - eps(N).
    """

    n: int
    gap: int
    delta_eps: float

    @property
    def verdict(self) -> str:
        return f"recorded energy at N={self.n} lies strictly above the true minimum"


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
    if tolerance is not None and tolerance < 0.0:
        raise ValueError("tolerance must be nonnegative")
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


@dataclass(frozen=True)
class SmallNRow:
    n: int
    energy: float
    pair_specific: float


@dataclass(frozen=True)
class SmallNCheckReport:
    """Outcome of the brute-force small-N verification.

    ``eps_strictly_increasing`` checks the pair-specific sequence itself;
    ``step_bound_ok`` checks the sharper per-step law
    E(N+1) >= ((N+1)/(N-1)) * E(N), allowing ``relative_slack`` of numerical
    leeway on each comparison.
    """

    rows: tuple[SmallNRow, ...]
    eps_strictly_increasing: bool
    step_bound_ok: bool
    relative_slack: float

    @property
    def passed(self) -> bool:
        return self.eps_strictly_increasing and self.step_bound_ok


def brute_force_monotonicity_check(
    domain: DomainSpec,
    pot: PotentialSpec,
    n_max: int,
    settings,
    relative_slack: float = 1e-7,
) -> SmallNCheckReport:
    """Estimate ground-state energies for N = 2..n_max and verify monotonicity.

    Uses heavy multistart minimization as the oracle; the restart budget must
    be at least 100 * n_max so that small-N global minima are found with
    overwhelming probability.  n_max is capped at 8, the range where that
    confidence argument holds at desk scale.
    """
    if not 2 <= n_max <= 8:
        raise ValueError("n_max must lie in [2, 8]")
    if settings.restarts < 100 * n_max:
        raise ValueError(
            f"restart budget too small: need at least {100 * n_max} restarts "
            f"for n_max={n_max}, got {settings.restarts}"
        )
    from .optimizer import multistart  # local import: optimizer depends on this module

    rows = []
    for n in range(2, n_max + 1):
        result = multistart(domain, pot, n, settings)
        rows.append(SmallNRow(n, result.energy, pair_specific(n, result.energy)))
    eps_ok = all(b.pair_specific > a.pair_specific for a, b in zip(rows, rows[1:]))
    step_ok = True
    for a, b in zip(rows, rows[1:]):
        floor = (a.n + 1) / (a.n - 1) * a.energy
        if b.energy < floor - relative_slack * max(1.0, abs(floor)):
            step_ok = False
    return SmallNCheckReport(tuple(rows), eps_ok, step_ok, relative_slack)
