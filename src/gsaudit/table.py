"""Energy tables: the table type, its file format and its digest.

Table file format (bit-exact round trip): UTF-8 text with LF line endings;
``#key=value`` header lines carrying metadata (domain, potential,
aspect_ratio, source); data lines ``N<TAB>E`` with E written as a decimal
string via shortest round-trip repr, so re-parsing reproduces the exact
float.  Blank lines are ignored; duplicate N keeps the lower energy with a
logged warning; a count that is not ASCII digits, N < 2, an energy with a
'_' or a non-ASCII character, non-finite energies, a file that is not UTF-8 and
headers that name no valid problem (an aspect ratio off the torus, a kernel
its domain does not support) are input errors.  A header-only file is an
empty table.

The domain and potential headers use the tokens of :mod:`gsaudit.problem`,
the only package module this one imports, so reading, writing and auditing
a table never loads numpy.
"""

from __future__ import annotations

import hashlib
import logging
import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

from .problem import (
    COUNT,
    TORUS,
    DomainSpec,
    InputError,
    PotentialSpec,
    format_potential_token,
    parse_domain_token,
    parse_potential_token,
    validate_domain_potential,
)

logger = logging.getLogger(__name__)


def pair_specific(n: int, energy: float) -> float:
    """Energy per ordered pair, energy / (N(N-1)); the quantity that is monotone."""
    if n < 2:
        raise ValueError("pair-specific energy needs N >= 2")
    return energy / (n * (n - 1))


@dataclass(frozen=True)
class TableEntry:
    energy: float
    label: str = ""


@dataclass(frozen=True)
class TableMetadata:
    """The problem a table is for and where its rows come from.

    A domain and a potential must form a supported pair, and ``source`` must
    be one line without leading or trailing whitespace, so the ``#source``
    header reads back as written.
    """

    domain: DomainSpec | None = None
    potential: PotentialSpec | None = None
    source: str = ""

    def __post_init__(self):
        if self.domain is not None and self.potential is not None:
            validate_domain_potential(self.domain, self.potential)
        if self.source != self.source.strip() or len(self.source.splitlines()) > 1:
            raise ValueError(f"source must be one line without outer whitespace: {self.source!r}")


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
        kept = old is None or energy < old.energy
        if old is not None:
            keep, drop = (energy, old.energy) if kept else (old.energy, energy)
            logger.warning("duplicate N=%d: keeping %r, discarding %r", n, keep, drop)
        if kept:
            self.entries[n] = TableEntry(float(energy), label)
        return kept

    def counts(self) -> list[int]:
        return sorted(self.entries)

    def energy(self, n: int) -> float:
        return self.entries[n].energy

    def pair_specific(self, n: int) -> float:
        return pair_specific(n, self.entries[n].energy)


def format_rows(rows: Iterable[tuple[int, float]]) -> str:
    """Data lines ``N<TAB>value``, the value in shortest round-trip repr."""
    return "".join(f"{n}\t{value!r}\n" for n, value in rows)


def _energy_rows(table: EnergyTable) -> str:
    return format_rows((n, table.entries[n].energy) for n in table.counts())


def table_digest(table: EnergyTable) -> str:
    """Stable content hash of the table rows (insertion-order independent)."""
    return hashlib.sha256(_energy_rows(table).encode()).hexdigest()[:16]


def parse_table(path: str | Path) -> EnergyTable:
    """Read a table file; see the module docstring for the format.

    Malformed lines raise InputError naming the file and line number, and a
    file that is not UTF-8 raises one naming the file.  A header-only file is
    an empty table, which ``monotonicity_audit`` refuses.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from exc
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
        count, energy = fields
        if COUNT.fullmatch(count) is None:
            raise InputError(f"{path}:{lineno}: bad count {count!r}")
        # float() would also read '_' separators and non-ASCII digits.
        if "_" in energy or not energy.isascii():
            raise InputError(f"{path}:{lineno}: bad energy {energy!r}")
        try:
            value = float(energy)
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: bad energy {energy!r}") from exc
        try:
            table.add(int(count), value)
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
    domain, potential = headers.get("domain"), headers.get("potential")
    try:
        if "aspect_ratio" in headers:
            if domain != TORUS:
                raise InputError(f"#aspect_ratio needs #domain=torus, got {domain!r}")
            domain = f"torus:{headers['aspect_ratio']}"
        table.metadata = TableMetadata(
            domain=None if domain is None else parse_domain_token(domain),
            potential=None if potential is None else parse_potential_token(potential),
            source=headers.get("source", ""),
        )
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    return table


def format_table(table: EnergyTable) -> str:
    """Canonical serialization: fixed header order, rows sorted by N, LF endings."""
    lines: list[str] = []
    meta = table.metadata
    if meta.domain is not None:
        lines.append(f"#domain={meta.domain.kind}")
        if meta.domain.kind == TORUS:
            lines.append(f"#aspect_ratio={meta.domain.aspect_ratio!r}")
    if meta.potential is not None:
        lines.append(f"#potential={format_potential_token(meta.potential)}")
    if meta.source:
        lines.append(f"#source={meta.source}")
    return "".join(line + "\n" for line in lines) + _energy_rows(table)


def write_table(table: EnergyTable, path: str | Path) -> None:
    Path(path).write_text(format_table(table), encoding="utf-8", newline="\n")
