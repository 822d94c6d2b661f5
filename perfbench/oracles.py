"""Reference answers the benchmark checks the program's outputs against.

None of these call into ``gsaudit.audit``: the audit oracle is a suffix
minimum over the pair-specific energies, O(M) for the flagged set and the
bounds, with numpy counting the violating pairs of each flagged row.
"""

from __future__ import annotations

import math

import numpy as np

# The gate's documented default: (N, N+n) violates when
# eps(N+n) - eps(N) < -1e-9 * max(1, |eps(N)|).
RELATIVE_TOLERANCE = 1e-9


def pair_specific(counts: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """E(N) / (N(N-1)), rounded exactly as Python rounds it for one row."""
    return energies / (counts * (counts - 1)).astype(float)


def suffix_min_audit(counts, energies) -> dict[int, tuple[int, float | None, int]]:
    """Flagged N -> (violating pairs, improved bound or None, witness offset).

    ``counts`` must be sorted ascending.  The bound at N is
    N(N-1) * min over later rows of eps; it is reported only when it beats
    E(N), and its witness is the smallest later row that attains it.
    """
    counts = np.asarray(counts, dtype=np.int64)
    energies = np.asarray(energies, dtype=float)
    eps = pair_specific(counts, energies)
    later_min = np.empty_like(eps)
    later_min[-1] = math.inf
    later_min[:-1] = np.minimum.accumulate(eps[::-1])[::-1][1:]
    tau = RELATIVE_TOLERANCE * np.maximum(1.0, np.abs(eps))
    flagged = {}
    for i in np.flatnonzero(later_min - eps < -tau):
        n = int(counts[i])
        pairs = int(np.count_nonzero(eps[i + 1:] - eps[i] < -tau[i]))
        bound = n * (n - 1) * float(later_min[i])
        if bound < energies[i]:
            first = int(np.flatnonzero(n * (n - 1) * eps[i + 1:] == bound)[0])
            flagged[n] = (pairs, bound, int(counts[i + 1 + first]) - n)
        else:
            flagged[n] = (pairs, None, 0)
    return flagged


def audit_record_problems(records: list[dict], counts, energies) -> list[str]:
    """Differences between ``audit --format records`` output and the oracle."""
    energy_of = {int(n): float(e) for n, e in zip(counts, energies)}
    expected = suffix_min_audit(counts, energies)
    problems = []
    violations: dict[int, set[int]] = {}
    bounds = {}
    for record in records:
        n = record["N"]
        if record["type"] == "violation":
            m = n + record["n"]
            if n not in energy_of or m not in energy_of:
                problems.append(f"violation record names a missing row: {record}")
                continue
            eps_n = energy_of[n] / (n * (n - 1))
            delta = energy_of[m] / (m * (m - 1)) - eps_n
            if record["delta_eps"] != delta:
                problems.append(f"delta_eps of N={n}, n={record['n']} does not re-derive")
            if not delta < -RELATIVE_TOLERANCE * max(1.0, abs(eps_n)):
                problems.append(f"N={n}, n={record['n']} is not a violation")
            violations.setdefault(n, set()).add(m)
        elif record["type"] == "bound":
            bounds[n] = (record["bound"], record["witness_n"])
        else:
            problems.append(f"unknown record type {record['type']!r}")
    if set(violations) != set(expected):
        problems.append(
            f"flagged rows differ from the oracle: {len(violations)} reported, "
            f"{len(expected)} expected"
        )
    for n, (pairs, bound, witness) in expected.items():
        if len(violations.get(n, ())) != pairs:
            problems.append(f"N={n}: {len(violations.get(n, ()))} violations, oracle {pairs}")
        if bound is not None and bounds.get(n) != (bound, witness):
            problems.append(f"N={n}: bound {bounds.get(n)} != oracle {(bound, witness)}")
    if set(bounds) != {n for n, (_, b, _) in expected.items() if b is not None}:
        problems.append("bound records are not the oracle's set of improvable rows")
    if len({record["table_digest"] for record in records}) > 1:
        problems.append("records carry more than one table digest")
    return problems


def log_sphere_two_term_eps(n: int) -> float:
    """Pair-specific energy of the two-term log-sphere expansion at N."""
    a = 0.25 * math.log(math.e / 4.0)
    return (a * n * n - 0.25 * n * math.log(n)) / (n * (n - 1))


def inverse_distance_energy(points: np.ndarray) -> float:
    """sum over pairs of 1/|x_i - x_j|, compensated, one row of pairs at a time."""
    terms = []
    for i in range(points.shape[0] - 1):
        diff = points[i + 1:] - points[i]
        terms.append(1.0 / np.sqrt(np.sum(diff * diff, axis=1)))
    return math.fsum(np.concatenate(terms))
