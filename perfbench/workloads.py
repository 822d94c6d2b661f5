"""The benchmark's workloads: seeded set-up, one timed operation, output checks.

Each workload is a closed loop in one process with no worker pool: the next
operation starts when the previous one has returned.  Constructing a
workload is its set-up; the program receives only the inputs made there.

- ``build-log-sphere`` (criterion-7 generator, 2 restarts): one
  ``multistart`` call per table row, N = 51, 52, ... in order.  At N <= 80
  every array fits in L1/L2, so per-call overhead and iterations to
  tolerance dominate, and the restart loop runs.
- ``relax-thomson-2048``: ``local_minimize`` for a fixed number of steps from
  one uniform start of 2048 points, 1/r kernel.  Each gradient makes about
  100 MB of N x N x 3 temporaries, so kernel arithmetic and memory traffic
  dominate.
- ``audit-8k``: ``gsaudit audit --format records`` in process on a synthetic
  8000-row table: parse, the pair scan, bounds and record output, with no
  optimizer or potentials work.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
from pathlib import Path

import numpy as np

import gsaudit.cli
import gsaudit.optimizer
import oracles
from gsaudit.asymptotics import log_sphere_model, model_energy, thomson_sphere_model
from gsaudit.audit import EnergyTable, TableMetadata
from gsaudit.geometry import random_configuration, sphere
from gsaudit.optimizer import OptimizerSettings
from gsaudit.potentials import log_coulomb, riesz, total_energy


class BuildLogSphere:
    name = "build-log-sphere"
    counts = list(range(51, 81))
    limit = len(counts)

    def __init__(self, seed: int, scratch: Path):
        self.domain, self.pot = sphere(), log_coulomb()
        self.settings = OptimizerSettings(restarts=2, seed=seed, gradient_tolerance=1e-6)
        self.table = EnergyTable(
            metadata=TableMetadata(self.domain, self.pot, self.settings.digest())
        )
        self.scratch = scratch

    def step(self, index: int):
        n = self.counts[index]
        best = gsaudit.optimizer.multistart(self.domain, self.pot, n, self.settings)
        self.table.add(n, best.energy, label=self.settings.digest())
        return best

    def check(self, outcomes: list) -> tuple[int, list[str]]:
        """Failed rows (raised or wrong) and problems.

        A row whose best restart ended unconverged is still a correct row of
        the table: ``report`` counts those, but they are not failures.
        """
        failed, problems = 0, []
        for n, best in zip(self.counts, outcomes):
            if best is None:
                failed += 1
                problems.append(f"row N={n} raised")
                continue
            if best.energy != total_energy(best.configuration, self.pot):
                failed += 1
                problems.append(f"row N={n}: energy is not total_energy of its configuration")
        wanted = self.counts[: len(outcomes)]
        if self.table.counts() != wanted:
            problems.append(f"table rows {self.table.counts()} != requested {wanted}")
            return failed, problems
        path = self.scratch / "build.tsv"
        gsaudit.cli.write_table(self.table, path)
        again = gsaudit.cli.parse_table(path)
        if {n: e.energy for n, e in again.entries.items()} != {
            n: e.energy for n, e in self.table.entries.items()
        }:
            problems.append("table does not round-trip through write_table/parse_table")
        energies = [self.table.energy(n) for n in wanted]
        if oracles.suffix_min_audit(wanted, energies):
            problems.append("built table does not audit clean")
        worst = max(
            abs(self.table.pair_specific(n) - oracles.log_sphere_two_term_eps(n)) for n in wanted
        )
        if not worst < 0.01:
            problems.append(f"worst |eps - model| = {worst:.5f} (limit 0.01)")
        return failed, problems

    def report(self, outcomes, op_seconds):
        rate = len(outcomes) / sum(op_seconds)
        unconverged = sum(best is not None and not best.converged for best in outcomes)
        return rate, [
            ("build.rows_per_s", rate, "rows/s"),
            ("build.unconverged_rows", unconverged, f"of {len(outcomes)} rows"),
        ]


class RelaxThomson2048:
    name = "relax-thomson-2048"
    n_points = 2048
    steps = 6
    limit = None

    def __init__(self, seed: int, scratch: Path):
        self.pot = riesz(-1.0)
        self.start = random_configuration(sphere(), self.n_points, seed)
        # A tolerance no run reaches, so the step budget is what stops it.
        self.settings = OptimizerSettings(
            restarts=1, max_iterations=self.steps, gradient_tolerance=1e-12
        )

    def step(self, index: int):
        return gsaudit.optimizer.local_minimize(self.start, self.pot, self.settings)

    def check(self, outcomes: list) -> tuple[int, list[str]]:
        failed, problems = 0, []
        first = next((r for r in outcomes if r is not None), None)
        # Repetitions must match the first bit for bit, so re-evaluating the
        # first one's energy checks them all.
        shared = []
        if first is not None:
            if first.energy != total_energy(first.configuration, self.pot):
                shared.append("energy is not the fsum energy of its configuration")
            independent = oracles.inverse_distance_energy(first.configuration.points)
            if abs(independent - first.energy) > 1e-12 * abs(independent):
                shared.append(f"energy {first.energy!r} != pair sum {independent!r}")
        for index, result in enumerate(outcomes):
            mine = []
            if result is None:
                mine.append("raised")
            else:
                mine.extend(shared)
                trace = result.energy_trace
                if not all(b < a for a, b in zip(trace, trace[1:])):
                    mine.append("energy trace does not strictly decrease")
                try:
                    result.configuration.validate()
                except ValueError as exc:
                    mine.append(f"configuration invalid: {exc}")
                if result.energy_trace != first.energy_trace or not np.array_equal(
                    result.configuration.points, first.configuration.points
                ):
                    mine.append("repetition differs from the first")
            failed += bool(mine)
            problems.extend(f"repetition {index}: {p}" for p in mine)
        return failed, problems

    def report(self, outcomes, op_seconds):
        done = [(r, t) for r, t in zip(outcomes, op_seconds) if r is not None]
        if not done:
            return 0.0, []
        rate = statistics.median((len(r.energy_trace) - 1) / t for r, t in done)
        excess = done[0][0].energy - model_energy(thomson_sphere_model(), self.n_points)
        return rate, [
            ("relax.iters_per_s", rate, "iter/s"),
            ("relax.energy_excess", excess, "energy"),
        ]


class Audit8k:
    name = "audit-8k"
    rows = 8000
    raised_share = 0.01
    limit = None

    def __init__(self, seed: int, scratch: Path):
        rng = np.random.default_rng(seed)
        self.counts = np.sort(rng.choice(np.arange(2, 32000), self.rows, replace=False))
        model = log_sphere_model()
        energies = np.array([model_energy(model, int(n)) for n in self.counts])
        raised = rng.choice(self.rows, int(self.rows * self.raised_share), replace=False)
        energies[raised] += 1e-5 * np.abs(energies[raised])
        self.energies = energies
        table = EnergyTable(metadata=TableMetadata(sphere(), log_coulomb(), "perfbench"))
        for n, energy in zip(self.counts, energies):
            table.add(int(n), float(energy))
        self.path = scratch / "audit-8k.tsv"
        gsaudit.cli.write_table(table, self.path)

    def step(self, index: int):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = gsaudit.cli.main(["audit", "--input", str(self.path), "--format", "records"])
        return code, out.getvalue()

    def check(self, outcomes: list) -> tuple[int, list[str]]:
        failed, problems = 0, []
        reference = None
        for index, outcome in enumerate(outcomes):
            if outcome is None:
                mine = ["raised"]
            elif outcome[0] != 1:
                mine = [f"exit code {outcome[0]}, expected 1"]
            elif reference is None:
                records = [json.loads(line) for line in outcome[1].splitlines()]
                mine = oracles.audit_record_problems(records, self.counts, self.energies)
                reference, reference_failed = outcome[1], bool(mine)
            elif outcome[1] != reference:
                mine = ["output differs from the first checked audit"]
            else:
                mine = ["same wrong output as the first checked audit"] if reference_failed else []
            failed += bool(mine)
            problems.extend(f"audit {index}: {p}" for p in mine)
        return failed, problems

    def report(self, outcomes, op_seconds):
        rate = statistics.median(self.rows / t for t in op_seconds)
        return rate, [("audit.rows_per_s", rate, "rows/s")]


WORKLOADS = {w.name: w for w in (BuildLogSphere, RelaxThomson2048, Audit8k)}
