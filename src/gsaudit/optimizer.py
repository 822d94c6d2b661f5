"""Multistart projected-gradient search for candidate ground-state energies.

Local search is plain projected-gradient descent with a backtracking line
search: propose a step along the negative tangent gradient, halve it until
the energy strictly decreases, accept, grow the step by 1.2, retract back
onto the domain after every move.  The accepted energy sequence is therefore
non-increasing by construction.  Restart r of a multistart run draws its
starting configuration from a seed derived as SeedSequence(seed, spawn_key=r),
so results are independent of execution order and identical across processes;
ties between restarts (energies within 1e-14) go to the lowest restart index.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .audit import EnergyTable, TableMetadata
from .geometry import (
    TORUS,
    MAX_TORUS_STEP,
    Configuration,
    DomainSpec,
    random_configuration,
    retract_points,
)
from .potentials import (
    CoincidentPointsError,
    PotentialSpec,
    energy_gradient_of_points,
    total_energy_of_points,
    validate_domain_potential,
)

logger = logging.getLogger(__name__)

# Energies closer than this are treated as equal when picking the best restart.
_TIE_WIDTH = 1e-14

# Line-search steps below this are a stall (flat or non-improvable landscape).
_MIN_STEP = 1e-18


@dataclass(frozen=True)
class OptimizerSettings:
    """Knobs for local search and multistart.

    ``max_iterations`` and ``initial_step`` default (when None) to 50 * N and
    0.1 / N for an N-point configuration.  ``gradient_tolerance`` is the
    convergence threshold on the largest per-point tangent gradient norm.
    """

    restarts: int = 50
    max_iterations: int | None = None
    gradient_tolerance: float = 1e-10
    initial_step: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.gradient_tolerance <= 0.0:
            raise ValueError("gradient_tolerance must be positive")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.initial_step is not None and self.initial_step <= 0.0:
            raise ValueError("initial_step must be positive")

    def resolved(self, n: int) -> tuple[int, float]:
        max_iter = self.max_iterations if self.max_iterations is not None else 50 * n
        step = self.initial_step if self.initial_step is not None else 0.1 / n
        return max_iter, step

    def digest(self) -> str:
        return (
            f"multistart restarts={self.restarts} seed={self.seed} "
            f"gtol={self.gradient_tolerance:g} "
            f"iters={'auto' if self.max_iterations is None else self.max_iterations} "
            f"step={'auto' if self.initial_step is None else self.initial_step}"
        )


@dataclass
class RunResult:
    """Outcome of one local minimization (or the best of a multistart).

    The energy is always the energy of an actual configuration on the domain,
    hence always a valid upper bound on the true ground-state energy.
    """

    configuration: Configuration
    energy: float
    gradient_norm: float
    converged: bool
    restart_index: int
    energy_trace: tuple[float, ...] = ()


def _max_row_norm(vectors: np.ndarray) -> float:
    return float(np.sqrt(np.einsum("ij,ij->i", vectors, vectors).max()))


def local_minimize(
    c0: Configuration, pot: PotentialSpec, settings: OptimizerSettings, restart_index: int = 0
) -> RunResult:
    """Projected-gradient descent with backtracking from one start configuration."""
    domain = c0.domain
    validate_domain_potential(domain, pot)
    if c0.n_points < 2:
        raise ValueError("minimization needs at least two points")
    x = c0.points.copy()
    energy = total_energy_of_points(x, domain, pot)
    if not np.isfinite(energy):
        raise CoincidentPointsError("start configuration has coincident points")
    max_iter, step = settings.resolved(c0.n_points)
    torus_cap = MAX_TORUS_STEP * 0.99 if domain.kind == TORUS else None
    trace = [energy]
    grad = energy_gradient_of_points(x, domain, pot)
    gnorm = _max_row_norm(grad)
    for _ in range(max_iter):
        if gnorm < settings.gradient_tolerance:
            break
        while True:
            if step < _MIN_STEP:
                break
            if torus_cap is not None and step * gnorm >= torus_cap:
                step *= 0.5
                continue
            x_new = retract_points(x, -step * grad, domain)
            e_new = total_energy_of_points(x_new, domain, pot)
            if e_new < energy:
                break
            step *= 0.5
        if step < _MIN_STEP:
            break
        x, energy = x_new, e_new
        trace.append(energy)
        step *= 1.2
        grad = energy_gradient_of_points(x, domain, pot)
        gnorm = _max_row_norm(grad)
    return RunResult(
        configuration=Configuration(domain, x),
        energy=energy,
        gradient_norm=gnorm,
        converged=gnorm < settings.gradient_tolerance,
        restart_index=restart_index,
        energy_trace=tuple(trace),
    )


def derived_seed(seed: int, restart: int) -> int:
    """Per-restart seed, independent of execution order and stable across processes."""
    ss = np.random.SeedSequence(
        entropy=int(seed) & 0xFFFF_FFFF_FFFF_FFFF, spawn_key=(int(restart),)
    )
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def multistart(
    domain: DomainSpec, pot: PotentialSpec, n: int, settings: OptimizerSettings
) -> RunResult:
    """Best local-search result over ``settings.restarts`` independent starts."""
    if n < 2:
        raise ValueError("need at least two points")
    validate_domain_potential(domain, pot)
    best: RunResult | None = None
    for r in range(settings.restarts):
        start = random_configuration(domain, n, derived_seed(settings.seed, r))
        result = local_minimize(start, pot, settings, restart_index=r)
        if best is None or result.energy < best.energy - _TIE_WIDTH:
            best = result
    return best


def build_table(
    domain: DomainSpec,
    pot: PotentialSpec,
    n_values: list[int],
    settings: OptimizerSettings,
) -> EnergyTable:
    """One multistart candidate energy per requested N, as an energy table."""
    if any(n < 2 for n in n_values):
        raise ValueError("all table rows need N >= 2")
    label = settings.digest()
    table = EnergyTable(
        metadata=TableMetadata(domain=domain, potential=pot, source=label)
    )
    for n in sorted(set(n_values)):
        result = multistart(domain, pot, n, settings)
        if not result.converged:
            logger.warning(
                "N=%d: best restart %d did not converge (gradient norm %.3g)",
                n, result.restart_index, result.gradient_norm,
            )
        table.add(n, result.energy, label=label)
    return table
