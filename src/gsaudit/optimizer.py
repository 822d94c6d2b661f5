"""Multistart projected-gradient search for candidate ground-state energies.

Local search is a descent with a backtracking line search: propose a step
along a tangent descent direction, halve it until the energy strictly
decreases, accept, retract back onto the domain after every move.  The
accepted energy sequence therefore strictly decreases by construction.

A run starts with Barzilai-Borwein (BB1) steps along the negative tangent
gradient: the next trial step is s.s / s.y, where s is the accepted tangent
step and y the change in the tangent gradient across it, clamped to between
1e-3 and 1e3 times the accepted step.  When s.y <= 0 or the BB step is not
finite, the accepted step grows by 1.2 instead.  A run whose line search
never rejects a trial keeps these steps throughout.

From the run's first rejected trial on, each accepted step with s.y > 0 is
kept as a curvature pair, up to the last eight, and each step follows the
L-BFGS two-loop direction, projected onto the tangent planes, with
H0 = s.y / y.y of the newest pair and first trial 1.  When that direction
is not a descent direction, the pairs are dropped and the step is a plain
BB step along the negative gradient.

Each trial point costs one engine walk, :func:`energy_gradient_of_points`,
which gives the fast uncompensated line-search energy and the gradient
together; a trial whose energy does not strictly decrease, or whose gradient
is not finite, halves the step.  That backtracking, its accept test and
the run's one stall exit (a step below 1e-18, where the line-search energy
can no longer resolve a decrease) live in :func:`_line_search`;
:func:`local_minimize` holds the step rule.  The reported energy is the
exactly rounded sum, evaluated once on the returned configuration.

Restart r of a multistart run draws its starting configuration from a seed
derived as SeedSequence(seed, spawn_key=r), so results are independent of
execution order and identical across processes; ties between restarts
(energies within 1e-14) go to the lowest restart index.

The brute-force small-N check builds the table for N = 2..n_max with a heavy
restart budget and tests that its pair-specific energy strictly increases.
"""

from __future__ import annotations

import logging
import math
import operator
from collections import deque
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Configuration,
    StepTooLargeError,
    random_configuration,
    retract_points,
    tangent_project_points,
)
from .potentials import CoincidentPointsError, energy_gradient_of_points, total_energy_of_points
from .problem import DomainSpec, PotentialSpec
from .table import EnergyTable, TableMetadata

logger = logging.getLogger(__name__)

# Energies closer than this are treated as equal when picking the best restart.
_TIE_WIDTH = 1e-14

# Line-search steps below this are a stall (flat or non-improvable landscape).
_MIN_STEP = 1e-18

# Bounds on the Barzilai-Borwein step, relative to the step just accepted.
_BB_SHRINK = 1e-3
_BB_GROW = 1e3

# Curvature pairs the L-BFGS steps remember.
_LBFGS_MEMORY = 8


def _check_integer(name: str, value, low: int = 1, high: float = math.inf) -> None:
    """Require an integer (numpy integers included) with low <= value < high."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < low:
        raise ValueError(f"{name} must be >= {low}")
    if value >= high:
        raise ValueError(f"{name} must be < {high}")


@dataclass(frozen=True)
class OptimizerSettings:
    """Knobs for local search and multistart.

    ``max_iterations`` defaults (when None) to 50 * N for an N-point
    configuration; the first trial step is always 0.1 / N.
    ``gradient_tolerance`` is the convergence threshold on the largest
    per-point tangent gradient norm.  Its default, 1e-6, sits above the
    roundoff floor of the line-search energy comparison: tolerances near
    1e-10 stall before they are met, and on the 1/r kernel at N = 51..80
    about one run in four still stalls just above 1e-6.  ``seed`` is an
    integer in [0, 2**64).
    """

    restarts: int = 50
    max_iterations: int | None = None
    gradient_tolerance: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        _check_integer("restarts", self.restarts)
        # A seed in [0, 2**64) reaches SeedSequence unchanged, so each seed names one run.
        _check_integer("seed", self.seed, 0, 2**64)
        if not 0.0 < self.gradient_tolerance < math.inf:
            raise ValueError("gradient_tolerance must be positive and finite")
        if self.max_iterations is not None:
            _check_integer("max_iterations", self.max_iterations)

    def resolved(self, n: int) -> tuple[int, float]:
        max_iter = self.max_iterations if self.max_iterations is not None else 50 * n
        return max_iter, 0.1 / n

    def digest(self) -> str:
        return (
            f"multistart restarts={self.restarts} seed={self.seed} "
            f"gtol={self.gradient_tolerance:g} "
            f"iters={'auto' if self.max_iterations is None else self.max_iterations} "
            # The step rule: BB1 steps, then L-BFGS with eight pairs from the first rejected trial.
            f"step=bb1+lbfgs{_LBFGS_MEMORY}"
        )


@dataclass
class RunResult:
    """Outcome of one local minimization (or the best of a multistart).

    The energy is always the exact (``math.fsum``) energy of an actual
    configuration on the domain, hence always a valid upper bound on the true
    ground-state energy.  ``energy_trace`` holds the line-search energies of
    the accepted iterates, so ``energy`` may differ from ``energy_trace[-1]``
    in the last bits.
    """

    configuration: Configuration
    energy: float
    gradient_norm: float
    converged: bool
    restart_index: int
    energy_trace: tuple[float, ...] = ()


def _max_row_norm(vectors: np.ndarray) -> float:
    return float(np.sqrt(np.einsum("ij,ij->i", vectors, vectors).max()))


def _two_loop(g: np.ndarray, pairs) -> np.ndarray:
    """L-BFGS inverse-Hessian product H·g of a flat vector g.

    ``pairs`` holds curvature pairs (s, y, s·y) with s·y > 0, oldest first.
    H starts from H0 = s·y / y·y of the newest pair and takes one BFGS
    inverse update per pair.
    """
    q = g.copy()
    alphas = []
    for s, y, sy in reversed(pairs):
        alpha = s.dot(q) / sy
        q -= alpha * y
        alphas.append(alpha)
    _, y, sy = pairs[-1]
    q *= sy / y.dot(y)
    for (s, y, sy), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - y.dot(q) / sy) * s
    return q


def _line_search(x, direction, trial, energy, domain, pot):
    """Backtrack from ``trial`` along ``direction`` to a strictly lower energy.

    Each trial retracts ``x + trial * direction`` onto the domain and costs
    one engine walk; a trial whose energy does not strictly decrease, or
    whose gradient is not finite, halves the step, and so does a step too
    large to retract (which does not count as a rejection).  Returns the
    accepted ``(trial, x_new, e_new, grad_new, rejected)``, where
    ``rejected`` says whether any trial was rejected, or None once the step
    falls below ``_MIN_STEP`` (a stall).
    """
    rejected = False
    while trial >= _MIN_STEP:
        try:
            x_new = retract_points(x, trial * direction, domain)
        except StepTooLargeError:
            trial *= 0.5
            continue
        e_new, grad_new = energy_gradient_of_points(x_new, domain, pot)
        if e_new < energy and np.isfinite(grad_new).all():
            return trial, x_new, e_new, grad_new, rejected
        trial *= 0.5
        rejected = True
    return None


def local_minimize(
    c0: Configuration, pot: PotentialSpec, settings: OptimizerSettings, restart_index: int = 0
) -> RunResult:
    """Descent with backtracking from one start: BB1 steps, then L-BFGS steps."""
    domain = c0.domain
    if c0.n_points < 2:
        raise ValueError("minimization needs at least two points")
    x = c0.points.copy()
    energy, grad = energy_gradient_of_points(x, domain, pot)
    if not (math.isfinite(energy) and np.isfinite(grad).all()):
        raise CoincidentPointsError("start configuration has coincident or too close points")
    max_iter, step = settings.resolved(c0.n_points)
    trace = [energy]
    # ``step`` is the BB step along -grad; an L-BFGS direction is tried at 1
    # instead.  Curvature pairs (s, y, s.y), flat, are None until the first
    # rejected trial.
    pairs = None
    for _ in range(max_iter):
        if _max_row_norm(grad) < settings.gradient_tolerance:
            break
        direction, trial, quasi_newton = -grad, step, False
        if pairs:
            hg = _two_loop(grad.ravel(), pairs).reshape(grad.shape)
            hg = tangent_project_points(x, hg, domain)
            if hg.ravel().dot(grad.ravel()) > 0.0:
                direction, trial, quasi_newton = -hg, 1.0, True
            else:
                pairs.clear()
        accepted = _line_search(x, direction, trial, energy, domain, pot)
        if accepted is None:
            break
        trial, x, energy, grad_new, rejected = accepted
        trace.append(energy)
        if not quasi_newton:
            step = trial
        s = trial * direction
        y = grad_new - grad
        sy = float(np.einsum("ij,ij->", s, y))
        bb = float(np.einsum("ij,ij->", s, s)) / sy if sy > 0.0 else math.inf
        if math.isfinite(bb):
            step = min(max(bb, _BB_SHRINK * step), _BB_GROW * step)
        else:
            step *= 1.2
        if rejected and pairs is None:
            pairs = deque(maxlen=_LBFGS_MEMORY)
        if pairs is not None and sy > 0.0:
            pairs.append((s.ravel(), y.ravel(), sy))
        grad = grad_new
    gnorm = _max_row_norm(grad)
    return RunResult(
        configuration=Configuration(domain, x),
        energy=total_energy_of_points(x, domain, pot),
        gradient_norm=gnorm,
        converged=gnorm < settings.gradient_tolerance,
        restart_index=restart_index,
        energy_trace=tuple(trace),
    )


def derived_seed(seed: int, restart: int) -> int:
    """Per-restart seed, independent of execution order and stable across processes."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(restart),))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def multistart(
    domain: DomainSpec, pot: PotentialSpec, n: int, settings: OptimizerSettings
) -> RunResult:
    """Best local-search result over ``settings.restarts`` independent starts."""
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


@dataclass(frozen=True)
class SmallNCheckReport:
    """Outcome of the brute-force small-N verification: the table for N = 2..n_max.

    ``eps_strictly_increasing`` checks its pair-specific sequence.  The per-step
    law E(N+1) >= ((N+1)/(N-1)) * E(N) is the same inequality multiplied by
    N(N+1), so this one flag is the whole verdict.
    """

    table: EnergyTable
    eps_strictly_increasing: bool


def brute_force_monotonicity_check(
    domain: DomainSpec, pot: PotentialSpec, n_max: int, settings: OptimizerSettings
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
    table = build_table(domain, pot, list(range(2, n_max + 1)), settings)
    eps = [table.pair_specific(n) for n in table.counts()]
    return SmallNCheckReport(table, all(b > a for a, b in zip(eps, eps[1:])))
