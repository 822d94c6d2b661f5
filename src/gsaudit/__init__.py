"""Ground-state energy table auditing and candidate generation.

The library has three legs: a monotonicity audit that certifies non-minimal
entries in tables of putative N-body ground-state energies and derives
sharper upper bounds from the remaining rows; a multistart Riemannian
descent (Barzilai-Borwein steps, then L-BFGS from a run's first rejected
line-search trial) that produces such tables for log, power-law,
Coulomb, and Lennard-Jones pair interactions on the unit sphere, an embedded
torus, or free 3-space; and large-N asymptotic models to compare tables
against.  The ``gsaudit`` command line exposes all three.
"""

from .geometry import (
    Configuration,
    DomainSpec,
    StepTooLargeError,
    free3,
    random_configuration,
    sphere,
    torus,
)
from .potentials import (
    CoincidentPointsError,
    PotentialSpec,
    coulomb,
    energy_gradient,
    lennard_jones,
    log_coulomb,
    riesz,
    total_energy,
)
from .table import EnergyTable, TableMetadata, pair_specific, parse_table, table_digest, write_table
from .audit import AuditReport, ImprovedBound, Violation, improved_upper_bound, monotonicity_audit
from .optimizer import (
    OptimizerSettings,
    RunResult,
    brute_force_monotonicity_check,
    build_table,
    local_minimize,
    multistart,
)
from .asymptotics import (
    AsymptoticModel,
    log_sphere_model,
    model_energy,
    pair_specific_model,
    thomson_sphere_model,
)

__all__ = [
    "AsymptoticModel",
    "AuditReport",
    "CoincidentPointsError",
    "Configuration",
    "DomainSpec",
    "EnergyTable",
    "ImprovedBound",
    "OptimizerSettings",
    "PotentialSpec",
    "RunResult",
    "StepTooLargeError",
    "TableMetadata",
    "Violation",
    "brute_force_monotonicity_check",
    "build_table",
    "coulomb",
    "energy_gradient",
    "free3",
    "improved_upper_bound",
    "lennard_jones",
    "local_minimize",
    "log_coulomb",
    "log_sphere_model",
    "model_energy",
    "monotonicity_audit",
    "multistart",
    "pair_specific",
    "pair_specific_model",
    "parse_table",
    "random_configuration",
    "riesz",
    "sphere",
    "table_digest",
    "thomson_sphere_model",
    "torus",
    "total_energy",
    "write_table",
]

__version__ = "0.1.0"


def fixture_path(name: str):
    """Path to a bundled fixture table (see gsaudit/fixtures/)."""
    from importlib.resources import files

    return files("gsaudit.fixtures").joinpath(name)
