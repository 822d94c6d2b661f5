"""Ground-state energy table auditing and candidate generation.

The library has three legs: a monotonicity audit that certifies non-minimal
entries in tables of putative N-body ground-state energies and derives
sharper upper bounds from the remaining rows; a multistart Riemannian
descent (Barzilai-Borwein steps, then L-BFGS from a run's first rejected
line-search trial) that produces such tables for log, power-law,
Coulomb, and Lennard-Jones pair interactions on the unit sphere, an embedded
torus, or free 3-space; and large-N asymptotic models to compare tables
against.  The ``gsaudit`` command line exposes all three.

Importing the package loads no submodule: each public name below is
imported from its module on first access, so ``gsaudit.monotonicity_audit``
loads only the table and the audit, and numpy only comes in with the
geometry, the kernels or the optimizer.
"""

import importlib

# The public names, by the module that defines them.
_EXPORTS = {
    "problem": (
        "DomainSpec", "PotentialSpec", "coulomb", "free3", "lennard_jones", "log_coulomb",
        "riesz", "sphere", "torus",
    ),
    "geometry": ("Configuration", "StepTooLargeError", "random_configuration"),
    "potentials": ("CoincidentPointsError", "energy_gradient", "total_energy"),
    "table": (
        "EnergyTable", "TableMetadata", "pair_specific", "parse_table", "table_digest",
        "write_table",
    ),
    "audit": (
        "AuditReport", "ImprovedBound", "Violation", "improved_upper_bound", "monotonicity_audit",
    ),
    "optimizer": (
        "OptimizerSettings", "RunResult", "brute_force_monotonicity_check", "build_table",
        "local_minimize", "multistart",
    ),
    "asymptotics": (
        "AsymptoticModel", "log_sphere_model", "model_energy", "pair_specific_model",
        "thomson_sphere_model",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__version__ = "0.1.0"


def __getattr__(name: str):
    for module, names in _EXPORTS.items():
        if name in names:
            value = getattr(importlib.import_module(f".{module}", __name__), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
