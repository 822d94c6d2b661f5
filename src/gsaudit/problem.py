"""The problem vocabulary: domains, pair kernels and the tokens that name them.

A problem is a constraint domain and a pair kernel: the unit 2-sphere, a
ring torus embedded in 3-space (minor radius 1, major radius = aspect
ratio) or unconstrained 3-space, with the 2-D Coulomb (logarithmic)
interaction -ln r, the power-law family -sign(s) * r^s for real s < 2
(s = 0 is represented by the logarithmic kernel, its limit) or the
Lennard-Jones interaction r^-12 - r^-6 (free 3-space only).  The
D-dimensional Coulomb kernel r^(2-D) is the power law at s = 2 - D;
:func:`coulomb` builds it as such.  The same tokens name a problem on the
command line and in table headers.  Only the standard library is imported
here, so the audit and the models name a problem without loading numpy.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

SPHERE = "sphere"
TORUS = "torus"
FREE3 = "free3"

_DOMAIN_KINDS = (SPHERE, TORUS, FREE3)

LOG = "log"
RIESZ = "riesz"
LENNARD_JONES = "lj"

_POTENTIAL_KINDS = (LOG, RIESZ, LENNARD_JONES)

DOMAIN_TOKENS = "sphere | torus:<ratio> | free3"
POTENTIAL_TOKENS = "log | riesz:<s> | coulomb:<D> | lj"

# A count, in --n and in table rows: ASCII digits, which int() and \d would
# widen to signs, '_' separators and non-ASCII digits.
COUNT = re.compile("[0-9]+")


class InputError(ValueError):
    """A user input (file or flag value) could not be interpreted."""


@dataclass(frozen=True)
class DomainSpec:
    """A constraint manifold for point configurations.

    ``aspect_ratio`` is the ratio of major to minor radius of the embedded
    torus (minor radius fixed to 1); it must be > 1 so the surface does not
    self-intersect, and finite, and must be absent for the other domains.
    """

    kind: str
    aspect_ratio: float | None = None

    def __post_init__(self):
        if self.kind not in _DOMAIN_KINDS:
            raise ValueError(
                f"unknown domain kind {self.kind!r}; expected one of {_DOMAIN_KINDS}"
            )
        if self.kind == TORUS:
            if self.aspect_ratio is None or not 1.0 < self.aspect_ratio < math.inf:
                raise ValueError("torus aspect_ratio (major/minor radius) must be > 1 and finite")
        elif self.aspect_ratio is not None:
            raise ValueError(f"aspect_ratio is not meaningful for {self.kind!r}")


def sphere() -> DomainSpec:
    """The unit 2-sphere in R^3."""
    return DomainSpec(SPHERE)


def torus(aspect_ratio: float) -> DomainSpec:
    """An embedded ring torus with minor radius 1 and major radius ``aspect_ratio``."""
    return DomainSpec(TORUS, float(aspect_ratio))


def free3() -> DomainSpec:
    """Unconstrained 3-space."""
    return DomainSpec(FREE3)


@dataclass(frozen=True)
class PotentialSpec:
    """A pair interaction kernel.

    ``exponent`` is the power-law exponent s and is set only for the
    ``riesz`` kind; the D-dimensional Coulomb kernel is that kind with
    s = 2 - D.
    """

    kind: str
    exponent: float | None = None

    def __post_init__(self):
        if self.kind not in _POTENTIAL_KINDS:
            raise ValueError(
                f"unknown potential kind {self.kind!r}; expected one of {_POTENTIAL_KINDS}"
            )
        if self.kind == RIESZ:
            s = self.exponent
            if s is None or not -math.inf < s < 2.0 or s == 0.0:
                raise ValueError("power-law exponent must be finite, s < 2 and s != 0 "
                                 "(use the log kernel for the s = 0 limit)")
        elif self.exponent is not None:
            raise ValueError(f"{self.kind!r} takes no parameters")


def log_coulomb() -> PotentialSpec:
    """The 2-D Coulomb kernel -ln r."""
    return PotentialSpec(LOG)


def riesz(s: float) -> PotentialSpec:
    """The power-law kernel -sign(s) * r^s, finite s < 2, s != 0."""
    return PotentialSpec(RIESZ, exponent=float(s))


def coulomb(dimension: int) -> PotentialSpec:
    """The D-dimensional Coulomb kernel r^(2-D), i.e. ``riesz(2 - D)``; D = 3 gives 1/r."""
    if dimension != int(dimension) or dimension < 3:
        raise ValueError("Coulomb dimension must be an integer >= 3")
    return riesz(2 - int(dimension))


def lennard_jones() -> PotentialSpec:
    """The Lennard-Jones kernel r^-12 - r^-6 (free 3-space only)."""
    return PotentialSpec(LENNARD_JONES)


def validate_domain_potential(domain: DomainSpec, pot: PotentialSpec) -> None:
    """Reject kernel/domain combinations outside the supported setting."""
    if pot.kind == LENNARD_JONES and domain.kind != FREE3:
        raise ValueError("the Lennard-Jones kernel is only supported in free 3-space")


# Each token name's constructor, the type of its argument (None: it takes
# none) and what a missing argument is.
_DOMAIN_NAMES = {SPHERE: (sphere, None, ""), FREE3: (free3, None, ""),
                 TORUS: (torus, float, "an aspect ratio, e.g. torus:1.414")}
_POTENTIAL_NAMES = {LOG: (log_coulomb, None, ""), LENNARD_JONES: (lennard_jones, None, ""),
                    RIESZ: (riesz, float, "an exponent, e.g. riesz:-1"),
                    "coulomb": (coulomb, int, "a dimension, e.g. coulomb:3")}


def _parse_token(token: str, what: str, names: dict, expected: str):
    """Build the spec a ``name`` or ``name:<argument>`` token names."""
    name, _, arg = token.partition(":")
    build, arg_type, needs = names.get(name, (None, None, ""))
    if build is None or (arg_type is None and arg):
        raise InputError(f"unknown {what} {token!r}; expected {expected}")
    if arg_type is not None and not arg:
        raise InputError(f"{name} {what} needs {needs}")
    try:
        return build(arg_type(arg)) if arg_type else build()
    except ValueError as exc:
        raise InputError(f"bad {what} {token!r}: {exc}") from exc


def parse_domain_token(token: str) -> DomainSpec:
    return _parse_token(token, "domain", _DOMAIN_NAMES, DOMAIN_TOKENS)


def parse_potential_token(token: str) -> PotentialSpec:
    return _parse_token(token, "potential", _POTENTIAL_NAMES, POTENTIAL_TOKENS)


def format_potential_token(pot: PotentialSpec) -> str:
    return pot.kind if pot.kind != RIESZ else f"riesz:{pot.exponent!r}"
