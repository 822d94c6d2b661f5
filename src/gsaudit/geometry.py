"""Constraint domains and their embedding/projection/retraction primitives.

Three domains are supported: the unit 2-sphere, a ring torus embedded in
3-space (minor radius fixed to 1, major radius = aspect_ratio), and
unconstrained 3-space.  Points are stored in intrinsic coordinates — a unit
3-vector on the sphere, an angle pair (theta, phi) on the torus, a plain
3-vector in free space — and all distance/optimizer arithmetic happens on the
embedded ambient coordinates.  Distances are always ambient (chordal)
Euclidean distances between embedded points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPHERE = "sphere"
TORUS = "torus"
FREE3 = "free3"

_KINDS = (SPHERE, TORUS, FREE3)

TWO_PI = 2.0 * math.pi

# Largest tangent step the torus nearest-point retraction accepts.  Below this
# the step cannot reach the axis or the tube's center circle (minor radius 1,
# major radius > 1), so the nearest-point map is single-valued.
MAX_TORUS_STEP = 0.5


class StepTooLargeError(ValueError):
    """A torus retraction step left the region where nearest-point recovery is safe."""


@dataclass(frozen=True)
class DomainSpec:
    """A constraint manifold for point configurations.

    ``aspect_ratio`` is the ratio of major to minor radius of the embedded
    torus (minor radius fixed to 1); it must be > 1 so the surface does not
    self-intersect, and must be absent for the other domains.
    """

    kind: str
    aspect_ratio: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown domain kind {self.kind!r}; expected one of {_KINDS}"
            )
        if self.kind == TORUS:
            if self.aspect_ratio is None or not self.aspect_ratio > 1.0:
                raise ValueError("torus aspect_ratio (major/minor radius) must be > 1")
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


def intrinsic_dim(domain: DomainSpec) -> int:
    """Number of intrinsic coordinates per point (2 for the torus, else 3)."""
    return 2 if domain.kind == TORUS else 3


@dataclass
class Configuration:
    """An ordered set of N >= 1 points on one domain.

    ``points`` is an (N, k) float array whose rows are intrinsic coordinates;
    k is 3 for sphere/free3 and 2 for the torus.  Coincident points are
    representable (the energy of such a configuration may be +inf).
    """

    domain: DomainSpec
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        k = intrinsic_dim(self.domain)
        if pts.ndim != 2 or pts.shape[1] != k:
            raise ValueError(f"points must be an (N, {k}) array for {self.domain.kind}")
        if pts.shape[0] < 1:
            raise ValueError("a configuration needs at least one point")
        self.points = pts

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def validate(self, atol: float = 1e-12) -> None:
        """Check the per-domain coordinate invariants, raising on violation."""
        if self.domain.kind == SPHERE:
            norms = np.linalg.norm(self.points, axis=1)
            worst = float(np.max(np.abs(norms - 1.0)))
            if worst > atol:
                raise ValueError(f"sphere point norm deviates from 1 by {worst:.3e}")
        elif self.domain.kind == TORUS:
            if np.any(self.points < 0.0) or np.any(self.points >= TWO_PI):
                raise ValueError("torus angles must lie in [0, 2*pi)")


def embed_points(points: np.ndarray, domain: DomainSpec) -> np.ndarray:
    """Map an (N, k) array of intrinsic coordinates to (N, 3) ambient coordinates.

    Sphere and free-space coordinates already live in R^3 (identity map); the
    torus maps angles (theta, phi) to
    ((R + cos theta) cos phi, (R + cos theta) sin phi, sin theta) with
    R = aspect_ratio.
    """
    pts = np.asarray(points, dtype=float)
    if domain.kind != TORUS:
        return pts
    theta, phi = pts[:, 0], pts[:, 1]
    ring = domain.aspect_ratio + np.cos(theta)
    return np.column_stack((ring * np.cos(phi), ring * np.sin(phi), np.sin(theta)))


def embed(p: np.ndarray, domain: DomainSpec) -> np.ndarray:
    """Ambient 3-vector of a single intrinsic point."""
    return embed_points(np.asarray(p, dtype=float)[None, :], domain)[0]


def chordal_distance(p: np.ndarray, q: np.ndarray, domain: DomainSpec) -> float:
    """Euclidean distance between the embedded images of two points."""
    return float(np.linalg.norm(embed(p, domain) - embed(q, domain)))


def surface_normals(points: np.ndarray, domain: DomainSpec) -> np.ndarray | None:
    """Outward unit normals of the embedded surface at each point (None for free3)."""
    pts = np.asarray(points, dtype=float)
    if domain.kind == SPHERE:
        return pts
    if domain.kind == TORUS:
        theta, phi = pts[:, 0], pts[:, 1]
        ct = np.cos(theta)
        return np.column_stack((ct * np.cos(phi), ct * np.sin(phi), np.sin(theta)))
    return None


def tangent_project_points(
    points: np.ndarray, vectors: np.ndarray, domain: DomainSpec
) -> np.ndarray:
    """Project ambient vectors onto the tangent planes at the given points.

    ``points`` are intrinsic coordinates, ``vectors`` ambient (N, 3) vectors.
    Free space has no constraint, so the projection is the identity there.
    """
    vs = np.asarray(vectors, dtype=float)
    normals = surface_normals(points, domain)
    if normals is None:
        return vs.copy()
    coef = np.einsum("ij,ij->i", vs, normals)
    return vs - coef[:, None] * normals


def tangent_project(p: np.ndarray, v: np.ndarray, domain: DomainSpec) -> np.ndarray:
    """Single-point tangent projection."""
    return tangent_project_points(
        np.asarray(p, dtype=float)[None, :], np.asarray(v, dtype=float)[None, :], domain
    )[0]


def _reduce_angle(a: np.ndarray) -> np.ndarray:
    return np.mod(a, TWO_PI)


def retract_points(points: np.ndarray, steps: np.ndarray, domain: DomainSpec) -> np.ndarray:
    """Move each point by a tangent step and map back onto the domain.

    Sphere: normalize(embedded + step).  Torus: nearest torus point of
    embedded + step, recovered in closed form (phi from the xy-projection,
    theta from the residual around the tube's center circle); per-point steps
    must have norm < MAX_TORUS_STEP or StepTooLargeError is raised.  Free
    space: translation.  Zero steps return the input unchanged.
    """
    pts = np.asarray(points, dtype=float)
    st = np.asarray(steps, dtype=float)
    if not st.any():
        return pts.copy()
    if domain.kind == FREE3:
        return pts + st
    if domain.kind == SPHERE:
        moved = pts + st
        return moved / np.linalg.norm(moved, axis=1)[:, None]
    norms = np.linalg.norm(st, axis=1)
    if np.any(norms >= MAX_TORUS_STEP):
        raise StepTooLargeError(
            f"torus step norm {float(np.max(norms)):.4g} exceeds the safe "
            f"radius {MAX_TORUS_STEP}"
        )
    moved = embed_points(pts, domain) + st
    rho = np.hypot(moved[:, 0], moved[:, 1])
    phi = np.arctan2(moved[:, 1], moved[:, 0])
    theta = np.arctan2(moved[:, 2], rho - domain.aspect_ratio)
    return np.column_stack((_reduce_angle(theta), _reduce_angle(phi)))


def retract(p: np.ndarray, step: np.ndarray, domain: DomainSpec) -> np.ndarray:
    """Single-point retraction."""
    return retract_points(
        np.asarray(p, dtype=float)[None, :], np.asarray(step, dtype=float)[None, :], domain
    )[0]


def random_configuration(domain: DomainSpec, n: int, seed: int) -> Configuration:
    """Draw N points from the uniform surface measure, deterministically per seed.

    Sphere: normalized standard Gaussian triples.  Torus: rejection sampling in
    theta with acceptance weight (R + cos theta)/(R + 1) — the surface element
    is proportional to R + cos theta — and uniform phi.  Free space: uniform in
    a cube of side 2 * N^(1/3) centered at the origin.
    """
    if n < 1:
        raise ValueError("need at least one point")
    rng = np.random.default_rng(seed)
    if domain.kind == SPHERE:
        raw = rng.standard_normal((n, 3))
        pts = raw / np.linalg.norm(raw, axis=1)[:, None]
    elif domain.kind == TORUS:
        ratio = domain.aspect_ratio
        accepted: list[np.ndarray] = []
        have = 0
        while have < n:
            cand = rng.uniform(0.0, TWO_PI, size=max(n, 64))
            u = rng.uniform(0.0, 1.0, size=cand.size)
            keep = cand[u * (ratio + 1.0) < ratio + np.cos(cand)]
            accepted.append(keep)
            have += keep.size
        theta = np.concatenate(accepted)[:n]
        phi = rng.uniform(0.0, TWO_PI, size=n)
        pts = np.column_stack((theta, phi))
    else:
        half = float(n) ** (1.0 / 3.0)
        pts = rng.uniform(-half, half, size=(n, 3))
    return Configuration(domain, pts)
