"""Point configurations on the domains of :mod:`gsaudit.problem`, and their primitives.

Points are stored in intrinsic coordinates — a unit 3-vector on the sphere,
an angle pair (theta, phi) on the torus (minor radius 1, major radius =
aspect_ratio), a plain 3-vector in free space — and all distance/optimizer
arithmetic happens on the embedded ambient coordinates: embedding,
projection onto the tangent planes and retraction.  Distances are always
ambient (chordal) Euclidean distances between embedded points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import FREE3, SPHERE, TORUS, DomainSpec
from .problem import sphere  # noqa: F401  (perfbench/workloads.py reads it here)

TWO_PI = 2.0 * math.pi

# Largest tangent step the torus nearest-point retraction accepts.  Below this
# the step cannot reach the axis or the tube's center circle (minor radius 1,
# major radius > 1), so the nearest-point map is single-valued.
MAX_TORUS_STEP = 0.5


class StepTooLargeError(ValueError):
    """A torus retraction step left the region where nearest-point recovery is safe."""


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

    def validate(self) -> None:
        """Check the per-domain invariants (sphere norms 1 to 1e-12), raising on violation."""
        if self.domain.kind == SPHERE:
            norms = np.linalg.norm(self.points, axis=1)
            worst = float(np.max(np.abs(norms - 1.0)))
            if worst > 1e-12:
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


def _reduce_angle(a: np.ndarray) -> np.ndarray:
    """Angles a in [0, 2 pi).  A tiny negative angle reduces to 2 pi - |a|,
    which rounds to 2 pi itself: that is the angle 0."""
    reduced = np.mod(a, TWO_PI)
    reduced[reduced == TWO_PI] = 0.0
    return reduced


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
