"""Point configurations on the domains of :mod:`gsaudit.problem`, and their primitives.

Points are stored as (N, 3) arrays of ambient coordinates on every domain.
The sphere and the torus (minor radius 1, major radius = aspect_ratio) are
each the set of points at distance 1 from a core: the origin, or the
torus's center circle.  The nearest core point, :func:`_core`, gives the
surface normals, the on-surface check and the nearest-point retraction.
Distances are ambient (chordal) Euclidean distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import FREE3, SPHERE, TORUS, DomainSpec
from .problem import sphere  # noqa: F401  (perfbench/workloads.py reads it here)

# Largest tangent step the torus retraction accepts.  A shorter tangent step
# from a point of the tube (at distance 1 from the center circle) ends at
# least 0.5 from that circle, where the nearest torus point is undefined.  It
# can still reach the axis, wherever R < sqrt(1.25); there arctan2(0, 0) = 0
# picks one of the equally near points of the inner circle.
MAX_TORUS_STEP = 0.5


class StepTooLargeError(ValueError):
    """A torus retraction step left the region where nearest-point recovery is safe."""


@dataclass
class Configuration:
    """An ordered set of N >= 1 points on one domain.

    ``points`` is an (N, 3) float array of ambient coordinates on every
    domain.  Coincident points are representable (the energy of such a
    configuration may be +inf).
    """

    domain: DomainSpec
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("points must be an (N, 3) array of ambient coordinates")
        if pts.shape[0] < 1:
            raise ValueError("a configuration needs at least one point")
        self.points = pts

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def validate(self) -> None:
        """Check that every coordinate is finite and every point lies on the surface.

        On the sphere and the torus, each point p's distance from its nearest
        core point must be 1 to within 1e-12 * max(1, |p|), the rounding of
        coordinates as large as p's.  Raises ValueError otherwise.
        """
        if not np.isfinite(self.points).all():
            raise ValueError("point coordinates must be finite")
        normals = surface_normals(self.points, self.domain)
        if normals is not None:
            off = np.abs(np.linalg.norm(normals, axis=1) - 1.0)
            bad = off > 1e-12 * np.maximum(1.0, np.linalg.norm(self.points, axis=1))
            if bad.any():
                worst = float(np.max(off[bad]))
                raise ValueError(f"{self.domain.kind} point lies {worst:.3e} off the surface")


def _core(points: np.ndarray, domain: DomainSpec) -> np.ndarray:
    """Nearest point of the core, the set the surface lies at distance 1 from.

    The sphere's core is the origin.  The torus's is its center circle, of
    radius R = aspect_ratio in the xy-plane; the nearest point of p on it is
    R (cos phi, sin phi, 0) with phi = arctan2(p_y, p_x), which on the axis
    picks phi = 0 among the equally near points.
    """
    if domain.kind == SPHERE:
        return np.zeros_like(points)
    phi = np.arctan2(points[:, 1], points[:, 0])
    return domain.aspect_ratio * np.column_stack((np.cos(phi), np.sin(phi), np.zeros_like(phi)))


def surface_normals(points: np.ndarray, domain: DomainSpec) -> np.ndarray | None:
    """Outward unit normals p - core(p) at points on the surface (None for free3).

    On the sphere the core is the origin, so the normals are the points
    themselves, returned without a copy.
    """
    pts = np.asarray(points, dtype=float)
    if domain.kind == SPHERE:
        return pts
    if domain.kind == TORUS:
        return pts - _core(pts, domain)
    return None


def tangent_project_points(
    points: np.ndarray, vectors: np.ndarray, domain: DomainSpec
) -> np.ndarray:
    """Project ambient vectors onto the tangent planes at the given points.

    Both are (N, 3) ambient arrays.  Free space has no constraint, so the
    projection is the identity there.
    """
    vs = np.asarray(vectors, dtype=float)
    normals = surface_normals(points, domain)
    if normals is None:
        return vs.copy()
    coef = np.einsum("ij,ij->i", vs, normals)
    return vs - coef[:, None] * normals


def retract_points(points: np.ndarray, steps: np.ndarray, domain: DomainSpec) -> np.ndarray:
    """Move each point by a tangent step and map back onto the domain.

    The sphere and the torus map p + s to its nearest surface point,
    c + d / |d| with c = core(p + s) and d = p + s - c; on the sphere c is
    the origin, so that is (p + s) / |p + s|.  On the torus, per-point steps
    must have norm < MAX_TORUS_STEP or StepTooLargeError is raised.  Free
    space: translation.  Zero steps return the input unchanged.
    """
    pts = np.asarray(points, dtype=float)
    st = np.asarray(steps, dtype=float)
    if not st.any():
        return pts.copy()
    moved = pts + st
    if domain.kind == FREE3:
        return moved
    if domain.kind == SPHERE:
        return moved / np.linalg.norm(moved, axis=1)[:, None]
    norms = np.linalg.norm(st, axis=1)
    if np.any(norms >= MAX_TORUS_STEP):
        raise StepTooLargeError(
            f"torus step norm {float(np.max(norms)):.4g} exceeds the safe "
            f"radius {MAX_TORUS_STEP}"
        )
    core = _core(moved, domain)
    d = moved - core
    return core + d / np.linalg.norm(d, axis=1)[:, None]


def random_configuration(domain: DomainSpec, n: int, seed: int) -> Configuration:
    """Draw N points from the uniform surface measure, deterministically per seed.

    Sphere: normalized standard Gaussian triples.  Torus: rejection sampling in
    theta with acceptance weight (R + cos theta)/(R + 1) — the surface element
    is proportional to R + cos theta — and uniform phi, embedded as
    ((R + cos theta) cos phi, (R + cos theta) sin phi, sin theta).  Free
    space: uniform in a cube of side 2 * N^(1/3) centered at the origin.
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
            cand = rng.uniform(0.0, math.tau, size=max(n, 64))
            u = rng.uniform(0.0, 1.0, size=cand.size)
            keep = cand[u * (ratio + 1.0) < ratio + np.cos(cand)]
            accepted.append(keep)
            have += keep.size
        theta = np.concatenate(accepted)[:n]
        phi = rng.uniform(0.0, math.tau, size=n)
        ring = ratio + np.cos(theta)
        pts = np.column_stack((ring * np.cos(phi), ring * np.sin(phi), np.sin(theta)))
    else:
        half = float(n) ** (1.0 / 3.0)
        pts = rng.uniform(-half, half, size=(n, 3))
    return Configuration(domain, pts)
