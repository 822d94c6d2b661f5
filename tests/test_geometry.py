import math

import numpy as np
import pytest

from gsaudit.geometry import (
    MAX_TORUS_STEP,
    Configuration,
    StepTooLargeError,
    _core,
    random_configuration,
    retract_points,
    surface_normals,
    tangent_project_points,
)
from gsaudit.problem import DomainSpec, free3, sphere, torus

ALL_DOMAINS = [sphere(), torus(1.414), free3()]


def chordal_distance(p, q, domain):
    """Euclidean distance between two ambient points."""
    return float(np.linalg.norm(np.asarray(p) - np.asarray(q)))


def random_rotation(rng):
    """Haar-ish random rotation via QR with positive diagonal."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_point(domain, rng):
    return random_configuration(domain, 1, int(rng.integers(2**32))).points[0]


class TestDomainSpec:
    def test_kinds(self):
        assert sphere().kind == "sphere"
        assert free3().kind == "free3"
        assert torus(1.414).aspect_ratio == 1.414

    def test_torus_needs_ratio_above_one(self):
        with pytest.raises(ValueError):
            torus(1.0)
        with pytest.raises(ValueError):
            DomainSpec("torus")

    @pytest.mark.parametrize("ratio", [math.inf, math.nan])
    def test_torus_needs_a_finite_ratio(self, ratio):
        # A torus of infinite aspect ratio would pass through to the
        # rejection sampler of random_configuration, which never accepts.
        with pytest.raises(ValueError):
            torus(ratio)

    def test_ratio_rejected_elsewhere(self):
        with pytest.raises(ValueError):
            DomainSpec("sphere", aspect_ratio=2.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            DomainSpec("klein-bottle")


class TestCore:
    def test_sphere_core_is_the_origin(self):
        pts = random_configuration(sphere(), 5, 3).points
        assert np.array_equal(_core(pts, sphere()), np.zeros((5, 3)))

    def test_torus_core_is_on_the_center_circle(self):
        d = torus(1.414)
        pts = random_configuration(d, 50, 3).points
        core = _core(pts, d)
        assert np.all(core[:, 2] == 0.0)
        assert np.allclose(np.hypot(core[:, 0], core[:, 1]), 1.414, rtol=0.0, atol=1e-15)
        rho = np.hypot(pts[:, 0], pts[:, 1])
        assert np.allclose(core[:, :2], 1.414 * pts[:, :2] / rho[:, None], rtol=0.0, atol=1e-15)

    def test_torus_core_on_the_axis(self):
        # arctan2(0, 0) = 0 picks one of the equally near points of the circle.
        assert _core(np.array([[0.0, 0.0, 0.5]]), torus(3.0)).tolist() == [[3.0, 0.0, 0.0]]

    @pytest.mark.parametrize("point, normal", [([2.414, 0.0, 0.0], [1.0, 0.0, 0.0]),
                                               ([0.414, 0.0, 0.0], [-1.0, 0.0, 0.0]),
                                               ([0.0, 1.414, 1.0], [0.0, 0.0, 1.0])],
                             ids=["outer-equator", "inner-equator", "top"])
    def test_torus_normals(self, point, normal):
        got = surface_normals(np.array([point]), torus(1.414))[0]
        assert np.allclose(got, normal, rtol=0.0, atol=1e-12)


class TestChordalDistance:
    def test_antipodal_diameter(self):
        d = chordal_distance(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0]), sphere())
        assert d == 2.0

    def test_coincident(self):
        p = np.array([0.0, 0.0, 1.0])
        assert chordal_distance(p, p, sphere()) == 0.0

    def test_orthogonal_unit_vectors(self):
        d = chordal_distance(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), sphere())
        assert abs(d - math.sqrt(2.0)) < 1e-15

    @pytest.mark.parametrize("domain", ALL_DOMAINS, ids=lambda d: d.kind)
    def test_symmetry_exact(self, domain):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p, q = random_point(domain, rng), random_point(domain, rng)
            assert chordal_distance(p, q, domain) == chordal_distance(q, p, domain)

    def test_rotation_invariance_on_sphere(self):
        rng = np.random.default_rng(11)
        pts = random_configuration(sphere(), 12, 3).points
        rot = random_rotation(rng)
        rotated = pts @ rot.T
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                d0 = chordal_distance(pts[i], pts[j], sphere())
                d1 = chordal_distance(rotated[i], rotated[j], sphere())
                assert abs(d0 - d1) < 1e-12

    @pytest.mark.parametrize("domain", ALL_DOMAINS, ids=lambda d: d.kind)
    def test_triangle_inequality(self, domain):
        rng = np.random.default_rng(13)
        for _ in range(50):
            p, q, r = (random_point(domain, rng) for _ in range(3))
            dpq = chordal_distance(p, q, domain)
            dqr = chordal_distance(q, r, domain)
            dpr = chordal_distance(p, r, domain)
            assert dpr <= dpq + dqr + 1e-12


class TestRandomConfiguration:
    @pytest.mark.parametrize("domain", ALL_DOMAINS, ids=lambda d: d.kind)
    def test_deterministic(self, domain):
        a = random_configuration(domain, 5, 42)
        b = random_configuration(domain, 5, 42)
        assert np.array_equal(a.points, b.points)

    def test_zero_points_rejected(self):
        with pytest.raises(ValueError):
            random_configuration(sphere(), 0, 1)

    def test_sphere_points_are_unit(self):
        c = random_configuration(sphere(), 200, 5)
        assert np.max(np.abs(np.linalg.norm(c.points, axis=1) - 1.0)) < 1e-12
        c.validate()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sphere_mean_is_small(self, seed):
        # uniform surface measure: the mean of 10^4 draws concentrates near 0
        c = random_configuration(sphere(), 10000, seed)
        assert np.linalg.norm(c.points.mean(axis=0)) < 0.05

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_torus_reflection_symmetry(self, seed):
        # the surface measure is invariant under z -> -z
        c = random_configuration(torus(1.414), 10000, seed)
        frac = np.mean(c.points[:, 2] > 0.0)
        assert abs(frac - 0.5) < 0.03

    def test_torus_points_lie_on_the_surface(self):
        c = random_configuration(torus(1.414), 500, 9)
        rho = np.hypot(c.points[:, 0], c.points[:, 1])
        assert np.all((0.414 - 1e-12 <= rho) & (rho <= 2.414 + 1e-12))
        assert np.all(np.abs(c.points[:, 2]) <= 1.0)
        c.validate()

    def test_free3_inside_cube(self):
        n = 27
        c = random_configuration(free3(), n, 4)
        half = n ** (1.0 / 3.0)
        assert np.all(np.abs(c.points) <= half)


class TestTangentProject:
    def test_sphere_removes_normal_component(self):
        got = tangent_project_points(np.array([[0.0, 0.0, 1.0]]), np.array([[1.0, 2.0, 3.0]]), sphere())[0]
        assert np.allclose(got, [1.0, 2.0, 0.0], atol=1e-15)

    def test_parallel_vector_projects_to_zero(self):
        p = np.array([0.0, 0.0, 1.0])
        assert np.allclose(tangent_project_points(p[None], 5.0 * p[None], sphere())[0], 0.0, atol=1e-15)

    def test_free3_identity(self):
        v = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(tangent_project_points(np.zeros((1, 3)), v[None], free3())[0], v)

    @pytest.mark.parametrize("domain", [sphere(), torus(1.414)], ids=lambda d: d.kind)
    def test_result_is_orthogonal_to_normal(self, domain):
        rng = np.random.default_rng(21)
        pts = random_configuration(domain, 40, 2).points
        vs = rng.standard_normal((40, 3))
        proj = tangent_project_points(pts, vs, domain)
        normals = surface_normals(pts, domain)
        assert np.max(np.abs(np.einsum("ij,ij->i", proj, normals))) < 1e-12

    @pytest.mark.parametrize("domain", ALL_DOMAINS, ids=lambda d: d.kind)
    def test_idempotent(self, domain):
        rng = np.random.default_rng(23)
        pts = random_configuration(domain, 30, 6).points
        vs = rng.standard_normal((30, 3))
        once = tangent_project_points(pts, vs, domain)
        twice = tangent_project_points(pts, once, domain)
        assert np.max(np.abs(twice - once)) < 1e-14


class TestRetract:
    @pytest.mark.parametrize("domain", ALL_DOMAINS, ids=lambda d: d.kind)
    def test_zero_step_is_identity(self, domain):
        pts = random_configuration(domain, 10, 8).points
        out = retract_points(pts, np.zeros((10, 3)), domain)
        assert np.array_equal(out, pts)

    def test_torus_tiny_step_stays_on_the_surface(self):
        d = torus(3.0)
        out = retract_points(np.array([[4.0, 0.0, 0.0]]), np.array([[0.0, -1e-17, 0.0]]), d)
        assert out.tolist() == [[4.0, -1e-17, 0.0]]
        Configuration(d, out).validate()

    def test_sphere_norm_restored(self):
        rng = np.random.default_rng(31)
        d = sphere()
        pts = random_configuration(d, 20, 1).points
        steps = tangent_project_points(pts, 0.3 * rng.standard_normal((20, 3)), d)
        out = retract_points(pts, steps, d)
        assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) < 1e-12

    def test_sphere_first_order_geodesic_displacement(self):
        # for a tangent step of length eps, the geodesic angle moved is
        # eps + O(eps^3); measured via atan2(|p x q|, p.q) which is stable
        # near zero separation
        p = np.array([1.0, 0.0, 0.0])
        eps = 1e-8
        q = retract_points(p[None], np.array([[0.0, eps, 0.0]]), sphere())[0]
        angle = math.atan2(np.linalg.norm(np.cross(p, q)), float(np.dot(p, q)))
        assert abs(angle - eps) < 1e-15

    @pytest.mark.parametrize("ratio", [1.05, 1.414, 3.0])
    def test_torus_retraction_is_the_nearest_point(self, ratio):
        # Brute force: no point of a dense (theta, phi) grid on the torus is
        # nearer to p + s than the retracted point, and the nearest grid point
        # is within one grid spacing of it.
        d = torus(ratio)
        rng = np.random.default_rng(33)
        pts = random_configuration(d, 25, 3).points
        steps = tangent_project_points(pts, 0.1 * rng.standard_normal((25, 3)), d)
        assert np.all(np.linalg.norm(steps, axis=1) < MAX_TORUS_STEP)
        out = retract_points(pts, steps, d)
        Configuration(d, out).validate()
        angles = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
        theta, phi = (a.ravel() for a in np.meshgrid(angles, angles))
        ring = ratio + np.cos(theta)
        grid = np.column_stack((ring * np.cos(phi), ring * np.sin(phi), np.sin(theta)))
        spacing = (ratio + 1.0) * (angles[1] - angles[0])
        for moved, got in zip(pts + steps, out):
            nearest = float(np.min(np.linalg.norm(grid - moved, axis=1)))
            dist = float(np.linalg.norm(got - moved))
            assert dist <= nearest + 1e-15
            assert nearest - dist <= spacing

    def test_torus_step_onto_the_axis(self):
        # On torus(1.05), the tangent plane at the point with cos theta = -1/R
        # passes through the origin, at distance sqrt(R^2 - 1) < MAX_TORUS_STEP.
        d = torus(1.05)
        c = -1.0 / 1.05
        p = np.array([[1.05 + c, 0.0, math.sqrt(1.0 - c * c)]])
        for step in (-p, tangent_project_points(p, -p, d)):
            assert np.linalg.norm(p + step) < 1e-15
            assert abs(np.linalg.norm(step) - math.sqrt(1.05**2 - 1.0)) < 1e-15
            out = retract_points(p, step, d)
            Configuration(d, out).validate()
            # The inner equator, every point of which is equally near the axis.
            assert abs(np.hypot(out[0, 0], out[0, 1]) - 0.05) < 1e-15
            assert abs(out[0, 2]) < 1e-15

    def test_torus_large_step_rejected(self):
        d = torus(1.414)
        p = random_configuration(d, 1, 0).points
        step = np.array([[0.0, 0.0, MAX_TORUS_STEP]])
        with pytest.raises(StepTooLargeError):
            retract_points(p, step, d)

    def test_free3_translation(self):
        p = np.array([1.0, 2.0, 3.0])
        s = np.array([0.5, -0.5, 0.25])
        assert np.array_equal(retract_points(p[None], s[None], free3())[0], p + s)


class TestConfiguration:
    @pytest.mark.parametrize("domain", ALL_DOMAINS, ids=lambda d: d.kind)
    def test_shape_validation(self, domain):
        # Points are ambient 3-vectors on every domain; an angle array is refused.
        with pytest.raises(ValueError):
            Configuration(domain, np.zeros((3, 2)))
        with pytest.raises(ValueError):
            Configuration(domain, np.zeros(3))
        with pytest.raises(ValueError):
            Configuration(domain, np.zeros((0, 3)))

    def test_validate_catches_bad_sphere_point(self):
        c = Configuration(sphere(), np.array([[2.0, 0.0, 0.0]]))
        with pytest.raises(ValueError):
            c.validate()

    @pytest.mark.parametrize("x", [1.414, 2.414 + 1e-9, 3.0],
                             ids=["on-the-center-circle", "just-outside", "outside"])
    def test_validate_catches_point_off_the_torus(self, x):
        Configuration(torus(1.414), np.array([[2.414, 0.0, 0.0]])).validate()
        c = Configuration(torus(1.414), np.array([[0.414, 0.0, 0.0], [x, 0.0, 0.0]]))
        with pytest.raises(ValueError, match="torus point lies"):
            c.validate()

    @pytest.mark.parametrize("domain", ALL_DOMAINS, ids=lambda d: d.kind)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_validate_refuses_non_finite_points(self, domain, bad):
        pts = random_configuration(domain, 2, 5).points
        Configuration(domain, pts).validate()
        pts[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            Configuration(domain, pts).validate()

    def test_coincident_points_representable(self):
        pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        c = Configuration(sphere(), pts)
        assert c.n_points == 2
