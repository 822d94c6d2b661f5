import math

import numpy as np
import pytest

from gsaudit.geometry import (
    MAX_TORUS_STEP,
    TWO_PI,
    Configuration,
    StepTooLargeError,
    embed_points,
    intrinsic_dim,
    random_configuration,
    retract_points,
    surface_normals,
    tangent_project_points,
)
from gsaudit.problem import DomainSpec, free3, sphere, torus

ALL_DOMAINS = [sphere(), torus(1.414), free3()]


def chordal_distance(p, q, domain):
    """Euclidean distance between the embedded images of two points."""
    a, b = embed_points(np.array([p, q], dtype=float), domain)
    return float(np.linalg.norm(a - b))


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

    def test_intrinsic_dims(self):
        assert intrinsic_dim(sphere()) == 3
        assert intrinsic_dim(torus(2.0)) == 2
        assert intrinsic_dim(free3()) == 3


class TestEmbed:
    def test_sphere_identity(self):
        p = np.array([0.0, 0.0, 1.0])
        assert np.array_equal(embed_points(p[None], sphere())[0], p)

    def test_torus_outer_equator(self):
        got = embed_points(np.array([[0.0, 0.0]]), torus(1.414))[0]
        assert np.allclose(got, [2.414, 0.0, 0.0], atol=1e-12)

    def test_torus_inner_equator(self):
        got = embed_points(np.array([[math.pi, 0.0]]), torus(1.414))[0]
        assert np.allclose(got, [0.414, 0.0, 0.0], atol=1e-12)

    def test_free3_identity(self):
        p = np.array([1.5, -2.0, 0.25])
        assert np.array_equal(embed_points(p[None], free3())[0], p)


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
    def test_torus_theta_reflection_symmetry(self, seed):
        # the surface measure is invariant under theta -> 2*pi - theta
        c = random_configuration(torus(1.414), 10000, seed)
        frac = np.mean(c.points[:, 0] < math.pi)
        assert abs(frac - 0.5) < 0.03

    def test_torus_angles_in_range(self):
        c = random_configuration(torus(1.414), 500, 9)
        assert np.all(c.points >= 0.0) and np.all(c.points < TWO_PI)
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
    @pytest.mark.parametrize("domain", [sphere(), free3()], ids=lambda d: d.kind)
    def test_zero_step_is_identity(self, domain):
        pts = random_configuration(domain, 10, 8).points
        out = retract_points(pts, np.zeros((10, 3)), domain)
        assert np.array_equal(out, pts)

    def test_zero_step_torus_within_angle_reduction(self):
        pts = random_configuration(torus(1.414), 10, 8).points
        out = retract_points(pts, np.zeros((10, 3)), torus(1.414))
        assert np.max(np.abs(out - pts)) < 1e-12

    def test_torus_angle_stays_below_two_pi(self):
        # phi = atan2(-1e-17, R + 1) is a tiny negative angle; np.mod rounds
        # it up to 2 pi, which validate rejects.
        out = retract_points(np.array([[0.0, 0.0]]), np.array([[0.0, -1e-17, 0.0]]), torus(3.0))
        assert out.tolist() == [[0.0, 0.0]]
        Configuration(torus(3.0), out).validate()

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

    def test_torus_roundtrip_small_steps(self):
        d = torus(1.414)
        rng = np.random.default_rng(33)
        pts = random_configuration(d, 25, 3).points
        steps = tangent_project_points(pts, 0.05 * rng.standard_normal((25, 3)), d)
        out = retract_points(pts, steps, d)
        Configuration(d, out).validate()
        # the retracted point must be the nearest torus point: it beats a
        # ring of probe points around it
        moved = embed_points(pts, d) + steps
        best = np.linalg.norm(moved - embed_points(out, d), axis=1)
        for delta in (-0.01, 0.01):
            for col in (0, 1):
                probe = out.copy()
                probe[:, col] = np.mod(probe[:, col] + delta, TWO_PI)
                probe_dist = np.linalg.norm(moved - embed_points(probe, d), axis=1)
                assert np.all(best <= probe_dist + 1e-15)

    def test_torus_large_step_rejected(self):
        d = torus(1.414)
        p = np.array([[0.25, 0.5]])
        step = np.array([[0.0, 0.0, MAX_TORUS_STEP]])
        with pytest.raises(StepTooLargeError):
            retract_points(p, step, d)

    def test_free3_translation(self):
        p = np.array([1.0, 2.0, 3.0])
        s = np.array([0.5, -0.5, 0.25])
        assert np.array_equal(retract_points(p[None], s[None], free3())[0], p + s)


class TestConfiguration:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Configuration(sphere(), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            Configuration(torus(1.414), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            Configuration(sphere(), np.zeros((0, 3)))

    def test_validate_catches_bad_sphere_point(self):
        c = Configuration(sphere(), np.array([[2.0, 0.0, 0.0]]))
        with pytest.raises(ValueError):
            c.validate()

    @pytest.mark.parametrize("angle", [-0.1, TWO_PI])
    def test_validate_catches_torus_angle_out_of_range(self, angle):
        Configuration(torus(1.414), np.array([[0.0, TWO_PI - 1e-9]])).validate()
        c = Configuration(torus(1.414), np.array([[0.0, 1.0], [angle, 1.0]]))
        with pytest.raises(ValueError, match="torus angles"):
            c.validate()

    def test_coincident_points_representable(self):
        pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        c = Configuration(sphere(), pts)
        assert c.n_points == 2
