"""Geometry, exterior-sphere contact, cone-ball chains, cap growth."""

import math

import numpy as np
import pytest

from impscat.geometry import (
    GeometryError,
    ObstacleGeometry,
    build_cone_chain,
    chain_ball_count,
    chain_ratio,
    check_GA2,
    exterior_contact_point,
)
from impscat.specfun import gauss_product_rule


class TestObstacleGeometry:
    def test_sphere_defaults(self):
        geom = ObstacleGeometry()
        assert (geom.radius, geom.exterior_sphere_radius) == (1.0, 0.5)
        assert geom.cone_half_angle == math.pi / 6

    def test_validation(self):
        with pytest.raises(GeometryError):
            ObstacleGeometry(radius=-1.0)
        with pytest.raises(GeometryError):
            ObstacleGeometry(cone_half_angle=2.0)

    @pytest.mark.parametrize("field,value", [
        ("radius", math.nan), ("radius", math.inf), ("radius", -math.inf),
        ("exterior_sphere_radius", math.nan), ("exterior_sphere_radius", math.inf),
        ("exterior_sphere_radius", 0.0), ("cone_half_angle", math.nan),
    ])
    def test_non_finite_or_nonpositive_rejected(self, field, value):
        with pytest.raises(GeometryError):
            ObstacleGeometry(**{field: value})

    def test_boundary_points_on_sphere(self):
        geom = ObstacleGeometry(radius=1.5)
        rule = gauss_product_rule(6)
        np.testing.assert_array_equal(geom.boundary_points(rule), 1.5 * rule.points())

    def test_surface_element_total_area(self):
        geom = ObstacleGeometry(radius=2.0)
        rule = gauss_product_rule(8)
        area = np.sum(geom.surface_element(rule.mu, rule.phi) * rule.weights)
        assert area == pytest.approx(16 * np.pi, rel=1e-12)

    def test_contains(self):
        geom = ObstacleGeometry()
        inside = geom.contains(np.array([[0.0, 0.0, 0.5], [0.0, 0.0, 1.5]]))
        assert inside.tolist() == [True, False]

    def test_distance_to_boundary_sphere(self):
        geom = ObstacleGeometry()
        d = geom.distance_to_boundary(np.array([[0.0, 0.0, 3.0]]))
        assert d[0] == pytest.approx(2.0)


class TestExteriorContact:
    def test_north_pole(self):
        geom = ObstacleGeometry()
        x0 = exterior_contact_point(geom, np.array([0.0, 0.0, 1.0]))
        assert np.allclose(x0, [0.0, 0.0, 0.5])

    def test_off_boundary_point_rejected(self):
        geom = ObstacleGeometry()
        with pytest.raises(GeometryError):
            exterior_contact_point(geom, np.array([0.0, 0.0, 1.5]))

    @pytest.mark.parametrize("radius", [0.5, 1.0, 3.0])
    def test_center_is_rho_inward(self, radius):
        # x0 lies at distance rho from x~, along -x^, on random boundary points
        geom = ObstacleGeometry(radius=radius)
        rng = np.random.default_rng(4)
        dirs = rng.normal(size=(20, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        for xhat in dirs:
            x0 = exterior_contact_point(geom, radius * xhat)
            step = radius * xhat - x0
            assert np.linalg.norm(step) == pytest.approx(0.5, rel=1e-14)
            np.testing.assert_allclose(step / np.linalg.norm(step), xhat,
                                       rtol=0.0, atol=1e-15)

    def test_ball_wider_than_sphere_rejected(self):
        # rho = 0.5 > a = 0.3: the contact ball meets the sphere away from x~
        geom = ObstacleGeometry(radius=0.3)
        with pytest.raises(GeometryError, match="away from the contact point"):
            exterior_contact_point(geom, np.array([0.0, 0.0, 0.3]))

    @pytest.mark.parametrize("x_tilde", [
        [0.0, 0.0, math.nan], [math.nan] * 3, [0.0, 0.0, math.inf], [0.0, 0.0, 0.0],
        [0.0, 0.6, 0.8 + 1e-8],
    ])
    def test_nan_or_off_sphere_point_rejected(self, x_tilde):
        with pytest.raises(GeometryError, match="boundary"):
            exterior_contact_point(ObstacleGeometry(), np.array(x_tilde))


class TestConeChain:
    def test_ratio(self):
        assert chain_ratio(math.pi / 6) == pytest.approx(8.0 / 7.0, abs=1e-15)

    def test_count_acceptance_configuration(self):
        assert chain_ball_count(0.1, 8.0, math.pi / 6) == 22

    def test_count_brute_force_oracle(self):
        # largest N with (r/2) mu^N <= R/8 reachable by whole steps
        for r, big_r, theta in [(0.1, 8.0, math.pi / 6), (0.2, 16.0, 0.4),
                                (0.05, 8.0, math.pi / 4)]:
            mu = chain_ratio(theta)
            n = 0
            while mu ** (n + 1) <= big_r / (4.0 * r) * (1 + 1e-12):
                n += 1
            assert chain_ball_count(r, big_r, theta) == n

    def test_count_validation(self):
        with pytest.raises(ValueError):
            chain_ball_count(-0.1, 8.0, 0.5)
        with pytest.raises(ValueError):
            chain_ball_count(1.0, 2.0, 0.5)

    def test_nesting_and_containment(self):
        geom = ObstacleGeometry()
        chain = build_cone_chain(np.array([0.0, 0.0, 1.0]), 0.1, geom, 8.0)
        assert chain.count == 22
        assert chain.centers.shape == (23, 3)
        # nesting |x_{k+1}-x_k| + rho_{k+1} <= 2 rho_k holds with equality
        assert np.max(np.abs(chain.nesting_residuals())) < 1e-12
        # triple-radius balls stay inside the domain
        dist = geom.distance_to_boundary(chain.centers)
        assert np.all(dist > 3.0 * chain.radii)
        assert np.all(np.linalg.norm(chain.centers, axis=1)
                      + 3.0 * chain.radii <= 8.0)

    def test_distances_geometric(self):
        geom = ObstacleGeometry()
        chain = build_cone_chain(np.array([1.0, 0.0, 0.0]), 0.1, geom, 8.0)
        ratios = chain.distances[1:] / chain.distances[:-1]
        assert np.allclose(ratios, chain.ratio, rtol=1e-14)
        assert chain.distances[0] == pytest.approx(0.05)

    def test_rejects_small_outer_radius(self):
        geom = ObstacleGeometry()
        with pytest.raises(GeometryError):
            build_cone_chain(np.array([0.0, 0.0, 1.0]), 0.1, geom, 3.0)


class TestGA2:
    def test_sphere_exponent(self):
        geom = ObstacleGeometry()
        c, kappa = check_GA2(geom, [0.4, 0.2, 0.1, 0.05])
        assert np.isfinite(c) and c > 0
        assert 0.0 < kappa <= 1.0

    def test_bad_radii(self):
        with pytest.raises(ValueError):
            check_GA2(ObstacleGeometry(), [0.1, -0.1])
