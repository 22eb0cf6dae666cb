"""Geometry, exterior-sphere contact, cone-ball chains, cap growth."""

import math
import re

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
        ("cone_half_angle", math.nan),
    ])
    def test_non_finite_or_nonpositive_rejected(self, field, value):
        with pytest.raises(GeometryError):
            ObstacleGeometry(**{field: value})

    def test_surface_element_total_area(self):
        geom = ObstacleGeometry(radius=2.0)
        rule = gauss_product_rule(8)
        area = np.sum(geom.surface_element(rule.mu, rule.phi) * rule.weights)
        assert area == pytest.approx(16 * np.pi, rel=1e-12)

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

    @pytest.mark.parametrize("radius", [0.3, 0.5, 1.0, 3.0])
    def test_center_is_rho_inward(self, radius):
        # rho = a/2, so x0 = x~/2 lies at distance rho from x~, along -x^,
        # on random boundary points
        geom = ObstacleGeometry(radius=radius)
        assert geom.exterior_sphere_radius == radius / 2
        rng = np.random.default_rng(4)
        dirs = rng.normal(size=(20, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        for xhat in dirs:
            x0 = exterior_contact_point(geom, radius * xhat)
            np.testing.assert_allclose(x0, radius * xhat / 2, rtol=0.0,
                                       atol=1e-15 * radius)
            assert np.linalg.norm(radius * xhat - x0) == pytest.approx(radius / 2,
                                                                       rel=1e-14)

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

    @pytest.mark.parametrize("r, big_r", [(0.1, 1e308), (1e-310, 8.0)])
    def test_count_past_the_float_range_names_r_and_big_r(self, r, big_r):
        with pytest.raises(OverflowError, match=re.escape(f"R = {big_r}, r = {r}")):
            chain_ball_count(r, big_r, math.pi / 6)

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

    @pytest.mark.parametrize("r,big_r", [(0.1, 8.0), (0.1, 1e50), (0.1, 1e300), (1e-9, 8.0)])
    def test_nesting_residual_is_relative(self, r, big_r):
        # the chain nests with equality; at |x| ≈ 1e49 an absolute residual
        # would be rounding of about 1e33
        chain = build_cone_chain(np.array([0.0, 0.0, 1.0]), r, ObstacleGeometry(), big_r)
        assert np.max(np.abs(chain.nesting_residuals())) <= 1e-15

    def test_distances_geometric(self):
        # ρ_k = d_k sinθ / 3 with d₀ = r/2 and d_{k+1} = μ d_k
        geom = ObstacleGeometry()
        chain = build_cone_chain(np.array([1.0, 0.0, 0.0]), 0.1, geom, 8.0)
        ratios = chain.radii[1:] / chain.radii[:-1]
        assert np.allclose(ratios, chain.ratio, rtol=1e-14)
        assert chain.radii[0] == pytest.approx(0.05 * np.sin(geom.cone_half_angle) / 3.0)

    def test_far_chain_norms_do_not_overflow(self):
        # |x| ≈ 1e299: the squares of the entries overflow, and a numpy
        # warning is an error under pytest
        geom = ObstacleGeometry()
        x = np.array([[3e298, -4e298, 1.2e299]])
        assert geom.distance_to_boundary(x)[0] == pytest.approx(1.3e299, rel=1e-15)
        chain = build_cone_chain(np.array([0.0, 0.0, 1.0]), 0.1, geom, 1e300)
        assert chain.count == chain_ball_count(0.1, 1e300, geom.cone_half_angle)
        assert np.all(np.isfinite(chain.nesting_residuals()))

    def test_rejects_small_outer_radius(self):
        geom = ObstacleGeometry()
        with pytest.raises(GeometryError):
            build_cone_chain(np.array([0.0, 0.0, 1.0]), 0.1, geom, 3.0)


def cap_spread_by_sampling(a, r, n=200_001):
    """Largest |y − x~| over sphere points y with |y − x0| <= a/2 + r, at
    x~ = a e_z, x0 = x~/2, sampled on a fine meridian (the cap is axisymmetric)."""
    theta = np.linspace(0.0, np.pi, n)
    y = a * np.stack([np.sin(theta), np.zeros(n), np.cos(theta)], axis=1)
    in_cap = np.linalg.norm(y - [0.0, 0.0, a / 2], axis=1) <= a / 2 + r
    return np.linalg.norm(y[in_cap] - [0.0, 0.0, a], axis=1).max()


class TestGA2:
    def test_sphere_exponent(self):
        geom = ObstacleGeometry()
        c, kappa = check_GA2(geom, [0.4, 0.2, 0.1, 0.05])
        assert np.isfinite(c) and c > 0
        assert 0.0 < kappa <= 1.0

    @pytest.mark.parametrize("a", [0.3, 1.0, 3.0])
    def test_two_radii_fit_the_closed_form(self, a):
        # two radii fit exactly: C r^kappa = sqrt(2 r (a + r)) at both, and
        # that is the cap spread a sampled meridian finds
        radii = np.array([0.05, 0.4]) * a
        c, kappa = check_GA2(ObstacleGeometry(radius=a), radii)
        exact = np.sqrt(2.0 * radii * (a + radii))
        np.testing.assert_allclose(c * radii**kappa, exact, rtol=1e-12)
        sampled = [cap_spread_by_sampling(a, r) for r in radii]
        np.testing.assert_allclose(sampled, exact, rtol=1e-4)

    @pytest.mark.parametrize("a", [0.3, 1.0, 3.0])
    def test_whole_sphere_beyond_r_equal_a(self, a):
        # for r >= a the cap is the whole sphere: s = 2a, a flat fit
        c, kappa = check_GA2(ObstacleGeometry(radius=a), [a, 2.0 * a, 5.0 * a])
        assert c == pytest.approx(2.0 * a, rel=1e-12)
        assert kappa == 1e-12
        for r in (1.001 * a, 2.0 * a):
            assert cap_spread_by_sampling(a, r) == pytest.approx(2.0 * a, rel=1e-12)

    def test_radius_past_the_float_range_overflows_nothing(self):
        # the cap formula is evaluated at min(r, a): 2r(a + r) at r = 1e300
        # would overflow, and its value is discarded anyway
        with np.errstate(all="raise"):
            c, kappa = check_GA2(ObstacleGeometry(), [1e-300, 1e300])
        assert (c, kappa) == (1.6817928305073696e-75, 0.25025085832972)

    def test_bad_radii(self):
        # non-positive, non-finite, or fewer than two distinct radii
        for radii in ([0.1, -0.1], [0.1, 0.0], [0.1, math.nan], [0.1, math.inf],
                      [0.1], [0.2, 0.2], []):
            with pytest.raises(ValueError):
                check_GA2(ObstacleGeometry(), radii)
