"""Special-function primitives against independent oracles."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import sph_harm_y

from impscat.layer_ops import OP_KINDS, sphere_operator_eigenvalue
from impscat.specfun import (
    QuadratureRule,
    gauss_product_rule,
    harmonic_degrees,
    harmonic_index,
    num_harmonics,
    real_sph_harmonic_all,
    sph_bessel_j,
    sph_bessel_y,
    sph_hankel1,
    sph_harmonic,
    sph_harmonic_all,
    sph_harmonic_all_dtheta,
)


def mp_spherical_jn(n, x):
    """Arbitrary-precision j_n via the half-integer Bessel relation."""
    with mp.workdps(40):
        return float(mp.sqrt(mp.pi / (2 * x)) * mp.besselj(n + mp.mpf(1) / 2, x))


def mp_spherical_yn(n, x):
    with mp.workdps(40):
        return float(mp.sqrt(mp.pi / (2 * x)) * mp.bessely(n + mp.mpf(1) / 2, x))


class TestSphericalBessel:
    def test_j10_at_5_matches_series(self):
        assert sph_bessel_j(10, 5.0) == pytest.approx(mp_spherical_jn(10, 5.0),
                                                      abs=1e-12, rel=1e-12)

    def test_h8_at_2_matches_series(self):
        h = sph_hankel1(8, 2.0)
        assert h.real == pytest.approx(mp_spherical_jn(8, 2.0), rel=1e-12)
        assert h.imag == pytest.approx(mp_spherical_yn(8, 2.0), rel=1e-12)

    def test_wronskian(self):
        # j_n(x) y_n'(x) - j_n'(x) y_n(x) = 1/x^2
        x = np.linspace(0.1, 50.0, 97)
        for n in range(0, 41, 5):
            w = (sph_bessel_j(n, x) * sph_bessel_y(n, x, derivative=True)
                 - sph_bessel_j(n, x, derivative=True) * sph_bessel_y(n, x))
            assert np.allclose(w, 1.0 / x**2, rtol=1e-10)

    def test_recurrence(self):
        # j_{n-1} + j_{n+1} = (2n+1)/x j_n
        x = np.linspace(0.5, 30.0, 41)
        for n in range(1, 20):
            lhs = sph_bessel_j(n - 1, x) + sph_bessel_j(n + 1, x)
            assert np.allclose(lhs, (2 * n + 1) / x * sph_bessel_j(n, x),
                               rtol=1e-9, atol=1e-13)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            sph_bessel_j(-1, 1.0)
        with pytest.raises(ValueError):
            sph_bessel_j(2, 0.0)
        with pytest.raises(ValueError):
            sph_hankel1(2, np.nan)


DEGREE_ARRAYS = st.lists(st.integers(0, 80), min_size=1, max_size=12).map(np.array)
ARGUMENTS = st.floats(1e-2, 50.0)
BESSEL = [sph_bessel_j, sph_bessel_y, sph_hankel1]


class TestDegreeArrays:
    @settings(max_examples=40, deadline=None)
    @given(degrees=DEGREE_ARRAYS, x=ARGUMENTS, derivative=st.booleans())
    def test_bessel_matches_scalar_calls(self, degrees, x, derivative):
        for fn in BESSEL:
            scalar = np.array([fn(int(n), x, derivative=derivative) for n in degrees])
            assert np.array_equal(fn(degrees, x, derivative=derivative), scalar)

    @settings(max_examples=40, deadline=None)
    @given(degrees=DEGREE_ARRAYS, x=ARGUMENTS, a=st.floats(0.5, 2.0))
    def test_eigenvalue_matches_scalar_calls(self, degrees, x, a):
        k = x / a
        for kind in OP_KINDS:
            scalar = np.array([sphere_operator_eigenvalue(kind, k, a, int(n))
                               for n in degrees])
            assert np.array_equal(sphere_operator_eigenvalue(kind, k, a, degrees),
                                  scalar)

    @settings(max_examples=40, deadline=None)
    @given(degrees=DEGREE_ARRAYS, bad=st.one_of(st.integers(-80, -1),
                                               st.floats(0.01, 80.0).filter(
                                                   lambda v: v != int(v))),
           x=ARGUMENTS)
    def test_invalid_degree_in_array_raises(self, degrees, bad, x):
        degrees = np.append(degrees, bad)
        for fn in BESSEL:
            with pytest.raises(ValueError):
                fn(degrees, x)
        for kind in OP_KINDS:
            with pytest.raises(ValueError):
                sphere_operator_eigenvalue(kind, x, 1.0, degrees)


class TestHarmonicIndexing:
    def test_flat_index(self):
        assert harmonic_index(0, 0) == 0
        assert harmonic_index(1, -1) == 1
        assert harmonic_index(1, 0) == 2
        assert harmonic_index(2, 2) == 8

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            harmonic_index(1, 2)

    def test_counts_and_degrees(self):
        assert num_harmonics(4) == 25
        degs = harmonic_degrees(3)
        assert degs.size == 16
        assert degs[0] == 0 and degs[-1] == 3


class TestSphericalHarmonics:
    def test_against_scipy(self):
        rng = np.random.default_rng(0)
        mu = rng.uniform(-0.99, 0.99, 20)
        phi = rng.uniform(0, 2 * np.pi, 20)
        theta = np.arccos(mu)
        for band_limit in (8, 60):
            mine = sph_harmonic_all(band_limit, mu, phi)
            for n in range(band_limit + 1):
                for m in range(-n, n + 1):
                    ref = sph_harm_y(n, m, theta, phi)
                    assert np.allclose(mine[harmonic_index(n, m)], ref, atol=1e-12)

    @pytest.mark.parametrize("band_limit", [1, 2, 24, 40])
    def test_legendre_equals_loop_reference(self, band_limit):
        # the per-order loop that the per-degree recurrence replaced: the
        # arithmetic is the same, so the table must be bitwise equal
        from impscat.specfun import _normalized_legendre

        mu = np.concatenate([np.random.default_rng(1).uniform(-1, 1, 7), [-1.0, 0.0, 1.0]])
        sin_t = np.sqrt(np.maximum(0.0, 1.0 - mu * mu))
        p = np.zeros((band_limit + 1, band_limit + 1, mu.size))
        p[0, 0] = 1.0 / np.sqrt(4.0 * np.pi)
        for m in range(1, band_limit + 1):
            p[m, m] = -np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * sin_t * p[m - 1, m - 1]
        for m in range(band_limit):
            p[m + 1, m] = np.sqrt(2.0 * m + 3.0) * mu * p[m, m]
        for m in range(band_limit + 1):
            for n in range(m + 2, band_limit + 1):
                a = np.sqrt((4.0 * n * n - 1.0) / (n * n - m * m))
                b = np.sqrt(((n - 1.0) ** 2 - m * m) / (4.0 * (n - 1.0) ** 2 - 1.0))
                p[n, m] = a * (mu * p[n - 1, m] - b * p[n - 2, m])
        np.testing.assert_array_equal(_normalized_legendre(band_limit, mu), p)

    def test_orthonormality(self):
        rule = gauss_product_rule(10)
        y = sph_harmonic_all(10, rule.mu, rule.phi)
        gram = np.conj(y) @ (rule.weights[:, None] * y.T)
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-12

    def test_single_point(self):
        v = sph_harmonic(0, 0, [0.0, 0.0, 1.0])
        assert v == pytest.approx(1.0 / np.sqrt(4 * np.pi))
        with pytest.raises(IndexError):
            sph_harmonic(1, 2, [0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            sph_harmonic(1, 0, [0.0, 0.0, 2.0])

    def test_dtheta_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        theta = rng.uniform(0.3, np.pi - 0.3, 12)
        phi = rng.uniform(0, 2 * np.pi, 12)
        h = 1e-6
        d_exact = sph_harmonic_all_dtheta(6, np.cos(theta), phi)
        d_fd = (sph_harmonic_all(6, np.cos(theta + h), phi)
                - sph_harmonic_all(6, np.cos(theta - h), phi)) / (2 * h)
        assert np.max(np.abs(d_exact - d_fd)) < 1e-6

    def test_dtheta_rejects_poles(self):
        with pytest.raises(ValueError):
            sph_harmonic_all_dtheta(4, np.array([1.0]), np.array([0.0]))

    def test_real_harmonics_orthonormal(self):
        rule = gauss_product_rule(8)
        y = real_sph_harmonic_all(8, rule.mu, rule.phi)
        gram = y @ (rule.weights[:, None] * y.T)
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-12


class TestQuadrature:
    def test_weights_sum_to_sphere_area(self):
        rule = gauss_product_rule(12)
        assert np.sum(rule.weights) == pytest.approx(4 * np.pi, rel=1e-14)

    def test_exact_for_harmonics(self):
        # rule of order N integrates Y_n^m exactly for 1 <= n <= 2N+1
        rule = gauss_product_rule(6)
        y = sph_harmonic_all(13, rule.mu, rule.phi)
        vals = y @ rule.weights
        assert abs(vals[0] - np.sqrt(4 * np.pi)) < 1e-13
        assert np.max(np.abs(vals[1:])) < 1e-12

    def test_points_unit_norm(self):
        rule = gauss_product_rule(5)
        assert np.allclose(np.linalg.norm(rule.points(), axis=1), 1.0)

    def test_rejects_trivial_order(self):
        with pytest.raises(ValueError):
            gauss_product_rule(0)

    def test_rule_immutable(self):
        rule = gauss_product_rule(3)
        with pytest.raises(ValueError):
            rule.weights[0] = 0.0


class TestAnalysisSynthesis:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        coeffs = rng.normal(size=num_harmonics(8)) + 1j * rng.normal(size=num_harmonics(8))
        rule = gauss_product_rule(8)
        y = sph_harmonic_all(8, rule.mu, rule.phi)
        values = coeffs @ y
        back = np.conj(y) @ (rule.weights * values)
        assert np.max(np.abs(back - coeffs)) < 1e-12
