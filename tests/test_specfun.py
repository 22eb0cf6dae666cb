"""Special-function primitives against independent oracles."""

import dataclasses

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import sph_harm_y

from impscat.specfun import (
    QuadratureRule,
    _complex_coefficients,
    _m_major,
    _ring_legendre,
    _synthesize,
    gauss_product_rule,
    harmonic_degrees,
    num_harmonics,
    real_sph_harmonic_all,
    sph_bessel_j,
    sph_bessel_y,
    sph_hankel1,
    plane_wave_amplitudes,
    sph_harmonic_all,
)

from oracle import OP_KINDS, harmonic_index, layer_eigenvalue


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


def mp_radial(kind, n, x, derivative):
    """(value, x · its derivative in x) of j_n, y_n, j_n' or y_n' at 40 digits,
    from the order n ± ½ Bessel functions, f_n' = f_{n−1} − (n+1) f_n/x and
    the ODE x² f'' + 2x f' + (x² − n(n+1)) f = 0."""
    bessel = mp.besselj if kind == "j" else mp.bessely
    with mp.workdps(40):
        x = mp.mpf(x)

        def f(m):
            return mp.sqrt(mp.pi / (2 * x)) * bessel(m + mp.mpf(1) / 2, x)

        value = f(n)
        slope = f(n - 1) - (n + 1) * value / x if n else -f(1)
        if not derivative:
            return value, x * slope
        curvature = -2 * slope / x - (1 - n * (n + 1) / x**2) * value
        return slope, x * curvature


class TestAgainstMpmath:
    # relative 1e-12, except that near a zero of the function only the value
    # at an argument within 1e-13 relative of x (about n roundings of the
    # recurrence) is attainable: the bound adds 1e-13·|x f'(x)|
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 300), log_x=st.floats(-3.0, np.log10(200.0)),
           kind=st.sampled_from(["j", "y"]), derivative=st.booleans())
    # the top degree of a backward pass, at the turning point n = x
    @example(n=31, log_x=np.log10(31.0), kind="j", derivative=True)
    @example(n=63, log_x=np.log10(63.0), kind="j", derivative=True)
    def test_matches_mpmath(self, n, log_x, kind, derivative):
        x = 10.0 ** log_x
        fn = sph_bessel_j if kind == "j" else sph_bessel_y
        got = fn(n, x, derivative=derivative)
        exact, scale = mp_radial(kind, n, x, derivative)
        if abs(exact) > np.finfo(float).max:  # y_n past overflow, and y_n'
            assert got == (np.inf if derivative else -np.inf)
        elif abs(exact) > 1e-290:
            assert abs(got - exact) <= 1e-12 * abs(exact) + 1e-13 * abs(scale)

    @pytest.mark.parametrize("x", [1e-3, 200.0])
    @pytest.mark.parametrize("derivative", [False, True])
    def test_finite_or_signed_infinity_to_degree_1000(self, x, derivative):
        n = np.arange(1001)
        j = sph_bessel_j(n, x, derivative=derivative)
        assert np.all(np.isfinite(j)) and j[-1] == 0.0  # underflows to 0
        y = sph_bessel_y(n, x, derivative=derivative)
        assert not np.any(np.isnan(y))
        past = ~np.isfinite(y)
        assert past.any() and np.all(past[np.argmax(past):])  # from one degree on
        assert np.all(y[past] == (np.inf if derivative else -np.inf))
        h = sph_hankel1(n, x, derivative=derivative)
        np.testing.assert_array_equal(h.real, j)
        np.testing.assert_array_equal(h.imag, y)


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
            scalar = np.array([layer_eigenvalue(kind, k, a, int(n)) for n in degrees])
            assert np.array_equal(layer_eigenvalue(kind, k, a, degrees), scalar)

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
                layer_eigenvalue(kind, x, 1.0, degrees)


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

    def test_plane_wave_amplitudes_at_a_direction(self):
        # 4π iⁿ conj(Y_n^m(ω)); at the north pole only m = 0 is nonzero
        amps = plane_wave_amplitudes([0.0, 0.0, 1.0], 3)
        assert amps[0] == pytest.approx(np.sqrt(4 * np.pi), rel=1e-15)
        degs = harmonic_degrees(3)
        zonal = np.flatnonzero(np.arange(16) == degs * (degs + 1))
        np.testing.assert_allclose(amps[zonal], 4 * np.pi * 1j ** np.arange(4)
                                   * np.sqrt((2 * np.arange(4) + 1) / (4 * np.pi)),
                                   rtol=1e-14)
        assert np.all(np.delete(amps, zonal) == 0.0)
        with pytest.raises(ValueError, match="unit vector"):
            plane_wave_amplitudes([0.0, 0.0, 2.0], 3)

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

    @pytest.mark.parametrize("order", [1, 2, 5, 24, 64])
    def test_rule_is_keyed_by_its_order(self, order):
        # the explicit Gauss-Legendre x uniform-azimuth construction
        mu_1d, w_1d = np.polynomial.legendre.leggauss(order + 1)
        n_phi = 2 * order + 2
        phi_1d = 2.0 * np.pi * np.arange(n_phi) / n_phi
        rule = QuadratureRule(order)
        np.testing.assert_array_equal(rule.mu, np.repeat(mu_1d, n_phi))
        np.testing.assert_array_equal(rule.phi, np.tile(phi_1d, order + 1))
        np.testing.assert_array_equal(rule.weights,
                                      np.repeat(w_1d, n_phi) * (2.0 * np.pi / n_phi))
        assert (rule.rings, rule.azimuths, rule.npts) == (order + 1, n_phi, (order + 1) * n_phi)
        for arr in (rule.mu, rule.phi, rule.weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert rule == gauss_product_rule(order)
        assert [f.name for f in dataclasses.fields(QuadratureRule) if f.init] == ["order"]
        with pytest.raises(ValueError, match="band limit must be >= 1"):
            QuadratureRule(0)


def dense_on_rule(coeffs, rule, basis):
    """The oracle coeffs @ basis(N, rule.mu, rule.phi), a few rings at a time."""
    band_limit = int(np.sqrt(coeffs.size)) - 1
    ring = 2 * (rule.order + 1)
    step = ring * max(1, 2_000_000 // (coeffs.size * ring))  # <= 32 MB per block
    return np.concatenate([coeffs @ basis(band_limit, rule.mu[i:i + step], rule.phi[i:i + step])
                           for i in range(0, rule.npts, step)])


@st.composite
def synthesis_cases(draw):
    """(N, rule order): the order below N (aliasing fold), equal to it, or above."""
    band_limit = draw(st.integers(0, 64))
    order = draw(st.one_of(st.integers(1, max(1, band_limit - 1)),
                           st.just(max(1, band_limit)),
                           st.integers(band_limit + 1, band_limit + 8)))
    return band_limit, order


class TestRingSynthesis:
    @settings(max_examples=30, deadline=None)
    @given(case=synthesis_cases(), seed=st.integers(0, 2**32 - 1), real=st.booleans())
    def test_matches_dense_product(self, case, seed, real):
        # tolerance relative to ||c||_2, the field's L²(S²) norm
        band_limit, order = case
        rule = gauss_product_rule(order)
        rng = np.random.default_rng(seed)
        coeffs = rng.uniform(-1.0, 1.0, num_harmonics(band_limit))
        if real:
            mine = _synthesize(_complex_coefficients(coeffs), rule).real
            oracle = dense_on_rule(coeffs, rule, real_sph_harmonic_all)
        else:
            coeffs = coeffs + 1j * rng.uniform(-1.0, 1.0, coeffs.size)
            mine = _synthesize(coeffs, rule)
            oracle = dense_on_rule(coeffs, rule, sph_harmonic_all)
        assert np.max(np.abs(mine - oracle)) <= 1e-13 * np.linalg.norm(coeffs)

    def test_rows_synthesized_independently(self):
        rng = np.random.default_rng(4)
        coeffs = rng.normal(size=(2, 3, num_harmonics(6))) + 0j
        rule = gauss_product_rule(5)
        both = _synthesize(coeffs, rule)
        assert both.shape == (2, 3, rule.npts)
        np.testing.assert_array_equal(both[1, 2], _synthesize(coeffs[1, 2], rule))

    def test_rejects_bad_input(self):
        rule = gauss_product_rule(4)
        with pytest.raises(ValueError):
            _synthesize(np.ones(5), rule)  # not (N+1)^2 coefficients
        with pytest.raises(ValueError):
            _complex_coefficients(np.ones(0))


class TestCachedTables:
    def test_built_once_and_read_only(self):
        rule, table, (perm, bounds) = gauss_product_rule(6), _ring_legendre(4, 6), _m_major(4)
        assert gauss_product_rule(6) is rule
        assert _ring_legendre(4, 6) is table and _m_major(4)[0] is perm
        for arr in (rule.mu, rule.phi, rule.weights, table, perm, bounds):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_ring_table_is_the_harmonics_at_phi_zero(self):
        rule = gauss_product_rule(7)
        mu = rule.mu[::16]
        dense = sph_harmonic_all(5, mu, np.zeros(8)).real
        np.testing.assert_array_equal(_ring_legendre(5, 7), dense[_m_major(5)[0]])

    def test_m_major_order(self):
        perm, bounds = _m_major(3)
        degs = harmonic_degrees(3)[perm]
        orders = perm - degs * (degs + 1)
        assert sorted(perm) == list(range(16))
        assert list(zip(orders, degs)) == sorted(zip(orders, degs))
        for m in range(-3, 4):
            assert set(orders[bounds[m + 3]:bounds[m + 4]]) == {m}


class TestAnalysisSynthesis:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        coeffs = rng.normal(size=num_harmonics(8)) + 1j * rng.normal(size=num_harmonics(8))
        rule = gauss_product_rule(8)
        y = sph_harmonic_all(8, rule.mu, rule.phi)
        values = coeffs @ y
        back = np.conj(y) @ (rule.weights * values)
        assert np.max(np.abs(back - coeffs)) < 1e-12
