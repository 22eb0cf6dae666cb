"""Layer operators on the sphere against quadrature and identity oracles."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import get_lapack_funcs, lu_factor

from impscat import layer_ops
from impscat.layer_ops import (
    ImpedanceField,
    ModalTable,
    NumericalError,
    SingularSystemError,
    admissibility_rule,
    assemble_combined_system,
    assemble_multiplication,
    default_coupling,
    multiplication_operator,
    sphere_operator_eigenvalue,
)
from impscat.specfun import (
    _complex_coefficients,
    _m_major,
    _synthesize,
    gauss_product_rule,
    harmonic_degrees,
    num_harmonics,
    real_sph_harmonic_all,
    sph_harmonic_all,
)

from oracle import csr_product, dense, harmonic_index, layer_eigenvalue, on_pattern


def variable_field(lam_band, seed):
    """A degree-``lam_band`` impedance: 3 plus a small random variation."""
    coeffs = 0.1 * np.random.default_rng(seed).normal(size=num_harmonics(lam_band))
    coeffs[0] = 3.0 * np.sqrt(4 * np.pi)
    return ImpedanceField(coefficients=coeffs)


def field_above(floor, variation, lam_band, seed):
    """A degree-``lam_band`` impedance: ``variation`` times random normal
    coefficients, shifted so that its least value on the admissibility
    grid is ``floor``."""
    coeffs = variation * np.random.default_rng(seed).normal(size=num_harmonics(lam_band))
    coeffs[0] = 0.0
    low = _synthesize(_complex_coefficients(coeffs), admissibility_rule(lam_band)).real.min()
    coeffs[0] = (floor - low) * np.sqrt(4 * np.pi)
    return ImpedanceField(coefficients=coeffs)


def system_for(lam, band_limit, k=1.0, a=1.0, eta=1.0):
    """The combined system of ``lam`` at (k, a, N) and coupling η, with its M_{iλ}."""
    return assemble_combined_system(ModalTable(k, a, band_limit, eta),
                                    multiplication_operator(lam, band_limit))


def legendre_bar(n, mu):
    """Fully normalized P̄_n (the m = 0 harmonic without the e^{imφ})."""
    from impscat.specfun import _normalized_legendre

    return _normalized_legendre(n, np.atleast_1d(np.asarray(mu, float)))[n, 0]


class TestEigenvalueOracles:
    def test_s0_funk_hecke_quadrature(self):
        # put x at the north pole: |x-y| = 2 sin(θ/2) and the φ integral
        # kills every order but m = 0, leaving a smooth 1-D integrand
        for n in range(6):
            def integrand(theta, n=n):
                return float(legendre_bar(n, np.cos(theta))[0]) * np.cos(theta / 2)

            val, _ = quad(integrand, 0.0, np.pi, limit=200)
            eig = val / float(legendre_bar(n, 1.0)[0])
            assert eig == pytest.approx(
                layer_eigenvalue("S0", 1.0, 1.0, n), rel=1e-10)

    def test_single_layer_quadrature(self):
        # same reduction for the Helmholtz kernel e^{ik|x-y|}/(4π|x-y|)
        k = 1.3
        for n in range(5):
            def re_part(theta, n=n):
                return float(legendre_bar(n, np.cos(theta))[0]) * np.cos(theta / 2) \
                    * np.cos(2 * k * np.sin(theta / 2))

            def im_part(theta, n=n):
                return float(legendre_bar(n, np.cos(theta))[0]) * np.cos(theta / 2) \
                    * np.sin(2 * k * np.sin(theta / 2))

            vr, _ = quad(re_part, 0.0, np.pi, limit=200)
            vi, _ = quad(im_part, 0.0, np.pi, limit=200)
            eig = (vr + 1j * vi) / float(legendre_bar(n, 1.0)[0])
            assert eig == pytest.approx(
                layer_eigenvalue("S", k, 1.0, n), rel=1e-8)

    def test_calderon_identity(self):
        # ST = K^2 - I per mode, pinning K' and T against the S oracle
        for k in (0.7, 1.0, 2.3):
            for a in (0.5, 1.0, 2.0):
                for n in range(12):
                    s = layer_eigenvalue("S", k, a, n)
                    t = layer_eigenvalue("T", k, a, n)
                    kk = layer_eigenvalue("K", k, a, n)
                    assert s * t == pytest.approx(kk * kk - 1.0, rel=1e-10, abs=1e-12)

    def test_k_equals_kprime(self):
        for n in range(8):
            assert layer_eigenvalue("K", 1.5, 1.0, n) == \
                layer_eigenvalue("Kp", 1.5, 1.0, n)

    def test_validation(self):
        with pytest.raises(ValueError):
            layer_eigenvalue("X", 1.0, 1.0, 0)
        with pytest.raises(ValueError):
            layer_eigenvalue("S", -1.0, 1.0, 0)
        with pytest.raises(ValueError):
            layer_eigenvalue("S", 1.0, 0.0, 0)


class TestImpedanceField:
    def test_constant_round_trip(self):
        lam = ImpedanceField.constant(2.5)
        assert lam.is_constant
        assert lam.constant_value == pytest.approx(2.5)
        rule = gauss_product_rule(6)
        assert np.allclose(lam.evaluate_on(rule), 2.5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ImpedanceField.constant(-1.0)
        coeffs = np.zeros(4)
        coeffs[2] = 1.0  # signed Y_1^0 profile with no offset
        with pytest.raises(ValueError):
            ImpedanceField(coefficients=coeffs)

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            ImpedanceField(coefficients=np.array([10.0]), bound=1.0)

    @pytest.mark.parametrize("order", [2, 4, 9])  # below, at and above N_λ = 4
    def test_evaluate_on_matches_real_basis(self, order):
        lam = variable_field(4, 6)
        rule = gauss_product_rule(order)
        dense = lam.coefficients @ real_sph_harmonic_all(4, rule.mu, rule.phi)
        np.testing.assert_allclose(lam.evaluate_on(rule), dense, rtol=0.0, atol=1e-13 * 3.0)

    def test_freezes_its_own_copy_of_coefficients(self):
        # the caller's array stays writeable, and a later write to it does
        # not reach the field
        coeffs = np.array([2.0, 0.0, 0.1, 0.0])
        lam = ImpedanceField(coefficients=coeffs)
        coeffs[0] = -5.0
        assert lam.coefficients.tolist() == [2.0, 0.0, 0.1, 0.0]
        with pytest.raises(ValueError, match="read-only"):
            lam.coefficients[0] = 0.0

    def test_coefficient_count_must_be_square(self):
        with pytest.raises(ValueError):
            ImpedanceField(coefficients=np.array([1.0, 0.0, 0.0, 0.0, 0.0]))

    @pytest.mark.parametrize("build", [
        lambda: ImpedanceField.constant(np.nan),
        lambda: ImpedanceField.constant(np.inf),
        lambda: ImpedanceField(np.array([np.nan, 0.0, 0.0, 0.0])),
    ])
    def test_non_finite_rejected(self, build):
        with pytest.raises(ValueError, match="finite"):
            build()


class TestMultiplication:
    def test_constant_is_diagonal(self):
        lam = ImpedanceField.constant(2.0)
        entries = dense(assemble_multiplication(lam.coefficients, 8))
        diag = np.diag(np.diag(entries))
        assert np.linalg.norm(entries - diag) / np.linalg.norm(diag) <= 1e-10
        assert np.allclose(np.diag(entries), 2j, atol=1e-12)

    def test_entry_against_projection_oracle(self):
        coeffs = np.zeros(4)
        coeffs[0] = 2.0 * np.sqrt(4 * np.pi)
        coeffs[2] = 0.5
        lam = ImpedanceField(coefficients=coeffs)
        entries = dense(assemble_multiplication(lam.coefficients, 4))
        # independent projection with a finer rule
        rule = gauss_product_rule(20)
        y = sph_harmonic_all(4, rule.mu, rule.phi)
        lam_vals = lam.evaluate_on(rule)
        j, l = harmonic_index(2, 1), harmonic_index(1, 1)
        oracle = 1j * np.sum(rule.weights * lam_vals * y[l] * np.conj(y[j]))
        assert entries[j, l] == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("band_limit,lam_band,rule_order", [
        *[(nb, nl, None) for nb in (4, 12, 24) for nl in (0, 1, 2, 4)],
        (12, 2, 20),  # the dense oracle on a rule above the default order
    ])
    def test_blocks_match_dense_product(self, band_limit, lam_band, rule_order):
        lam = variable_field(lam_band, band_limit + 10 * lam_band)
        rule = gauss_product_rule(rule_order or max(band_limit + lam_band, band_limit + 2))
        y = sph_harmonic_all(band_limit, rule.mu, rule.phi)
        product = 1j * (np.conj(y) * (rule.weights * lam.evaluate_on(rule))) @ y.T
        entries = dense(assemble_multiplication(lam.coefficients, band_limit))
        np.testing.assert_allclose(entries, product, rtol=0.0,
                                   atol=1e-13 * np.abs(product).max())
        degs = harmonic_degrees(band_limit)
        orders = np.arange(degs.size) - degs * (degs + 1)
        outside = np.abs(orders[:, None] - orders[None, :]) > lam_band
        assert np.all(entries[outside] == 0.0)
        # the Gaunt rule behind the band: no coupling beyond |n − n'| = N_λ
        gaunt = np.abs(degs[:, None] - degs[None, :]) > lam_band
        assert np.abs(product[gaunt]).max(initial=0.0) <= 1e-13 * np.abs(product).max()

    @settings(max_examples=40, deadline=None)
    @given(band_limit=st.integers(1, 20), lam_band=st.integers(0, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_m_major_band_holds_the_product(self, band_limit, lam_band, seed):
        lam = variable_field(lam_band, seed)
        rule = gauss_product_rule(max(band_limit + lam_band, band_limit + 2))
        y = sph_harmonic_all(band_limit, rule.mu, rule.phi)
        product = 1j * (np.conj(y) * (rule.weights * lam.evaluate_on(rule))) @ y.T
        mult = assemble_multiplication(lam.coefficients, band_limit)
        np.testing.assert_allclose(dense(mult), product, rtol=0.0,
                                   atol=1e-13 * np.abs(product).max())
        # every entry the Gaunt rule allows lies within the m-major band
        b, perm = mult.pattern.b, _m_major(band_limit)[0]
        degs = harmonic_degrees(band_limit)[perm]
        orders = perm - degs * (degs + 1)
        allowed = (np.abs(degs[:, None] - degs) <= lam_band) \
            & (np.abs(orders[:, None] - orders) <= lam_band)
        i, j = np.nonzero(allowed)
        assert np.abs(i - j).max() == b
        outside = np.abs(np.subtract.outer(np.arange(degs.size), np.arange(degs.size))) > b
        permuted = product[np.ix_(perm, perm)]
        assert np.abs(permuted[outside]).max(initial=0.0) <= 1e-13 * np.abs(product).max()
        reach = min(lam_band, band_limit)
        assert b <= reach * (2 * band_limit - reach + 2)  # the degree-major band

    @pytest.mark.parametrize("band_limit,lam_band,half_bandwidth", [
        (24, 2, 51), (12, 4, 52), (24, 4, 100), (48, 2, 99)])
    def test_m_major_half_bandwidth(self, band_limit, lam_band, half_bandwidth):
        mult = assemble_multiplication(variable_field(lam_band, 0).coefficients, band_limit)
        assert (mult.pattern.b, mult.size) == (half_bandwidth, num_harmonics(band_limit))
        lam = ImpedanceField.constant(2.0)
        assert multiplication_operator(lam, band_limit).pattern.b == 0

    def test_band_scatter_built_once_per_shape(self):
        # the Gaunt table and the pattern depend on (N, N_λ) only, not on λ
        layer_ops._gaunt_band.cache_clear()
        layer_ops._band_pattern.cache_clear()
        for seed in (0, 1):
            assemble_multiplication(variable_field(4, seed).coefficients, 12)
        for table in (layer_ops._gaunt_band, layer_ops._band_pattern):
            info = table.cache_info()
            assert (info.misses, info.hits) == (1, 1)

    @settings(max_examples=30, deadline=None)
    @given(band_limit=st.integers(0, 20), lam_band=st.integers(0, 6),
           seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 2.0))
    def test_linear_in_the_impedance(self, band_limit, lam_band, seed, t):
        # M(λ₁ + tλ₂) = M(λ₁) + t·M(λ₂): one table contracted with λ's coefficients
        lam1, lam2 = variable_field(lam_band, seed), variable_field(lam_band, seed + 1)
        combined = ImpedanceField(coefficients=lam1.coefficients + t * lam2.coefficients)
        whole = assemble_multiplication(combined.coefficients, band_limit).entries
        parts = (assemble_multiplication(lam1.coefficients, band_limit).entries
                 + t * assemble_multiplication(lam2.coefficients, band_limit).entries)
        np.testing.assert_allclose(whole, parts, rtol=0.0, atol=1e-14 * np.abs(whole).max())

    @pytest.mark.parametrize("band_limit", [4, 12])
    def test_signed_coefficients_give_the_difference(self, band_limit):
        # h = λ₁ − λ₂ takes both signs, so it is no impedance, yet M_{ih} is
        # M_{iλ₁} − M_{iλ₂}: the map is linear in the coefficients
        lam1, lam2 = variable_field(2, 4), variable_field(2, 5)
        h = lam1.coefficients - lam2.coefficients
        values = _synthesize(_complex_coefficients(h), admissibility_rule(2)).real
        assert values.min() < 0.0 < values.max()
        with pytest.raises(ValueError, match="nonnegative"):
            ImpedanceField(coefficients=h)
        first = assemble_multiplication(lam1.coefficients, band_limit).entries
        difference = first - assemble_multiplication(lam2.coefficients, band_limit).entries
        np.testing.assert_allclose(assemble_multiplication(h, band_limit).entries, difference,
                                   rtol=0.0, atol=1e-14 * np.abs(first).max())

    @pytest.mark.parametrize("band_limit,lam_band", [(12, 4), (3, 6), (24, 2)])
    def test_gaunt_table_is_read_only(self, band_limit, lam_band):
        gather, groups = layer_ops._gaunt_band(band_limit, lam_band)
        for arr in (gather, *(a for group in groups for a in group)):
            assert not arr.flags.writeable

    @pytest.mark.parametrize("band_limit,lam_band", [(12, 4), (3, 6), (24, 2), (8, 0)])
    def test_gaunt_table_is_compact(self, band_limit, lam_band):
        # one weight per degree L that carries order −q, never all (N_λ + 1)²
        gather, groups = layer_ops._gaunt_band(band_limit, lam_band)
        assert sum(len(gaunt) for _, gaunt in groups) == gather.size
        assert all(gaunt.dtype == np.float64 for _, gaunt in groups)
        assert sum(gaunt.size for _, gaunt in groups) <= (lam_band + 1) * gather.size


class TestCombinedSystem:
    def test_nonsingular_at_interior_resonances(self):
        # ka = 4.49... is near the first Dirichlet eigenvalue of the ball
        mult = multiplication_operator(ImpedanceField.constant(1.0), 12)
        for k in (1.0, 2.0, np.pi, 4.493409457909064):
            system = assemble_combined_system(ModalTable(k, 1.0, 12), mult)
            # the system is diagonal: its singular values are |entries|
            smin = np.abs(np.diag(dense(system))).min()
            assert smin > 1e-6

    def test_singularity_raised_without_coupling_balance(self):
        # eta = 0 is rejected outright, by the table that every system is
        # built from: the ansatz loses its uniqueness fix
        with pytest.raises(ValueError, match="eta must be nonzero"):
            ModalTable(1.0, 1.0, 8, 0.0)

    def test_linearity_in_impedance(self):
        a0, a1, a2 = (system_for(ImpedanceField.constant(lam0), 8) for lam0 in (0.0, 1.0, 2.0))
        assert np.allclose(a2.entries - a1.entries, a1.entries - a0.entries,
                           atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(k=st.floats(-1.0, 1.5).map(lambda e: 10.0 ** e), band_limit=st.integers(1, 30),
           lam_band=st.integers(0, 4), eta=st.sampled_from([None, 0.5, 3.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_impedance_step_is_the_column(self, k, band_limit, lam_band, eta, seed):
        # A(λ₀ + h) − A(λ₀) = M_{ih}·diag(column): the stability sweep's B
        # is the step of the system it perturbs, to the rounding of the two
        # systems that the difference is taken of
        rng = np.random.default_rng(seed)
        base, step = rng.normal(size=(2, num_harmonics(lam_band)))
        table = ModalTable(k, 1.0, band_limit, eta)
        perturbed, unperturbed = (
            assemble_combined_system(table, assemble_multiplication(coeffs, band_limit)).entries
            for coeffs in (base + step, base))
        mult_h = assemble_multiplication(step, band_limit)
        expected = mult_h.entries * table.column[mult_h.pattern.columns]
        assert np.linalg.norm(perturbed - unperturbed - expected) \
            <= 1e-14 * (np.linalg.norm(perturbed) + np.linalg.norm(unperturbed))

    def test_variable_constant_agreement(self):
        # a "variable" field that happens to be constant matches the fast path
        coeffs = np.zeros(4)
        coeffs[0] = 1.5 * np.sqrt(4 * np.pi)
        a_var = system_for(ImpedanceField(coefficients=coeffs), 8)
        a_const = system_for(ImpedanceField.constant(1.5), 8)
        assert np.allclose(a_var.entries, a_const.entries, atol=1e-10)

    def test_variable_system_builds_its_multiplication(self):
        # the system has the band of the M_{iλ} it is given; the odd Y_1^0
        # part keeps the diagonal at the constant λ₀ and couples n to n ± 1
        lam = ImpedanceField(coefficients=np.array([1.5 * np.sqrt(4 * np.pi), 0.0, 0.2, 0.0]))
        assert not lam.is_constant
        built = dense(assemble_combined_system(
            ModalTable(1.0, 1.0, 8, 1.0), assemble_multiplication(lam.coefficients, 8)))
        const = system_for(ImpedanceField.constant(1.5), 8)
        np.testing.assert_allclose(np.diag(built), np.diag(dense(const)),
                                   rtol=0.0, atol=1e-12)
        assert np.abs(built - np.diag(np.diag(built))).max() > 1e-3

    @pytest.mark.parametrize("k", [0.5, 1.0, 4.0])
    def test_diagonal_entries_as_through_the_pattern(self, k):
        # at b = 0 the pattern's columns and diagonal are the range 0..n:
        # the gather and scatter-add through them are bitwise the
        # elementwise diagonal formula of the traces c·h_n and c·k·h_n'
        table = ModalTable(k, 1.0, 24)
        mult = multiplication_operator(ImpedanceField.constant(1.3), 24)
        trace, dtrace = table.c * table.hn, table.c * table.k * table.hnp
        expected = mult.entries * (-2.0 * trace) + (1.0 - (2.0 * dtrace + 1.0))
        np.testing.assert_array_equal(assemble_combined_system(table, mult).entries,
                                      expected)

    def test_exterior_traces_satisfy_impedance_condition(self):
        # the assembled system is exactly the impedance condition applied
        # to the traces: A = I - (2 dtrace + 1) - 2 i lambda trace
        k, a, eta, lam0, nb = 1.0, 1.0, 1.0, 1.0, 10
        table = ModalTable(k, a, nb, eta)
        tr, dtr = table.c * table.hn, table.c * table.k * table.hnp
        system = system_for(ImpedanceField.constant(lam0), nb, k, a, eta)
        expected = 1.0 - ((2.0 * dtr + 1.0) + 1j * lam0 * 2.0 * tr)
        assert np.allclose(np.diag(dense(system)), expected, atol=1e-12)

    @pytest.mark.parametrize("k", [0.5, 1.0, 4.0, 20.0])
    def test_exterior_traces_match_layer_operators(self, k):
        # the Wronskian form equals the S/K/T/S0 form of both traces
        a, nb = 1.0, 40
        eta = default_coupling(k)
        table = ModalTable(k, a, nb)  # η defaults to max(1, k)
        tr, dtr = table.c * table.hn, table.c * table.k * table.hnp
        s, kk, t = (layer_eigenvalue(kind, k, a, np.arange(nb + 1))[harmonic_degrees(nb)]
                    for kind in ("S", "K", "T"))
        s0sq = sphere_operator_eigenvalue(a, harmonic_degrees(nb)) ** 2
        np.testing.assert_allclose(tr, 0.5 * (s + 1j * eta * (kk + 1.0) * s0sq),
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(dtr, 0.5 * (kk - 1.0 + 1j * eta * t * s0sq),
                                   rtol=1e-12, atol=0.0)


class TestBandPattern:
    """The kept-entry pattern of (N, N_λ) against dense oracles."""

    @settings(max_examples=40, deadline=None)
    @given(band_limit=st.integers(1, 20), lam_band=st.integers(0, 6),
           seed=st.integers(0, 2**32 - 1))
    @example(band_limit=3, lam_band=6, seed=0)  # 2b + 1 > (N+1)²: b = 15 of 16
    @example(band_limit=1, lam_band=6, seed=1)
    @example(band_limit=20, lam_band=0, seed=2)  # the identity pattern, b = 0
    def test_pattern_against_dense_oracles(self, band_limit, lam_band, seed):
        lam = variable_field(lam_band, seed)
        rule = gauss_product_rule(max(band_limit + lam_band, band_limit + 2))
        y = sph_harmonic_all(band_limit, rule.mu, rule.phi)
        product = 1j * (np.conj(y) * (rule.weights * lam.evaluate_on(rule))) @ y.T
        mult = assemble_multiplication(lam.coefficients, band_limit)
        np.testing.assert_allclose(dense(mult), product, rtol=0.0,
                                   atol=1e-13 * np.abs(product).max())
        system = system_for(lam, band_limit)
        assert system.pattern is mult.pattern
        rng = np.random.default_rng(seed)
        x = rng.normal(size=system.size) + 1j * rng.normal(size=system.size)
        for operator in (mult, system):
            expected = dense(operator) @ x
            np.testing.assert_allclose(operator.matvec(x), expected, rtol=0.0,
                                       atol=1e-14 * np.abs(expected).max())
        matrix = dense(system)
        solved, expected = system.solve(x), np.linalg.solve(matrix, x)
        assert np.linalg.norm(solved - expected) <= 1e-12 * np.linalg.norm(expected)
        assert system.one_norm() == pytest.approx(np.linalg.norm(matrix, 1), rel=1e-14)
        # the scatter fills LAPACK's band layout, AB[2b + i − j, j] = Â[i, j]
        # (Â in the m-major order) under b rows of fill-in, read diagonal by diagonal
        pattern, perm = system.pattern, _m_major(band_limit)[0]
        b, size, permuted = pattern.b, system.size, matrix[np.ix_(perm, perm)]
        assert np.unique(pattern.lu_dest).size == pattern.lu_dest.size
        work = np.zeros((3 * b + 1) * size, dtype=complex)
        work[pattern.lu_dest] = system.entries
        layout = np.zeros((3 * b + 1, size), dtype=complex)
        for offset in range(-b, b + 1):  # Â[i, i + offset]
            layout[2 * b - offset, max(offset, 0):size + min(offset, 0)] = \
                np.diagonal(permuted, offset)
        np.testing.assert_array_equal(work.reshape(3 * b + 1, size, order="F"), layout)

    @settings(max_examples=40, deadline=None)
    @given(band_limit=st.integers(1, 40), lam_band=st.integers(0, 4),
           seed=st.integers(0, 2**32 - 1))
    @example(band_limit=1, lam_band=1, seed=0)
    @example(band_limit=2, lam_band=4, seed=1)  # N_λ >= N
    @example(band_limit=40, lam_band=4, seed=2)
    @example(band_limit=24, lam_band=0, seed=3)  # b = 0: the product is entries * x
    def test_matvec_matches_compressed_sparse_rows(self, band_limit, lam_band, seed):
        pattern, size = layer_ops._band_pattern(band_limit, lam_band), num_harmonics(band_limit)
        # np.add.reduceat gives an empty segment its next entry, not 0: every
        # degree-major row is a nonempty segment that holds its diagonal once
        counts = np.diff(np.append(pattern.starts, pattern.columns.size))
        assert pattern.starts[0] == 0 and np.all(counts > 0)
        rows = np.repeat(np.arange(size), counts)
        np.testing.assert_array_equal(rows[pattern.columns == rows], np.arange(size))
        rng = np.random.default_rng(seed)
        entries = rng.normal(size=pattern.columns.size) + 1j * rng.normal(size=pattern.columns.size)
        system = layer_ops.BoundaryOperatorMatrix(entries=entries, pattern=pattern)
        x = rng.normal(size=size) + 1j * rng.normal(size=size)
        expected = csr_product(system, x)
        assert np.linalg.norm(system.matvec(x) - expected) <= 1e-15 * np.linalg.norm(expected)

    @pytest.mark.parametrize("band_limit", [0, 3, 24])
    def test_identity_pattern_is_one_range(self, band_limit):
        # N_λ = 0, from the general pattern code: columns, starts and
        # diagonal are each the range 0..n, and lu_dest takes entry r to its
        # m-major position
        pattern, size = layer_ops._band_pattern(band_limit, 0), num_harmonics(band_limit)
        assert pattern.b == 0
        for arr in (pattern.columns, pattern.starts, pattern.diagonal):
            np.testing.assert_array_equal(arr, np.arange(size))
        np.testing.assert_array_equal(pattern.lu_dest, np.argsort(_m_major(band_limit)[0]))
        assert not any(arr.flags.writeable for arr in pattern[1:])


class TestBandSolve:
    """The banded LU against a dense LU of the unpacked matrix, its oracle."""

    @pytest.mark.parametrize("band_limit", [12, 24])
    @pytest.mark.parametrize("lam_band", [1, 2, 4])
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 4.0])
    def test_matches_dense_lu(self, monkeypatch, k, lam_band, band_limit):
        # a field whose variation is large against its mean lies outside
        # the Jacobi certificate (q >= ½), so that the LU solves
        lam = field_above(0.1, 3.0, lam_band, band_limit + 10 * lam_band)
        system = system_for(lam, band_limit, k, eta=default_coupling(k))
        assert system._jacobi_certificate()[0] >= 0.5
        rng = np.random.default_rng(0)
        rhs = rng.normal(size=num_harmonics(band_limit)) \
            + 1j * rng.normal(size=num_harmonics(band_limit))
        # record the rcond that the solve's gbcon returns
        rconds = []

        def spying(names, arrays):
            gbtrf, gbcon, gbtrs = get_lapack_funcs(names, arrays)

            def gbcon_spy(*args):
                out = gbcon(*args)
                rconds.append(out[0])
                return out

            return gbtrf, gbcon_spy, gbtrs

        monkeypatch.setattr("scipy.linalg.get_lapack_funcs", spying)
        x = system.solve(rhs)
        matrix = dense(system)
        expected = np.linalg.solve(matrix, rhs)
        assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)
        # 2b + 1 > (N+1)² at N = 12, N_λ = 4: the matvec still holds
        np.testing.assert_allclose(system.matvec(x), matrix @ x, rtol=0.0,
                                   atol=1e-12 * np.abs(matrix @ x).max())
        lu, _ = lu_factor(matrix)
        gecon = get_lapack_funcs("gecon", (lu,))
        assert rconds == [pytest.approx(gecon(lu, np.linalg.norm(matrix, 1))[0], rel=1e-12)]

    @pytest.mark.parametrize("band_limit", [12, 24])
    @pytest.mark.parametrize("k", [0.5, 1.0, 4.0])
    def test_diagonal_division_matches_banded_lu(self, k, band_limit):
        system = system_for(ImpedanceField.constant(1.0), band_limit, k,
                            eta=default_coupling(k))
        perm = _m_major(band_limit)[0]
        diagonal = np.diag(dense(system))[perm]  # in the m-major order
        assert system.pattern.b == 0
        rng = np.random.default_rng(1)
        rhs = rng.normal(size=diagonal.size) + 1j * rng.normal(size=diagonal.size)
        # the reference: LAPACK's banded LU of the same b = 0 system, whose
        # band storage is the diagonal as one row
        gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (diagonal, rhs))
        lu, piv, info = gbtrf(np.asfortranarray(diagonal[None, :]), 0, 0)
        assert info == 0
        expected = np.empty_like(rhs)
        expected[perm] = gbtrs(lu, 0, 0, rhs[perm], piv)[0]
        x = system.solve(rhs)
        assert np.max(np.abs(x - expected) / np.abs(expected)) <= 1e-15
        # the certificate of a diagonal: q = 0, and its bound is the exact
        # 1-norm rcond min|d| / max|d|, against LAPACK's estimate
        size = np.abs(diagonal)
        q, bound = system._jacobi_certificate()
        assert (q, bound) == (0.0, size.min() / size.max())
        matrix = dense(system)
        dense_lu, _ = lu_factor(matrix)
        gecon = get_lapack_funcs("gecon", (dense_lu,))
        assert bound == pytest.approx(gecon(dense_lu, np.linalg.norm(matrix, 1))[0], rel=1e-12)

    def test_entries_must_fill_their_pattern(self):
        pattern = layer_ops._band_pattern(4, 1)
        with pytest.raises(ValueError, match="entries on a pattern of"):
            layer_ops.BoundaryOperatorMatrix(entries=np.ones(pattern.columns.size - 1, complex),
                                             pattern=pattern)

    def test_zero_diagonal_raises_without_warning(self):
        system = on_pattern(np.zeros((num_harmonics(4),) * 2), 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystemError, match="rcond = 0.000e"):
                system.solve(np.ones(num_harmonics(4), complex))

    def test_entries_are_a_read_only_view(self):
        # the system freezes a view: the caller's array stays writeable
        entries = np.ones(num_harmonics(2), complex)
        system = layer_ops.BoundaryOperatorMatrix(entries=entries,
                                                  pattern=layer_ops._band_pattern(2, 0))
        assert entries.flags.writeable
        assert not system.entries.flags.writeable
        assert np.shares_memory(system.entries, entries)


class TestCertifiedSolve:
    """Jacobi-certified GMRES and the banded LU against a dense solve."""

    @settings(max_examples=40, deadline=None)
    @given(k=st.floats(-3.0, 2.0).map(lambda e: 10.0 ** e), band_limit=st.integers(1, 40),
           lam_band=st.integers(1, 6), variation=st.floats(-8.0, 2.0).map(lambda e: 10.0 ** e),
           seed=st.integers(0, 2**32 - 1))
    @example(k=1.0, band_limit=24, lam_band=2, variation=0.1, seed=0)  # certified
    @example(k=1.0, band_limit=12, lam_band=2, variation=0.1, seed=0)  # below the crossover
    @example(k=1.0, band_limit=24, lam_band=2, variation=10.0, seed=0)  # q >= ½
    def test_either_path_matches_dense_solve(self, k, band_limit, lam_band, variation, seed):
        system = system_for(field_above(1.0, variation, lam_band, seed), band_limit, k,
                            eta=default_coupling(k))
        factored = []

        def spying(names, arrays):
            factored.append(names)
            return get_lapack_funcs(names, arrays)

        rng = np.random.default_rng(seed)
        rhs = rng.normal(size=system.size) + 1j * rng.normal(size=system.size)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("scipy.linalg.get_lapack_funcs", spying)
            x = system.solve(rhs)
        matrix = dense(system)
        expected = np.linalg.solve(matrix, rhs)
        assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)
        q, bound = system._jacobi_certificate()
        certified = q < 0.5 and bound >= 1e-12 and system.size >= layer_ops._GMRES_MIN_SIZE
        # the LU (gbtrf) runs exactly where the certificate fails or the system is small
        assert bool(factored) == (not certified)
        if q < 1.0:
            rcond = 1.0 / (np.linalg.norm(matrix, 1) * np.linalg.norm(np.linalg.inv(matrix), 1))
            assert bound <= rcond * (1.0 + 1e-12)

    @pytest.mark.parametrize("scale", [1e-13, 1.0, 1e300])
    def test_gmres_scales_with_its_rhs(self, scale):
        # the rhs is scaled by max|rhs| first: no norm overflows at 1e300
        system = system_for(variable_field(2, 3), 16)
        assert system._jacobi_certificate()[0] < 0.5
        rhs = np.random.default_rng(5).normal(size=system.size) + 0j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = system.solve(scale * rhs)
        np.testing.assert_allclose(x, scale * system.solve(rhs), rtol=1e-13, atol=0.0)

    def test_lu_fallback_reuses_the_certificate_sums(self, monkeypatch):
        # the 1-norm that gbcon takes is the largest of the column sums the
        # certificate made: one pass of them per solve
        system = system_for(field_above(0.1, 3.0, 2, 44), 24)
        passes, bincount = [], np.bincount

        def counted(*args, **kwargs):
            passes.append(args)
            return bincount(*args, **kwargs)

        monkeypatch.setattr(np, "bincount", counted)
        system.solve(np.ones(system.size, complex))
        assert len(passes) == 1 and system._jacobi_certificate()[0] >= 0.5

    def test_zero_rhs_solves_to_zero(self):
        system = system_for(variable_field(2, 3), 16)
        assert not np.any(system.solve(np.zeros(system.size, complex)))


class TestDiagonalHelpers:
    def test_diagonal_expansion(self):
        diag = layer_eigenvalue("S0", 1.0, 2.0, np.arange(4))[harmonic_degrees(3)]
        assert diag.size == num_harmonics(3)
        assert diag[0] == pytest.approx(4.0)
        assert np.allclose(diag[1:4], 4.0 / 3.0)

    def test_static_single_layer_eigenvalue(self):
        degrees = np.arange(40)
        for a in (1e-3, 0.5, 1.0, 2.0):
            np.testing.assert_array_equal(sphere_operator_eigenvalue(a, degrees),
                                          2.0 * a / (2 * degrees + 1))
            assert sphere_operator_eigenvalue(a, 3) == 2.0 * a / 7
        for a, n in [(0.0, 1), (-1.0, 1), (1.0, -1), (1.0, 1.5), (1.0, np.array([0, 2.5]))]:
            with pytest.raises(ValueError):
                sphere_operator_eigenvalue(a, n)

    def test_default_coupling(self):
        assert default_coupling(0.5) == 1.0
        assert default_coupling(3.0) == 3.0


class TestHankelOverflow:
    # y_n(ka) grows like (2n−1)!!/(ka)^{n+1}: its first overflow is named by
    # a typed error, not left as NaN for the solve to find
    @pytest.mark.parametrize("k,band_limit,degree", [(1.0, 150, 150), (1e-3, 120, 65)])
    def test_modal_table_names_the_first_overflow(self, k, band_limit, degree):
        with pytest.raises(NumericalError, match=f"degree {degree}, ka = {k:g}$"):
            ModalTable(k, 1.0, band_limit)
        table = ModalTable(k, 1.0, degree - 1)
        for values in (table.jn, table.jnp, table.hn, table.hnp):
            assert np.all(np.isfinite(values))

    @pytest.mark.parametrize("a", [6.8e153, 1e154, 1e300])
    def test_modal_table_names_an_overflowing_s0_squared(self, a):
        # S₀² = (2a/(2n + 1))² is largest at degree 0; no numpy warning first
        with pytest.raises(NumericalError,
                           match=re.escape(f"overflows at degree 0, a = {a:g}") + "$"):
            ModalTable(1.0, a, 4)
        assert np.isfinite(sphere_operator_eigenvalue(6.7e153, 0) ** 2)

    def test_modal_table_names_an_overflowing_coefficient(self):
        # below the S₀² overflow, c_n = ika²(j_n + iηS₀²k j_n') overflows
        # first: the table raises on construction, before any solve
        with pytest.raises(NumericalError,
                           match=re.escape("c_n overflows at degree 0, ka = 6.7e+153") + "$"):
            ModalTable(1.0, 6.7e153, 4)

    def test_eigenvalues_raise_past_the_overflow(self):
        with pytest.raises(NumericalError):
            layer_eigenvalue("S", 1.0, 1.0, 150)
