"""Layer operators on the sphere against quadrature and identity oracles."""

import warnings
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import get_lapack_funcs, lu_factor

from impscat import layer_ops
from impscat.layer_ops import (
    BoundaryOperatorMatrix,
    ImpedanceField,
    ModalTable,
    NumericalError,
    SingularSystemError,
    assemble_combined_system,
    assemble_multiplication,
    default_coupling,
    exterior_trace_operators,
    multiplication_operator,
    sphere_operator_eigenvalue,
)
from impscat.specfun import (
    _m_major,
    gauss_product_rule,
    harmonic_degrees,
    num_harmonics,
    real_sph_harmonic_all,
    sph_harmonic_all,
)

from oracle import harmonic_index, layer_eigenvalue


def unpack_band(entries):
    """Dense degree-major A of band storage ``entries`` over the m-major
    order P, entries[b + i − j, j] = A[P[i], P[j]]."""
    b, n = entries.shape[0] // 2, entries.shape[1]
    i, j = np.nonzero(np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= b)
    perm = _m_major(isqrt(n) - 1)[0]
    dense = np.zeros((n, n), dtype=entries.dtype)
    dense[perm[i], perm[j]] = entries[b + i - j, j]
    return dense


def variable_field(lam_band, seed):
    """A degree-``lam_band`` impedance: 3 plus a small random variation."""
    coeffs = 0.1 * np.random.default_rng(seed).normal(size=num_harmonics(lam_band))
    coeffs[0] = 3.0 * np.sqrt(4 * np.pi)
    return ImpedanceField(coefficients=coeffs)


def system_for(lam, band_limit, k=1.0, a=1.0, eta=1.0):
    """The combined system of ``lam`` at (k, a, N), with its M_{iλ}."""
    return assemble_combined_system(ModalTable(k, a, band_limit),
                                    multiplication_operator(lam, band_limit), eta)


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
        entries = unpack_band(assemble_multiplication(lam, 8).entries)
        diag = np.diag(np.diag(entries))
        assert np.linalg.norm(entries - diag) / np.linalg.norm(diag) <= 1e-10
        assert np.allclose(np.diag(entries), 2j, atol=1e-12)

    def test_entry_against_projection_oracle(self):
        coeffs = np.zeros(4)
        coeffs[0] = 2.0 * np.sqrt(4 * np.pi)
        coeffs[2] = 0.5
        lam = ImpedanceField(coefficients=coeffs)
        entries = unpack_band(assemble_multiplication(lam, 4).entries)
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
        dense = 1j * (np.conj(y) * (rule.weights * lam.evaluate_on(rule))) @ y.T
        mult = assemble_multiplication(lam, band_limit)
        entries = unpack_band(mult.entries)
        np.testing.assert_allclose(entries, dense, rtol=0.0,
                                   atol=1e-13 * np.abs(dense).max())
        degs = harmonic_degrees(band_limit)
        orders = np.arange(degs.size) - degs * (degs + 1)
        outside = np.abs(orders[:, None] - orders[None, :]) > lam_band
        assert np.all(entries[outside] == 0.0)
        # the Gaunt rule behind the band: no coupling beyond |n − n'| = N_λ
        gaunt = np.abs(degs[:, None] - degs[None, :]) > lam_band
        assert np.abs(dense[gaunt]).max(initial=0.0) <= 1e-13 * np.abs(dense).max()

    @settings(max_examples=40, deadline=None)
    @given(band_limit=st.integers(1, 20), lam_band=st.integers(0, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_m_major_band_holds_the_product(self, band_limit, lam_band, seed):
        lam = variable_field(lam_band, seed)
        rule = gauss_product_rule(max(band_limit + lam_band, band_limit + 2))
        y = sph_harmonic_all(band_limit, rule.mu, rule.phi)
        dense = 1j * (np.conj(y) * (rule.weights * lam.evaluate_on(rule))) @ y.T
        entries = assemble_multiplication(lam, band_limit).entries
        np.testing.assert_allclose(unpack_band(entries), dense, rtol=0.0,
                                   atol=1e-13 * np.abs(dense).max())
        # every entry the Gaunt rule allows lies within the m-major band
        b, perm = entries.shape[0] // 2, _m_major(band_limit)[0]
        degs = harmonic_degrees(band_limit)[perm]
        orders = perm - degs * (degs + 1)
        allowed = (np.abs(degs[:, None] - degs) <= lam_band) \
            & (np.abs(orders[:, None] - orders) <= lam_band)
        i, j = np.nonzero(allowed)
        assert np.abs(i - j).max() == b
        outside = np.abs(np.subtract.outer(np.arange(degs.size), np.arange(degs.size))) > b
        permuted = dense[np.ix_(perm, perm)]
        assert np.abs(permuted[outside]).max(initial=0.0) <= 1e-13 * np.abs(dense).max()
        reach = min(lam_band, band_limit)
        assert b <= reach * (2 * band_limit - reach + 2)  # the degree-major band

    @pytest.mark.parametrize("band_limit,lam_band,half_bandwidth", [
        (24, 2, 51), (12, 4, 52), (24, 4, 100), (48, 2, 99)])
    def test_m_major_half_bandwidth(self, band_limit, lam_band, half_bandwidth):
        entries = assemble_multiplication(variable_field(lam_band, 0), band_limit).entries
        assert entries.shape == (2 * half_bandwidth + 1, num_harmonics(band_limit))
        lam = ImpedanceField.constant(2.0)
        assert multiplication_operator(lam, band_limit).entries.shape[0] == 1

    def test_band_scatter_built_once_per_shape(self):
        # the scatter indices depend on (N, N_λ) only, not on λ
        layer_ops._band_scatter.cache_clear()
        for seed in (0, 1):
            assemble_multiplication(variable_field(4, seed), 12)
        info = layer_ops._band_scatter.cache_info()
        assert (info.misses, info.hits) == (1, 1)


class TestCombinedSystem:
    def test_nonsingular_at_interior_resonances(self):
        # ka = 4.49... is near the first Dirichlet eigenvalue of the ball
        mult = multiplication_operator(ImpedanceField.constant(1.0), 12)
        for k in (1.0, 2.0, np.pi, 4.493409457909064):
            system = assemble_combined_system(ModalTable(k, 1.0, 12), mult,
                                              default_coupling(k))
            # the system is diagonal: its singular values are |entries|
            smin = np.abs(system.entries).min()
            assert smin > 1e-6

    def test_singularity_raised_without_coupling_balance(self):
        # eta = 0 is rejected outright: the ansatz loses its uniqueness fix
        with pytest.raises(ValueError):
            assemble_combined_system(ModalTable(1.0, 1.0, 8),
                                     multiplication_operator(ImpedanceField.constant(1.0), 8),
                                     0.0)

    def test_linearity_in_impedance(self):
        a0, a1, a2 = (system_for(ImpedanceField.constant(lam0), 8) for lam0 in (0.0, 1.0, 2.0))
        assert np.allclose(a2.entries - a1.entries, a1.entries - a0.entries,
                           atol=1e-12)

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
        built = unpack_band(assemble_combined_system(
            ModalTable(1.0, 1.0, 8), assemble_multiplication(lam, 8), 1.0).entries)
        const = system_for(ImpedanceField.constant(1.5), 8)
        np.testing.assert_allclose(np.diag(built), np.diag(unpack_band(const.entries)),
                                   rtol=0.0, atol=1e-12)
        assert np.abs(built - np.diag(np.diag(built))).max() > 1e-3

    def test_exterior_traces_satisfy_impedance_condition(self):
        # the assembled system is exactly the impedance condition applied
        # to the traces: A = I - (2 dtrace + 1) - 2 i lambda trace
        k, a, eta, lam0, nb = 1.0, 1.0, 1.0, 1.0, 10
        tr, dtr = exterior_trace_operators(ModalTable(k, a, nb), eta)
        system = system_for(ImpedanceField.constant(lam0), nb, k, a, eta)
        expected = 1.0 - ((2.0 * dtr + 1.0) + 1j * lam0 * 2.0 * tr)
        assert np.allclose(np.diag(unpack_band(system.entries)), expected, atol=1e-12)

    @pytest.mark.parametrize("k", [0.5, 1.0, 4.0, 20.0])
    def test_exterior_traces_match_layer_operators(self, k):
        # the Wronskian form equals the S/K/T/S0 form of both traces
        a, nb = 1.0, 40
        eta = default_coupling(k)
        table = ModalTable(k, a, nb)
        tr, dtr = exterior_trace_operators(table, eta)
        s, kk, t = (layer_eigenvalue(kind, k, a, np.arange(nb + 1))[harmonic_degrees(nb)]
                    for kind in ("S", "K", "T"))
        np.testing.assert_allclose(tr, 0.5 * (s + 1j * eta * (kk + 1.0) * table.s0sq),
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(dtr, 0.5 * (kk - 1.0 + 1j * eta * t * table.s0sq),
                                   rtol=1e-12, atol=0.0)


class TestBandSolve:
    """The banded LU against a dense LU of the unpacked matrix, its oracle."""

    @pytest.mark.parametrize("band_limit", [12, 24])
    @pytest.mark.parametrize("lam_band", [1, 2, 4])
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 4.0])
    def test_matches_dense_lu(self, monkeypatch, k, lam_band, band_limit):
        lam = variable_field(lam_band, band_limit + 10 * lam_band)
        system = system_for(lam, band_limit, k, eta=default_coupling(k))
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
        dense = unpack_band(system.entries)
        expected = np.linalg.solve(dense, rhs)
        assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)
        # 2b + 1 > (N+1)² at N = 12, N_λ = 4: the matvec still holds
        np.testing.assert_allclose(system.matvec(x), dense @ x, rtol=0.0,
                                   atol=1e-12 * np.abs(dense @ x).max())
        lu, _ = lu_factor(dense)
        gecon = get_lapack_funcs("gecon", (lu,))
        assert rconds == [pytest.approx(gecon(lu, np.linalg.norm(dense, 1))[0], rel=1e-12)]

    @pytest.mark.parametrize("band_limit", [12, 24])
    @pytest.mark.parametrize("k", [0.5, 1.0, 4.0])
    def test_diagonal_division_matches_banded_lu(self, k, band_limit):
        system = system_for(ImpedanceField.constant(1.0), band_limit, k,
                            eta=default_coupling(k))
        diagonal = system.entries[0]
        assert system.entries.shape[0] == 1
        rng = np.random.default_rng(1)
        rhs = rng.normal(size=diagonal.size) + 1j * rng.normal(size=diagonal.size)
        # the reference: LAPACK's banded LU of the same b = 0 system
        gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (system.entries, rhs))
        lu, piv, info = gbtrf(np.asfortranarray(system.entries), 0, 0)
        assert info == 0
        perm = _m_major(band_limit)[0]
        expected = np.empty_like(rhs)
        expected[perm] = gbtrs(lu, 0, 0, rhs[perm], piv)[0]
        x = system.solve(rhs)
        assert np.max(np.abs(x - expected) / np.abs(expected)) <= 1e-15
        # the exact 1-norm rcond of a diagonal against LAPACK's estimate
        dense = unpack_band(system.entries)
        dense_lu, _ = lu_factor(dense)
        gecon = get_lapack_funcs("gecon", (dense_lu,))
        assert layer_ops._diagonal_rcond(diagonal) == pytest.approx(
            gecon(dense_lu, np.linalg.norm(dense, 1))[0], rel=1e-12)

    def test_zero_diagonal_raises_without_warning(self):
        system = BoundaryOperatorMatrix(entries=np.zeros((1, num_harmonics(4)), complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystemError, match="rcond = 0.000e"):
                system.solve(np.ones(num_harmonics(4), complex))


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

    def test_eigenvalues_raise_past_the_overflow(self):
        with pytest.raises(NumericalError):
            layer_eigenvalue("S", 1.0, 1.0, 150)
