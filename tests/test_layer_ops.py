"""Layer operators on the sphere against quadrature and identity oracles."""

import numpy as np
import pytest
from scipy.integrate import quad

from impscat.geometry import ObstacleGeometry
from impscat.layer_ops import (
    AliasingError,
    ImpedanceField,
    SingularSystemError,
    assemble_combined_system,
    assemble_multiplication,
    default_coupling,
    exterior_trace_operators,
    sphere_operator_diagonal,
    sphere_operator_eigenvalue,
)
from impscat.specfun import (
    gauss_product_rule,
    harmonic_index,
    num_harmonics,
    real_sph_harmonic_all,
    sph_harmonic_all,
)


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
                sphere_operator_eigenvalue("S0", 1.0, 1.0, n), rel=1e-10)

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
                sphere_operator_eigenvalue("S", k, 1.0, n), rel=1e-8)

    def test_calderon_identity(self):
        # ST = K^2 - I per mode, pinning K' and T against the S oracle
        for k in (0.7, 1.0, 2.3):
            for a in (0.5, 1.0, 2.0):
                for n in range(12):
                    s = sphere_operator_eigenvalue("S", k, a, n)
                    t = sphere_operator_eigenvalue("T", k, a, n)
                    kk = sphere_operator_eigenvalue("K", k, a, n)
                    assert s * t == pytest.approx(kk * kk - 1.0, rel=1e-10, abs=1e-12)

    def test_k_equals_kprime(self):
        for n in range(8):
            assert sphere_operator_eigenvalue("K", 1.5, 1.0, n) == \
                sphere_operator_eigenvalue("Kp", 1.5, 1.0, n)

    def test_validation(self):
        with pytest.raises(ValueError):
            sphere_operator_eigenvalue("X", 1.0, 1.0, 0)
        with pytest.raises(ValueError):
            sphere_operator_eigenvalue("S", -1.0, 1.0, 0)
        with pytest.raises(ValueError):
            sphere_operator_eigenvalue("S", 1.0, 0.0, 0)


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

    def test_sup_norm(self):
        lam = ImpedanceField.constant(3.0, bound=5.0)
        assert lam.sup_norm() == pytest.approx(3.0)


class TestMultiplication:
    def test_constant_is_diagonal(self):
        lam = ImpedanceField.constant(2.0)
        mult = assemble_multiplication(lam, 8)
        diag = np.diag(np.diag(mult.entries))
        assert np.linalg.norm(mult.entries - diag) / np.linalg.norm(diag) <= 1e-10
        assert np.allclose(np.diag(mult.entries), 2j, atol=1e-12)

    def test_entry_against_projection_oracle(self):
        coeffs = np.zeros(4)
        coeffs[0] = 2.0 * np.sqrt(4 * np.pi)
        coeffs[2] = 0.5
        lam = ImpedanceField(coefficients=coeffs)
        mult = assemble_multiplication(lam, 4)
        # independent projection with a finer rule
        rule = gauss_product_rule(20)
        y = sph_harmonic_all(4, rule.mu, rule.phi)
        lam_vals = lam.evaluate_on(rule)
        j, l = harmonic_index(2, 1), harmonic_index(1, 1)
        oracle = 1j * np.sum(rule.weights * lam_vals * y[l] * np.conj(y[j]))
        assert mult.entries[j, l] == pytest.approx(oracle, abs=1e-10)

    def test_aliasing_guard(self):
        coeffs = np.zeros(9)
        coeffs[0] = np.sqrt(4 * np.pi)
        coeffs[6] = 0.1
        lam = ImpedanceField(coefficients=coeffs)
        with pytest.raises(AliasingError):
            assemble_multiplication(lam, 8, rule=gauss_product_rule(4))


class TestCombinedSystem:
    def test_nonsingular_at_interior_resonances(self):
        # ka = 4.49... is near the first Dirichlet eigenvalue of the ball
        geom = ObstacleGeometry()
        lam = ImpedanceField.constant(1.0)
        for k in (1.0, 2.0, np.pi, 4.493409457909064):
            system = assemble_combined_system(k, geom, lam, default_coupling(k), 12)
            smin = np.linalg.svd(system.entries, compute_uv=False)[-1]
            assert smin > 1e-6

    def test_singularity_raised_without_coupling_balance(self):
        # eta = 0 is rejected outright: the ansatz loses its uniqueness fix
        geom = ObstacleGeometry()
        with pytest.raises(ValueError):
            assemble_combined_system(1.0, geom, ImpedanceField.constant(1.0), 0.0, 8)

    def test_linearity_in_impedance(self):
        geom = ObstacleGeometry()
        a0 = assemble_combined_system(1.0, geom, ImpedanceField.constant(0.0), 1.0, 8)
        a1 = assemble_combined_system(1.0, geom, ImpedanceField.constant(1.0), 1.0, 8)
        a2 = assemble_combined_system(1.0, geom, ImpedanceField.constant(2.0), 1.0, 8)
        assert np.allclose(a2.entries - a1.entries, a1.entries - a0.entries,
                           atol=1e-12)

    def test_variable_constant_agreement(self):
        # a "variable" field that happens to be constant matches the fast path
        geom = ObstacleGeometry()
        coeffs = np.zeros(4)
        coeffs[0] = 1.5 * np.sqrt(4 * np.pi)
        lam_var = ImpedanceField(coefficients=coeffs)
        lam_const = ImpedanceField.constant(1.5)
        a_var = assemble_combined_system(1.0, geom, lam_var, 1.0, 8)
        a_const = assemble_combined_system(1.0, geom, lam_const, 1.0, 8)
        assert np.allclose(a_var.entries, a_const.entries, atol=1e-10)

    def test_perturbed_geometry_unsupported(self):
        coeffs = np.zeros(9)
        coeffs[6] = 0.05
        geom = ObstacleGeometry(perturbation=coeffs)
        with pytest.raises(NotImplementedError):
            assemble_combined_system(1.0, geom, ImpedanceField.constant(1.0), 1.0, 8)

    def test_exterior_traces_satisfy_impedance_condition(self):
        # the assembled system is exactly the impedance condition applied
        # to the traces: A = I - (2 dtrace + 1) - 2 i lambda trace
        k, a, eta, lam0, nb = 1.0, 1.0, 1.0, 1.0, 10
        tr, dtr = exterior_trace_operators(k, a, eta, nb)
        geom = ObstacleGeometry()
        system = assemble_combined_system(
            k, geom, ImpedanceField.constant(lam0), eta, nb)
        expected = 1.0 - ((2.0 * dtr + 1.0) + 1j * lam0 * 2.0 * tr)
        assert np.allclose(np.diag(system.entries), expected, atol=1e-12)

    @pytest.mark.parametrize("k", [0.5, 1.0, 4.0, 20.0])
    def test_exterior_traces_match_layer_operators(self, k):
        # the Wronskian form equals the S/K/T/S0 form of both traces
        a, nb = 1.0, 40
        eta = default_coupling(k)
        tr, dtr = exterior_trace_operators(k, a, eta, nb)
        s, kk, t, s0 = (sphere_operator_diagonal(kind, k, a, nb)
                        for kind in ("S", "K", "T", "S0"))
        np.testing.assert_allclose(tr, 0.5 * (s + 1j * eta * (kk + 1.0) * s0**2),
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(dtr, 0.5 * (kk - 1.0 + 1j * eta * t * s0**2),
                                   rtol=1e-12, atol=0.0)


class TestDiagonalHelpers:
    def test_diagonal_expansion(self):
        diag = sphere_operator_diagonal("S0", 1.0, 2.0, 3)
        assert diag.size == num_harmonics(3)
        assert diag[0] == pytest.approx(4.0)
        assert np.allclose(diag[1:4], 4.0 / 3.0)

    def test_default_coupling(self):
        assert default_coupling(0.5) == 1.0
        assert default_coupling(3.0) == 3.0
