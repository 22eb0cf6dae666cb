"""Stability bounds, sweeps, exterior lower bound, reconstruction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impscat import forward, layer_ops, specfun, stability
from impscat.forward import (
    WaveContext,
    mie_farfield,
    scattered_on_shell,
    solve_density,
    solve_farfield,
)
from impscat.geometry import ObstacleGeometry
from impscat.layer_ops import ImpedanceField, admissibility_rule
from impscat.specfun import gauss_product_rule, real_sph_harmonic_all
from impscat.stability import (
    bushuyev_theta,
    fit_dominating_curve,
    lemma51_check,
    prop41_bound,
    prop41_stationary_s,
    reconstruct,
    stability_sweep,
    theorem13_bound,
)

from oracle import prop41_intermediate

GEOM = ObstacleGeometry()
ZHAT = np.array([0.0, 0.0, 1.0])
CTX = WaveContext(k=1.0, omega=ZHAT)


class TestClosedFormBounds:
    def test_theorem13_exact_value(self):
        val = theorem13_bound(np.exp(-np.e**2), 1.0, 1.0)
        assert abs(val - 1.0 / (2.0 - np.log(4.0))) <= 1e-14

    def test_theorem13_monotone_in_sigma(self):
        delta = 1e-30  # inner ratio well below 1/e
        assert theorem13_bound(delta, 1.0, 2.0) < theorem13_bound(delta, 1.0, 1.0)

    def test_theorem13_vanishes_with_delta(self):
        vals = [theorem13_bound(d, 1.0, 1.0) for d in (1e-20, 1e-100, 1e-300)]
        assert vals[0] > vals[1] > vals[2]

    def test_theorem13_domain_errors(self):
        with pytest.raises(ValueError):
            theorem13_bound(1.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            theorem13_bound(0.9, 1.0, 1.0)  # |ln delta| < 1

    def test_bushuyev_exact_value(self):
        assert abs(bushuyev_theta(np.exp(-np.e))
                   - 1.0 / (2.0 + np.log(2.0))) <= 1e-14

    def test_bushuyev_limit_and_monotonicity(self):
        assert bushuyev_theta(1.0 - 1e-12) == pytest.approx(0.5, abs=1e-9)
        deltas = np.array([0.5, 1e-2, 1e-8, 1e-30])
        thetas = [bushuyev_theta(d) for d in deltas]
        assert all(a > b for a, b in zip(thetas, thetas[1:]))
        with pytest.raises(ValueError):
            bushuyev_theta(1.0)

    def test_prop41_stationarity_residual(self):
        c, sigma, n = 1.0, 1.0, 1e-6
        s = prop41_stationary_s(c, sigma, n)
        resid = -sigma * c / s ** (sigma + 1.0) + n * np.exp(s)
        assert abs(resid) <= 1e-12

    def test_prop41_419_inequality(self):
        # s_hat >= ln(C/N)/(sigma + 2) whenever s_hat >= 1
        for c, sigma, n in [(1.0, 1.0, 1e-6), (5.0, 0.5, 1e-4), (2.0, 2.0, 1e-8)]:
            s = prop41_stationary_s(c, sigma, n)
            if s >= 1.0:
                assert s >= np.log(c / n) / (sigma + 2.0)

    def test_prop41_bound_limits(self):
        assert prop41_bound(1e-300, 1.0, 1.0) < 1e-2
        assert prop41_bound(1e-3, 1.0, 1.0) > prop41_bound(1e-30, 1.0, 1.0)
        with pytest.raises(ValueError):
            prop41_bound(1.5, 1.0, 1.0)

    def test_prop41_intermediate_minimized_near_shat(self):
        c, sigma, n = 1.0, 1.0, 1e-6
        s = prop41_stationary_s(c, sigma, n)
        delta_star = np.exp(-s)
        val_star = prop41_intermediate(delta_star, n, c, sigma)
        for mult in (0.5, 2.0):
            assert val_star <= prop41_intermediate(delta_star**mult, n, c, sigma)


def l2_distance(fa, fb):
    """‖u∞ − v∞‖_{L²(S²)} of two far fields on one rule."""
    return float(np.sqrt(np.real(fa.rule.integrate(np.abs(fa.samples - fb.samples) ** 2))))


def far_field_delta(lam_a, lam_b, band_limit, ctx=CTX):
    """The L² distance between the far fields of two impedances, each solved
    on its own."""
    rule = gauss_product_rule(band_limit)
    fa, fb = (solve_farfield(ctx, GEOM, lam, band_limit, rule) for lam in (lam_a, lam_b))
    return l2_distance(fa, fb)


class TestFarFieldDelta:
    def test_identical_fields(self):
        lam = ImpedanceField.constant(1.0)
        assert far_field_delta(lam, lam, band_limit=12) <= 1e-14

    def test_symmetry(self):
        a = ImpedanceField.constant(1.0)
        b = ImpedanceField.constant(1.3)
        d1 = far_field_delta(a, b, band_limit=12)
        d2 = far_field_delta(b, a, band_limit=12)
        assert d1 == pytest.approx(d2, rel=1e-12)

    def test_matches_mie_pipeline(self):
        d = far_field_delta(ImpedanceField.constant(1.0),
                            ImpedanceField.constant(1.1), band_limit=24)
        rule = gauss_product_rule(24)
        d_mie = l2_distance(mie_farfield(CTX, 1.0, 1.0, rule=rule),
                            mie_farfield(CTX, 1.0, 1.1, rule=rule))
        assert abs(d - d_mie) <= 1e-8


class TestImpedanceSupDistance:
    def test_matches_dense_difference(self):
        # dsup = ε·sup|h| on the order-64 grid, against a dense synthesis of h
        rng = np.random.default_rng(3)
        shape = np.concatenate([[0.0], 0.1 * rng.uniform(-1, 1, 8)])
        rule = gauss_product_rule(64)
        expected = np.max(np.abs(shape @ real_sph_harmonic_all(2, rule.mu, rule.phi)))
        sweep = stability_sweep(ImpedanceField.constant(1.0), shape, [0.5, 1.0],
                                CTX, GEOM, band_limit=12)
        for rec in sweep.records:
            assert rec.dsup == pytest.approx(rec.epsilon * expected, rel=1e-14)


SHAPE = np.array([0.0, 0.0, 1.0, 0.0])  # real Y_1^0 profile


class TestStabilitySweep:
    def test_sweep_contract(self):
        sweep = stability_sweep(ImpedanceField.constant(1.0), SHAPE,
                                [0.0125, 0.025, 0.05, 0.1], CTX, GEOM,
                                band_limit=16)
        eps = [r.epsilon for r in sweep.records]
        deltas = [r.delta for r in sweep.records]
        assert eps == sorted(eps)
        assert all(a < b + 1e-10 for a, b in zip(deltas, deltas[1:]))
        assert sweep.dominated()

    def test_zero_perturbation_record(self):
        sweep = stability_sweep(ImpedanceField.constant(1.0), SHAPE,
                                [0.0, 0.05], CTX, GEOM, band_limit=12)
        rec0 = sweep.records[0]
        assert rec0.delta == 0.0 and rec0.dsup == 0.0

    def test_band_limit_refinement_stability(self):
        eps = [0.0125, 0.025, 0.05, 0.1]
        sw16 = stability_sweep(ImpedanceField.constant(1.0), SHAPE, eps,
                               CTX, GEOM, band_limit=16)
        sw24 = stability_sweep(ImpedanceField.constant(1.0), SHAPE, eps,
                               CTX, GEOM, band_limit=24)
        for a, b in zip(sw16.records, sw24.records):
            assert abs(a.delta - b.delta) <= 1e-8 * max(1e-30, b.delta)
        ratio = sw16.c_fit / sw24.c_fit
        assert 0.5 <= ratio <= 2.0

    def test_ring_tables_built_once_per_sweep(self):
        # a sweep builds each (N, rule order) ring table it meets once, and a
        # second sweep at the same sizes builds none
        shape = np.zeros(9)
        shape[[2, 4, 6, 8]] = [0.3, -0.2, 0.25, 0.1]

        def sweep():
            stability_sweep(ImpedanceField.constant(1.5), shape,
                            [0.0125, 0.025, 0.05, 0.1], CTX, GEOM, band_limit=24)

        specfun._ring_legendre.cache_clear()
        sweep()
        info = specfun._ring_legendre.cache_info()
        assert info.misses == info.currsize < info.maxsize
        sweep()
        assert specfun._ring_legendre.cache_info().misses == info.misses

    def test_negative_impedance_rejected(self, monkeypatch):
        # every λ₀ + εh is checked in one synthesis before any solve, with
        # the error its ImpedanceField raises: λ₀ + 0.5h < 0 near a pole, and
        # a NaN in h is not finite
        base = ImpedanceField.constant(0.01)
        cases = [(SHAPE, [0.05, 0.5]), (np.array([0.0, 0.0, np.nan, 0.0]), [1e-3, 0.1])]
        expected = []
        for shape, eps_list in cases:
            with pytest.raises(ValueError) as raised:
                stability._perturbed(base, shape, eps_list[-1])
            expected.append(str(raised.value))
        assert expected == ["impedance must be nonnegative on the boundary",
                            "impedance coefficients must be finite"]

        def no_solve(*args, **kwargs):
            raise AssertionError("solved or built a field before the family was checked")

        for name in ("solve_density", "assemble_combined_system", "multiplication_operator",
                     "_perturbed"):
            monkeypatch.setattr(stability, name, no_solve)
        for (shape, eps_list), message in zip(cases, expected):
            with pytest.raises(ValueError, match=f"^{message}$"):
                stability_sweep(base, shape, eps_list, CTX, GEOM, band_limit=12)

    @pytest.mark.parametrize("eps_list", [[], [0.0], [-0.1], [-0.1, 0.1],
                                          [0.1, np.nan], [0.1, np.inf]])
    def test_bad_eps_list_rejected_before_solving(self, monkeypatch, eps_list):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran before eps_list was checked")

        monkeypatch.setattr(stability, "solve_farfield", no_solve)
        monkeypatch.setattr(stability, "solve_density", no_solve)
        with pytest.raises(ValueError, match="eps_list"):
            stability_sweep(ImpedanceField.constant(1.0), SHAPE, eps_list,
                            CTX, GEOM, band_limit=12)

    @pytest.mark.parametrize("shape", [[0.0], [], np.zeros(4)])
    def test_zero_shape_rejected_before_solving(self, monkeypatch, shape):
        # a shape with no nonzero coefficient perturbs nothing, so no record
        # can constrain the fit: refused as input, as an eps_list with no
        # positive size is
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran before the shape was checked")

        monkeypatch.setattr(stability, "solve_farfield", no_solve)
        monkeypatch.setattr(stability, "solve_density", no_solve)
        with pytest.raises(ValueError, match="nonzero coefficient"):
            stability_sweep(ImpedanceField.constant(1.0), shape, [0.05, 0.1],
                            CTX, GEOM, band_limit=12)

    def test_fit_requires_admissible_records(self):
        with pytest.raises(RuntimeError):
            fit_dominating_curve([0.9], [1.0])

    def test_sup_distance(self):
        # h = 1: λ₀ + εh is a constant 0.25 above λ₀
        sweep = stability_sweep(ImpedanceField.constant(1.0), [np.sqrt(4 * np.pi)], [0.25],
                                CTX, GEOM, band_limit=12)
        assert sweep.records[0].dsup == pytest.approx(0.25, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(eps=st.floats(1e-14, 1e-6))
    def test_delta_over_eps_is_the_slope(self, eps):
        # δ = ε·δ'(0) + O(ε²): δ is taken from α(ε) − α₀ itself, so it keeps
        # its digits down to ε = 1e-14, where a difference of two far fields
        # has cancelled most of them
        sweep = stability_sweep(ImpedanceField.constant(1.0), SHAPE, [eps], CTX, GEOM,
                                band_limit=12)
        assert sweep.records[0].delta / eps == pytest.approx(sweep.delta_slope, rel=1e-6)

    @pytest.mark.parametrize("base", [
        [np.sqrt(4 * np.pi), 0.0, 0.0, 0.0],
        [4.0, 0.0, 0.3, 0.0, 0.0, 0.0, 0.2, 0.0, 0.0],
    ], ids=["constant", "variable"])
    def test_matches_per_eps_solves(self, base):
        # the shifted family against a solve from scratch at every ε
        shape = np.array([0.0, 0.3, -0.2, 0.1, 0.25, -0.1, 0.2, 0.0, 0.1])
        eps = [0.0, 0.0125, 0.025, 0.05, 0.1]
        lam = ImpedanceField(np.array(base))
        sweep = stability_sweep(lam, shape, eps, CTX, GEOM, band_limit=24)
        assert sweep.records[0].delta == 0.0
        for rec in sweep.records[1:]:
            perturbed = stability._perturbed(lam, shape, rec.epsilon)
            assert rec.delta == pytest.approx(far_field_delta(lam, perturbed, 24), rel=1e-11)

    def test_every_eps_checked_once(self, monkeypatch):
        # each ε's density meets the residual and tail checks of a solve, and
        # a shifted solution off by 1e-6 fails the residual check
        checked = []

        def counting(residual, rhs, density):
            checked.append(density.size)
            return forward._checked_tail(residual, rhs, density)

        monkeypatch.setattr(stability, "_checked_tail", counting)
        stability_sweep(ImpedanceField.constant(1.0), SHAPE, [0.0, 0.025, 0.05, 0.1],
                        CTX, GEOM, band_limit=12)
        assert checked == [169] * 3
        gmres = layer_ops._gmres
        monkeypatch.setattr(stability, "_gmres", lambda *args: [
            None if y is None else y * (1.0 + 1e-6) for y in gmres(*args)])
        with pytest.raises(RuntimeError, match="residual"):
            stability_sweep(ImpedanceField.constant(1.0), SHAPE, [0.05], CTX, GEOM,
                            band_limit=12)

    def test_unconverged_shift_takes_its_own_solve(self, monkeypatch):
        # at ε = 1e3 the shift 1/ε is too close to C's spectrum for the cap of
        # GMRES steps: that ε alone is solved from scratch
        ctx = WaveContext(k=4.0, omega=np.array([0.0, 0.6, 0.8]))
        shape = 0.3 * np.random.default_rng(0).uniform(-1, 1, 25)
        shape[0] = 2.0 * np.sqrt(4 * np.pi)
        lam = ImpedanceField.constant(0.5)
        solved = []

        def recording(ctx, geom, field, *args, **kwargs):
            solved.append(field)
            return solve_density(ctx, geom, field, *args, **kwargs)

        monkeypatch.setattr(stability, "solve_density", recording)
        sweep = stability_sweep(lam, shape, [1e-3, 1e3], ctx, GEOM, band_limit=24)
        assert [f.coefficients[0] for f in solved] == \
            [lam.coefficients[0], lam.coefficients[0] + 1e3 * shape[0]]
        for rec in sweep.records:
            expected = far_field_delta(lam, stability._perturbed(lam, shape, rec.epsilon), 24, ctx)
            assert rec.delta == pytest.approx(expected, rel=1e-11)


class TestLemma51:
    def test_ladder_past_the_float_range_rejected_before_any_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solved before the candidates were checked")

        monkeypatch.setattr(stability, "solve_density", refuse)
        with pytest.raises(ValueError, match=r"4\*max\(r_candidates\) = inf"):
            lemma51_check(CTX, GEOM, ImpedanceField.constant(1.0), [2.0, 1e308])

    def test_neumann_sphere(self):
        rep = lemma51_check(CTX, GEOM, ImpedanceField.constant(0.0),
                            [2.0, 4.0, 8.0, 16.0, 32.0], band_limit=16)
        assert rep.found
        # scattered sup decays like 1/r in the far zone
        far = rep.radii >= 10.0
        slope = np.polyfit(np.log(rep.radii[far]),
                           np.log(rep.sup_scattered[far]), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.1)

    def test_triangle_inequality_consistency(self):
        rep = lemma51_check(CTX, GEOM, ImpedanceField.constant(1.0),
                            [2.0, 4.0, 8.0], band_limit=16)
        # wherever sup|u^s| <= 1/2, the candidate radius must qualify
        if np.all(rep.sup_scattered[rep.radii >= 4.0] <= 0.5):
            assert rep.qualifying_radius <= 4.0

    @pytest.mark.parametrize("candidates", [[2.0, 4.0, 8.0], [1.3, 1.6]])
    def test_equals_per_radius_reference(self, candidates):
        # the whole ladder is one stacked shell call; each radius alone is the reference
        ctx = WaveContext(k=1.3, omega=np.array([0.0, 0.6, 0.8]))
        lam = ImpedanceField(coefficients=np.array([4.0, 0, 0.3, 0, 0, 0, 0.2, 0, 0]))
        rep = lemma51_check(ctx, GEOM, lam, candidates, band_limit=20)
        wave = solve_density(ctx, GEOM, lam, band_limit=20)
        rule = gauss_product_rule(24)
        ladder = np.unique(np.concatenate(
            [candidates, np.geomspace(min(candidates), 4.0 * max(candidates), 24)]))
        sups, mins = [], []
        for r in ladder:
            us = scattered_on_shell(wave, ctx, GEOM, r, rule)
            sups.append(np.max(np.abs(us)))
            mins.append(np.min(np.abs(ctx.incident(r * rule.points()) + us)))
        qualifying = next((r0 for r0 in sorted(candidates)
                           if np.all(np.array(mins)[ladder >= r0] >= 0.5)), np.inf)
        np.testing.assert_array_equal(rep.radii, ladder)
        np.testing.assert_array_equal(rep.sup_scattered, sups)
        assert rep.qualifying_radius == qualifying


class TestReconstruction:
    def test_fixed_point_of_prior(self):
        rule = gauss_product_rule(12)
        prior = ImpedanceField.constant(0.8)
        data = solve_farfield(CTX, GEOM, prior, band_limit=12, rule=rule)
        rep = reconstruct(data, CTX, GEOM, prior, reg=1e-6, band_limit=12,
                          degree=2)
        assert rep.misfit <= 1e-10

    def test_inverse_crime_round_trip(self):
        rule = gauss_product_rule(12)
        data = solve_farfield(CTX, GEOM, ImpedanceField.constant(1.0),
                              band_limit=12, rule=rule)
        rep = reconstruct(data, CTX, GEOM, ImpedanceField.constant(0.5),
                          reg=1e-6, band_limit=12, degree=2)
        recovered = rep.impedance.coefficients[0] / np.sqrt(4 * np.pi)
        assert abs(recovered - 1.0) <= 1e-3
        assert rep.misfit <= 1e-8

    def test_noise_amplification(self):
        rule = gauss_product_rule(12)
        data = solve_farfield(CTX, GEOM, ImpedanceField.constant(1.0),
                              band_limit=12, rule=rule)
        rng = np.random.default_rng(4)
        noisy = data.samples * (1.0 + 0.01 * (rng.normal(size=data.samples.shape)
                                              + 1j * rng.normal(size=data.samples.shape)))
        from impscat.forward import FarField

        rep = reconstruct(FarField(samples=noisy, rule=rule), CTX, GEOM,
                          ImpedanceField.constant(0.5), reg=1e-6, band_limit=12,
                          degree=2)
        recovered = rep.impedance.coefficients[0] / np.sqrt(4 * np.pi)
        # noise floor prevents exact recovery but the constant stays sane
        assert abs(recovered - 1.0) > 1e-6
        assert abs(recovered - 1.0) < 0.5

    @settings(max_examples=200, deadline=None)
    @given(degree=st.integers(0, 6), data=st.data())
    def test_clipped_field_always_constructs(self, degree, data):
        # the clip shifts λ up by its minimum on the grid ImpedanceField
        # checks, so every coefficient vector the optimizer tries is admissible
        size = (degree + 1) ** 2
        vec = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=size,
                                          max_size=size)))
        vals = specfun._synthesize(specfun._complex_coefficients(vec),
                                   admissibility_rule(degree)).real
        lam = stability._clip_field(vec, vals)
        np.testing.assert_array_equal(lam.coefficients[1:], vec[1:])

    def test_invalid_regularization(self):
        rule = gauss_product_rule(12)
        data = solve_farfield(CTX, GEOM, ImpedanceField.constant(1.0),
                              band_limit=12, rule=rule)
        with pytest.raises(ValueError):
            reconstruct(data, CTX, GEOM, ImpedanceField.constant(1.0), reg=0.0)
