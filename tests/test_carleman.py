"""Weighted-inequality machinery: Carleman, continuation, chains."""

import re

import numpy as np
import pytest

from impscat import carleman
from impscat.carleman import (
    CarlemanSetup,
    TestFunction,
    carleman_sides,
    chain_lower_bound,
    continuation_check,
    continuation_constants,
    corollary_thresholds,
    lemma42_witness,
    random_test_suite,
    three_sphere_check,
)
from impscat.geometry import ObstacleGeometry

from oracle import point_source

SETUP = CarlemanSetup(x0=np.zeros(3), rho=1.0, d=1.0)


def sides(v, setup, lam, tau):
    """carleman_sides for one function at one (λ, τ)."""
    [[res]] = carleman_sides([v], setup, [(lam, tau)])
    return res


def threshold_pairs(setup, multiples=(1.0, 2.0, 4.0)):
    return [(mult * setup.lambda_threshold, mult * setup.tau_threshold)
            for mult in multiples]


class TestTestFunctions:
    @pytest.mark.parametrize("v", [
        TestFunction.plane_wave(1.7, [0.3, -0.2, 0.9], 0.4),
        TestFunction.quadratic(0.5, [1.0, -2.0, 0.3],
                               [[1.0, 0.2, 0.0], [0.2, -0.5, 0.1], [0.0, 0.1, 2.0]]),
        point_source(1.2, [0.0, 0.0, -4.0]),
    ])
    def test_laplacian_matches_central_differences(self, v):
        rng = np.random.default_rng(7)
        pts = rng.uniform(1.0, 2.0, size=(100, 3))
        h = 1e-4
        lap_fd = np.zeros(pts.shape[0])
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = h
            lap_fd += (v.value(pts + e) - 2 * v.value(pts) + v.value(pts - e)) / h**2
        assert np.max(np.abs(lap_fd - v.laplacian(pts))) < 1e-5 * max(
            1.0, np.max(np.abs(v.laplacian(pts))))

    def test_gradient_matches_central_differences(self):
        v = TestFunction.plane_wave(2.0, [0.0, 1.0, 0.0])
        pts = np.array([[1.0, 0.5, -0.2]])
        h = 1e-6
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = h
            fd = (v.value(pts + e) - v.value(pts - e)) / (2 * h)
            assert fd[0] == pytest.approx(v.gradient(pts)[0, axis], abs=1e-8)


class TestCarlemanSetup:
    def test_parameters(self):
        assert SETUP.m == 1.0
        assert SETUP.M >= 1.0
        assert SETUP.psi_ref == pytest.approx(2 * np.log(2.0))
        # the unperturbed thresholds, to the bit
        assert SETUP.lambda_threshold == 6.0 * SETUP.M**3 / SETUP.m**4
        assert SETUP.tau_threshold == 88.0 * SETUP.M**6 / SETUP.m**4

    @pytest.mark.parametrize("rho,d", [(1.0, 1.0), (2.0, 2.0), (0.5, 3.0), (5e-5, 1.0),
                                       (1e-5, 1.0), (1e-10, 1.0)])
    def test_thresholds_stored_to_the_bit(self, rho, d):
        # the numpy-float thresholds equal the Python-float formulas
        s = CarlemanSetup(x0=np.zeros(3), rho=rho, d=d)
        assert s.lambda_threshold == 6.0 * s.M**3 / s.m**4
        assert s.tau_threshold == 88.0 * s.M**6 / s.m**4

    def test_small_annulus_m(self):
        s = CarlemanSetup(x0=np.zeros(3), rho=2.0, d=2.0)
        assert s.m == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            CarlemanSetup(x0=np.zeros(3), rho=-1.0, d=1.0)

    @pytest.mark.parametrize("rho, d", [(np.nan, 1.0), (1.0, np.nan),
                                        (np.inf, 1.0), (1.0, np.inf)])
    def test_non_finite_radii_rejected(self, rho, d):
        # NaN passes a "<= 0" check; inf makes m = 0 and the thresholds divide by it
        with pytest.raises(ValueError, match="positive and finite"):
            CarlemanSetup(x0=np.zeros(3), rho=rho, d=d)

    def test_volume_rule_measures_annulus(self):
        pts, w = SETUP.volume[:2]
        vol = 4.0 / 3.0 * np.pi * (2.0**3 - 1.0**3)
        assert np.sum(w) == pytest.approx(vol, rel=1e-12)
        r = np.linalg.norm(pts, axis=1)
        assert np.all((r > 1.0) & (r < 2.0))

    def test_boundary_rule_measures_spheres(self):
        _, w = SETUP.boundary[:2]
        assert np.sum(w) == pytest.approx(4 * np.pi * (1.0 + 4.0), rel=1e-12)

    @pytest.mark.parametrize("rho, d, big_m", [
        (1.0, 1.0, 19.38629436111989),
        (2.0, 2.0, 7.386294361119891),
        (0.5, 3.0, 63.89182029811063),
    ])
    def test_closed_form_m(self, rho, d, big_m):
        # M = ψ_ref + 3·(2/ρ) + 6·(2/ρ²), to the last bit
        s = CarlemanSetup(x0=np.zeros(3), rho=rho, d=d)
        assert type(s.M) is float and type(s.m) is float
        assert s.M == pytest.approx(big_m, rel=4e-16)


class TestCarlemanInequality:
    def test_zero_function(self):
        v = TestFunction.quadratic(0.0, np.zeros(3), np.zeros((3, 3)))
        res = sides(v, SETUP, SETUP.lambda_threshold, SETUP.tau_threshold)
        assert res.lhs_factored == 0.0
        assert res.rhs_factored == 0.0

    def test_suite_holds_at_thresholds(self):
        suite = random_test_suite(50, seed=11)
        pairs = threshold_pairs(SETUP)
        results = carleman_sides(suite, SETUP, pairs)
        assert [len(row) for row in results] == [50, 50, 50]
        for (lam, tau), row in zip(pairs, results):
            for res in row:
                assert (res.lam, res.tau) == (lam, tau)
                assert res.holds

    def test_below_threshold_rejected(self):
        v = TestFunction.plane_wave(1.0, [0, 0, 1.0])
        with pytest.raises(ValueError):
            sides(v, SETUP, 0.5 * SETUP.lambda_threshold, SETUP.tau_threshold)
        with pytest.raises(ValueError):
            sides(v, SETUP, SETUP.lambda_threshold, 0.5 * SETUP.tau_threshold)

    def test_every_pair_checked_before_any_evaluation(self):
        def refuse(x):
            raise AssertionError("v evaluated before every pair was checked")

        v = TestFunction(refuse, refuse, refuse)
        pairs = threshold_pairs(SETUP) + [(SETUP.lambda_threshold, np.nan)]
        with pytest.raises(ValueError, match="finite"):
            carleman_sides([v], SETUP, pairs)

    @pytest.mark.parametrize("lam_mult, tau_mult", [(np.nan, 1.0), (1.0, np.nan),
                                                    (np.inf, 1.0), (1.0, np.inf)])
    def test_non_finite_weight_parameters_rejected(self, lam_mult, tau_mult):
        # NaN passes every threshold comparison; it must not reach the weights
        v = TestFunction.plane_wave(1.0, [0, 0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            sides(v, SETUP, lam_mult * SETUP.lambda_threshold,
                  tau_mult * SETUP.tau_threshold)

    @pytest.mark.parametrize("rho", [1e-5, 1e-10])
    def test_coefficient_out_of_range_raises_before_any_evaluation(self, rho):
        # m⁴λ⁴τ³ overflows although the thresholds λ, τ are finite floats
        def refuse(x):
            raise AssertionError("v evaluated although a coefficient overflows")

        setup = CarlemanSetup(x0=np.zeros(3), rho=rho, d=1.0)
        lam, tau = setup.lambda_threshold, setup.tau_threshold
        named = re.escape(f"lam = {lam:.6g}, tau = {tau:.6g}")
        with pytest.raises(OverflowError, match=f"coefficient .* {named}$"):
            carleman_sides([TestFunction(refuse, refuse, refuse)], setup,
                           threshold_pairs(setup))

    def test_side_out_of_range_raises(self):
        # at ρ = 5e-5 every coefficient is finite and a unit plane wave's rhs
        # is about 1e292; scaled by 1e10 its rhs overflows
        setup = CarlemanSetup(x0=np.zeros(3), rho=5e-5, d=1.0)
        v = TestFunction.plane_wave(1.0, [0, 0, 1.0])
        big = TestFunction(lambda x: 1e10 * v.value(x),
                           lambda x: 1e10 * v.gradient(x),
                           lambda x: 1e10 * v.laplacian(x))
        assert np.isfinite(sides(v, setup, setup.lambda_threshold,
                                 setup.tau_threshold).rhs_factored)
        with pytest.raises(OverflowError, match="side leaves the float range"):
            carleman_sides([v, big], setup, threshold_pairs(setup))

    def test_homogeneity(self):
        v = TestFunction.plane_wave(1.3, [0.2, 0.5, 0.8], 0.7)
        v3 = TestFunction(lambda x: 3 * v.value(x),
                          lambda x: 3 * v.gradient(x),
                          lambda x: 3 * v.laplacian(x))
        a, b = carleman_sides([v, v3], SETUP, threshold_pairs(SETUP, (1.0,)))[0]
        assert b.rhs_factored == pytest.approx(9 * a.rhs_factored, rel=1e-12)
        assert b.lhs_factored == pytest.approx(9 * a.lhs_factored, rel=1e-12)

    def test_ratio_nondecreasing_in_tau(self):
        suite = random_test_suite(10, seed=3)
        pairs = [(SETUP.lambda_threshold, mult * SETUP.tau_threshold)
                 for mult in (1.0, 2.0, 4.0)]
        results = carleman_sides(suite, SETUP, pairs)
        for i in range(len(suite)):
            prev = None
            for row in results:
                ratio = row[i].ratio
                if prev is not None and np.isfinite(prev) and np.isfinite(ratio):
                    assert ratio >= prev * 0.99
                prev = ratio

    def test_sides_build_no_rule_and_no_psi(self, monkeypatch):
        setup = CarlemanSetup(x0=np.zeros(3), rho=1.0, d=1.0)

        def refuse(*args, **kwargs):
            raise AssertionError("node sets must come from the setup")

        monkeypatch.setattr(carleman, "_radial_rule", refuse)
        monkeypatch.setattr(carleman, "gauss_product_rule", refuse)
        v = TestFunction.plane_wave(1.3, [0.2, 0.5, 0.8], 0.7)
        res = sides(v, setup, setup.lambda_threshold, setup.tau_threshold)
        assert res.holds


ANNULI = [(np.zeros(3), 1.0, 1.0), (np.zeros(3), 2.0, 2.0),
          (np.zeros(3), 0.5, 3.0), (np.array([0.3, -0.7, 1.1]), 1.3, 0.6)]
# so thin that at 1, 2 and 4 times the thresholds the innermost 4, 2 and 1
# volume shells (2,312, 1,156 and 578 nodes) carry weight, and lhs > 0
THIN_ANNULUS = (np.zeros(3), 1.0, 1e-10)


def node_dpsi(node_set):
    """ψ − ψ_ref at every node of a set, from its per-shell values."""
    return np.repeat(node_set.dpsi, node_set.shell_size)


def full_node_sides(v, setup, lam, tau):
    """(lhs, rhs) summed over every node of both sets: the reference the
    compressed node sets must reproduce."""
    m, M, psi_ref = setup.m, setup.M, setup.psi_ref
    xv, wv = setup.volume[:2]
    w3, w1, w0 = np.exp(carleman._relative_exponents(node_dpsi(setup.volume), lam, tau,
                                                     psi_ref, (3, 1, 0)))
    v2 = v.value(xv) ** 2
    g2 = np.sum(v.gradient(xv) ** 2, axis=1)
    lhs = np.sum(wv * (m**4 * lam**4 * tau**3 * w3 * v2
                       + m**2 * lam**2 * tau * w1 * g2))
    rhs = 8.0 * np.sum(wv * w0 * v.laplacian(xv) ** 2)
    xb, wb = setup.boundary[:2]
    b3, b1 = np.exp(carleman._relative_exponents(node_dpsi(setup.boundary), lam, tau,
                                                 psi_ref, (3, 1)))
    rhs += 48.0 * np.sum(wb * (M**3 * lam**3 * tau**3 * b3 * v.value(xb) ** 2
                               + M * lam * tau * b1 * np.sum(v.gradient(xb) ** 2,
                                                             axis=1)))
    return float(lhs), float(rhs)


class TestWeightedNodes:
    def test_weights_built_once_per_lambda_tau(self, monkeypatch):
        # one call builds the weights once per (λ, τ) and node set, on one
        # ψ value per shell (48 volume, 2 boundary), whatever the suite size
        setup = CarlemanSetup(x0=np.zeros(3), rho=1.0, d=1.0)
        calls = []
        relative_exponents = carleman._relative_exponents

        def counted(dpsi, *args):
            calls.append(dpsi.size)
            return relative_exponents(dpsi, *args)

        monkeypatch.setattr(carleman, "_relative_exponents", counted)
        carleman_sides(random_test_suite(50, seed=4), setup, threshold_pairs(setup))
        assert sorted(calls) == [2, 2, 2, 48, 48, 48]

    def test_v_evaluated_only_on_weighted_nodes(self):
        # each closure once per call, on the shells where some pair's weight
        # is not 0.0, and not at all on a set with no such shell
        calls = {"value": [], "gradient": [], "laplacian": []}

        def recorded(name, f):
            def g(x):
                calls[name].append(np.array(x))
                return f(x)
            return g

        for x0, rho, d in ANNULI + [THIN_ANNULUS]:
            setup = CarlemanSetup(x0=x0, rho=rho, d=d)
            v = TestFunction.plane_wave(1.3, [0.2, 0.5, 0.8], 0.7)
            v = TestFunction(*(recorded(name, getattr(v, name)) for name in calls))
            for rows in calls.values():
                rows.clear()
            carleman_sides([v], setup, threshold_pairs(setup))
            inner_sphere = np.split(setup.boundary.nodes, 2)[0]
            volume = [setup.volume.nodes[:2312]] if d < 1e-6 else []
            for name, rows in calls.items():
                expected = volume if name == "laplacian" else volume + [inner_sphere]
                assert len(rows) == len(expected)
                for x, want in zip(rows, expected):
                    np.testing.assert_array_equal(x, want)

    @pytest.mark.parametrize("x0, rho, d", ANNULI + [THIN_ANNULUS])
    def test_compressed_sums_match_full_nodes(self, x0, rho, d):
        setup = CarlemanSetup(x0=x0, rho=rho, d=d)
        suite = random_test_suite(6, seed=9)
        suite.append(point_source(1.2, [0.0, 0.0, -9.0]))
        pairs = threshold_pairs(setup)
        for (lam, tau), row in zip(pairs, carleman_sides(suite, setup, pairs)):
            for v, res in zip(suite, row):
                lhs, rhs = full_node_sides(v, setup, lam, tau)
                if d < 1e-6:
                    assert lhs > 0.0
                    assert res.lhs_factored == pytest.approx(lhs, rel=1e-13, abs=0.0)
                else:
                    assert res.lhs_factored == lhs == 0.0
                assert res.rhs_factored == pytest.approx(rhs, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("x0, rho, d", [ANNULI[0], THIN_ANNULUS])
    def test_member_alone_equals_member_in_suite(self, x0, rho, d):
        setup = CarlemanSetup(x0=x0, rho=rho, d=d)
        suite = random_test_suite(50, seed=2)
        pairs = threshold_pairs(setup)
        together = carleman_sides(suite, setup, pairs)
        for i, v in enumerate(suite):
            for row, [alone] in zip(together, carleman_sides([v], setup, pairs)):
                assert (row[i].lhs_factored, row[i].rhs_factored) == \
                    (alone.lhs_factored, alone.rhs_factored)

    def test_every_nonzero_weight_kept(self):
        setup = CarlemanSetup(x0=np.zeros(3), rho=1.0, d=1.0)
        lam, tau = 6.0, 1.0  # far below the thresholds: inner volume shells carry weight
        weighted = setup.weighted_nodes(lam, tau)
        for node_set, powers, kept in zip(
                (setup.volume, setup.boundary), ((3, 1, 0), (3, 1)), weighted):
            nodes, weights = node_set[:2]
            rel = np.exp(carleman._relative_exponents(node_dpsi(node_set), lam, tau,
                                                      setup.psi_ref, powers))
            keep = np.any(rel != 0.0, axis=0)
            assert 0 < np.count_nonzero(keep) < keep.size
            np.testing.assert_array_equal(kept[0], nodes[keep])
            np.testing.assert_array_equal(kept[1], weights[keep])
            np.testing.assert_array_equal(np.array(kept[2:]), rel[:, keep])


class TestCorollaryThresholds:
    def test_unit_case(self):
        thr = corollary_thresholds(1.0, 1.0, 1.0)
        assert (thr.lambda_min, thr.tau_min) == (6.0, 88.0)
        assert thr.alternate == (16.0, 88.0)

    def test_scaled_case(self):
        thr = corollary_thresholds(0.0, 1.0, 2.0)
        assert (thr.lambda_min, thr.tau_min) == (48.0, 5632.0)

    def test_large_operator_bound(self):
        thr = corollary_thresholds(1000.0, 1.0, 1.0)
        assert (thr.lambda_min, thr.tau_min) == (6.0, 16000.0)
        assert thr.alternate == (16000.0, 88.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            corollary_thresholds(1.0, 0.0, 1.0)

    def test_past_the_float_range_is_inf(self):
        thr = corollary_thresholds(1e300, 1e-100, 1e100)
        assert (thr.lambda_min, thr.tau_min) == (np.inf, np.inf)
        assert thr.alternate == (np.inf, np.inf)


class TestContinuationConstants:
    def test_exact_substitution(self):
        alpha, beta, gamma = continuation_constants(1.0, 1.0, 1.0)
        assert alpha == pytest.approx(1.0 * 4.0 / (2.0 * 1.75**3), rel=1e-14)
        assert beta == pytest.approx(4.0, rel=1e-14)
        assert gamma == pytest.approx(beta / (alpha + beta), rel=1e-14)

    def test_gamma_in_unit_interval(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            rho = rng.uniform(0.01, 5.0)
            d = rng.uniform(0.01, 5.0)
            lam = rng.uniform(0.1, 1e4)
            _, _, gamma = continuation_constants(rho, d, lam)
            assert 0.0 < gamma < 1.0

    def test_small_rho_limit(self):
        _, _, gamma = continuation_constants(1e-4, 1.0, 2.0)
        assert gamma > 0.999

    def test_overflow_safe(self):
        alpha, beta, gamma = continuation_constants(0.5, 1.0, 1e4)
        assert 0.0 < gamma < 1.0


class TestContinuationCheck:
    GEOM = ObstacleGeometry()

    def test_c_emp_finite_over_sweep(self):
        u = TestFunction.plane_wave(1.0, [0.0, 0.0, 1.0])
        c_emps = []
        for r in (0.4, 0.2, 0.1, 0.05):
            ck = continuation_check(u, np.array([0.0, 0.0, 1.0]), r, self.GEOM)
            assert np.isfinite(ck.lhs) and ck.lhs > 0
            assert np.isfinite(ck.rhs) and ck.rhs > 0
            assert 0.0 < ck.gamma < 1.0
            c_emps.append(ck.c_emp)
        # existence of the constant: admissible C bounded away from zero
        assert min(c_emps) > 0

    def test_homogeneity_degree_one(self):
        u = TestFunction.plane_wave(1.0, [0.0, 1.0, 0.0])
        u10 = TestFunction(lambda x: 10 * u.value(x),
                           lambda x: 10 * u.gradient(x),
                           lambda x: 10 * u.laplacian(x))
        a = continuation_check(u, np.array([0.0, 0.0, 1.0]), 0.2, self.GEOM)
        b = continuation_check(u10, np.array([0.0, 0.0, 1.0]), 0.2, self.GEOM)
        assert b.lhs == pytest.approx(10 * a.lhs, rel=1e-12)
        assert b.rhs == pytest.approx(10 * a.rhs, rel=1e-10)

    def test_degenerate_ball_rejected(self):
        u = TestFunction.plane_wave(1.0, [0.0, 0.0, 1.0])
        # ball centered deep inside the obstacle has no exterior part
        with pytest.raises(ValueError):
            continuation_check(u, np.zeros(3), 0.4, self.GEOM)


class TestThreeSphere:
    def test_plane_wave_family(self):
        rng = np.random.default_rng(13)
        family = [TestFunction.plane_wave(2.0, rng.normal(size=3),
                                          rng.uniform(0, 2 * np.pi))
                  for _ in range(8)]
        fit = three_sphere_check(family, np.array([2.0, 0.0, 0.0]), 0.2)
        assert 0.01 < fit.alpha < 0.99
        assert np.isfinite(fit.C) and fit.C <= 1e3
        assert fit.monotonicity_violations == 0
        # the fitted pair dominates every member
        n = fit.norms
        lhs = 0.2 * n[:, 1]
        rhs = fit.C * n[:, 0] ** fit.alpha * n[:, 2] ** (1 - fit.alpha)
        assert np.all(lhs <= rhs * (1 + 1e-10))

    def test_three_ball_rules_per_call(self, monkeypatch):
        calls = []
        radial_rule = carleman._radial_rule

        def counted(*args, **kwargs):
            calls.append(args)
            return radial_rule(*args, **kwargs)

        monkeypatch.setattr(carleman, "_radial_rule", counted)
        rng = np.random.default_rng(13)
        family = [TestFunction.plane_wave(2.0, rng.normal(size=3))
                  for _ in range(8)]
        three_sphere_check(family, np.array([2.0, 0.0, 0.0]), 0.2)
        assert len(calls) == 3

    def test_constant_function_norm_scaling(self):
        const = TestFunction.quadratic(1.0, np.zeros(3), np.zeros((3, 3)))
        fit = three_sphere_check([const, const], np.zeros(3), 0.3)
        # norms scale like ball volumes r^{3/2} in L2
        assert fit.norms[0, 1] / fit.norms[0, 0] == pytest.approx(
            2.0**1.5, rel=1e-10)

    def test_small_family_rejected(self):
        with pytest.raises(ValueError):
            three_sphere_check([TestFunction.plane_wave(1.0, [0, 0, 1.0])],
                               np.zeros(3), 0.1)

    @pytest.mark.parametrize("r", [-0.2, 0.0, np.inf, np.nan])
    def test_non_positive_or_non_finite_radius_rejected(self, r):
        family = [TestFunction.plane_wave(1.0, [0, 0, 1.0])] * 2
        with pytest.raises(ValueError, match="ball radius"):
            three_sphere_check(family, np.zeros(3), r)

    def test_resolution_bound_is_where_the_rule_reaches_rounding(self):
        # below the bound the ball rule agrees with a far finer one to
        # rounding; at twice it, it does not
        bound = carleman._resolved_kr(32, 14)
        assert 3.8 < bound < 3.9
        rng = np.random.default_rng(5)
        for kr, tol in ((bound, 1e-14), (2.0 * bound, None)):
            u = TestFunction.plane_wave(kr / 0.6, rng.normal(size=3), 0.3)
            coarse = carleman._h1_norm(u, *carleman._radial_rule(np.zeros(3), 0.0, 0.6, 32, 14)[:2])
            fine = carleman._h1_norm(u, *carleman._radial_rule(np.zeros(3), 0.0, 0.6, 64, 40)[:2])
            if tol:
                assert abs(coarse - fine) <= tol * fine
            else:
                assert abs(coarse - fine) > 1e-12 * fine

    @pytest.mark.parametrize("k", [6.5, 1e10])
    def test_unresolved_wavenumber_rejected(self, k):
        family = [TestFunction.plane_wave(k, [0, 0, 1.0]),
                  point_source(1.0, [0, 0, 9.0])]
        with pytest.raises(ValueError, match="resolve"):
            three_sphere_check(family, np.zeros(3), 0.2)
        # the bound is on k·3r: a smaller ball resolves the same wave
        three_sphere_check(family, np.zeros(3), 0.19 / k)

    def test_overflowing_ball_raises_without_warning(self):
        # weights ~ (3r)³ overflow; warnings are errors under pytest
        const = TestFunction.quadratic(1.0, np.zeros(3), np.zeros((3, 3)))
        with pytest.raises(RuntimeError, match="zero or not finite"):
            three_sphere_check([const, const], np.zeros(3), 1e200)

    def test_zero_ball_norm_raises(self):
        plane = TestFunction.plane_wave(1.0, [0, 0, 1.0])
        zero = TestFunction.quadratic(0.0, np.zeros(3), np.zeros((3, 3)))
        with pytest.raises(RuntimeError, match="zero or not finite"):
            three_sphere_check([plane, zero], np.zeros(3), 0.2)
        # ball weights that underflow give zero norms for every member
        with pytest.raises(RuntimeError, match="zero or not finite"):
            three_sphere_check([plane, plane], np.zeros(3), 1e-300)


class TestChainLowerBound:
    def test_iteration_matches_closed_form(self):
        cb = chain_lower_bound(22, 0.3, 2.0, 0.5, 0.5, 0.1)
        assert cb.iteration_residual <= 1e-12

    def test_zero_steps(self):
        cb = chain_lower_bound(0, 0.3, 2.0, 0.5, 0.5, 0.1)
        assert cb.log_i_final == pytest.approx(np.log(0.3))
        assert cb.log_lower_bound == pytest.approx(np.log(0.3))

    def test_half_alpha_exponents(self):
        cb = chain_lower_bound(5, 1.0, 1.0, 0.5, 0.5, 0.1)
        # gamma = 3/2 + 2 = 7/2, eta = 1 + 6 ln 2
        assert cb.eta == pytest.approx(1.0 + 6.0 * np.log(2.0), rel=1e-14)
        assert cb.log_lower_bound == pytest.approx(
            3.5 / 0.5**5 * np.log(0.05), rel=1e-12)

    def test_eta_exceeds_one(self):
        for alpha in (0.1, 0.5, 0.9):
            cb = chain_lower_bound(3, 1.0, 1.0, 1.0, alpha, 0.2)
            assert cb.eta > 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            chain_lower_bound(3, 1.0, 1.0, 1.0, 1.5, 0.1)
        with pytest.raises(ValueError):
            chain_lower_bound(3, -1.0, 1.0, 1.0, 0.5, 0.1)

    def test_overflowing_log_bound_raises(self):
        # α^N = 0.5^1100 underflows to 0, so γ/α^N is not a float
        with pytest.raises(OverflowError, match="N = 1100 chain steps"):
            chain_lower_bound(1100, 1.0, 1.0, 0.5, 0.5, 0.1)
        assert np.isfinite(chain_lower_bound(1000, 1.0, 1.0, 0.5, 0.5, 0.1).log_lower_bound)

    @pytest.mark.parametrize("index", [0, 1, 2, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, index, bad):
        # i0, m_tilde, c, r: a NaN or inf would make every bound NaN
        args = [1.0, 1.0, 0.5, 0.1]
        args[index] = bad
        i0, m_tilde, c, r = args
        with pytest.raises(ValueError, match="positive and finite"):
            chain_lower_bound(3, i0, m_tilde, c, 0.5, r)


class TestLemma42Witness:
    def test_uniformly_large_field(self):
        nodes = np.random.default_rng(0).normal(size=(64, 3))
        nodes /= np.linalg.norm(nodes, axis=1, keepdims=True)
        values = np.full(64, 0.8)
        rep = lemma42_witness(values, nodes, nodes[0], 1.0, 0.1)
        assert not rep.empty
        in_ball = np.linalg.norm(nodes - nodes[0], axis=1) <= 1.0
        assert rep.indices.size == np.count_nonzero(in_ball)

    def test_threshold_above_sup_flags_empty(self):
        nodes = np.eye(3)
        rep = lemma42_witness(np.array([0.1, 0.2, 0.3]), nodes, nodes[0],
                              2.0, 0.5)
        assert rep.empty

    def test_forward_solution_witness(self):
        from impscat.forward import WaveContext, boundary_traces, solve_density
        from impscat.layer_ops import ImpedanceField

        geom = ObstacleGeometry()
        ctx = WaveContext(k=1.0, omega=np.array([0.0, 0.0, 1.0]))
        lam = ImpedanceField.constant(1.0)
        phi = solve_density(ctx, geom, lam, band_limit=16)
        u, _, rule = boundary_traces(phi, ctx, geom, lam)
        nodes = geom.boundary_points(rule)
        step = max(1, nodes.shape[0] // 64)
        for x_t in nodes[::step]:
            rep = lemma42_witness(u, nodes, x_t, 1.0, 0.05)
            assert not rep.empty
