"""Weighted-inequality machinery: Carleman, continuation constants, chains."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impscat import carleman
from impscat.carleman import (
    CarlemanSetup,
    PlaneWaves,
    Quadratics,
    carleman_sides,
    chain_lower_bound,
    continuation_constants,
    corollary_thresholds,
    random_test_suite,
    three_sphere_check,
)

from oracle import (
    Recorded,
    TestFunction,
    h1_norm,
    members,
    point_source,
    quadrature_sphere_means,
    shell_nodes,
    shell_weights,
)

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


TRIPLES = st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3)
# k in [0, 4] with k = 0 drawn on its own, and any phase in a period
SPHERE_WAVES = st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 4.0)), TRIPLES.filter(
    lambda d: np.linalg.norm(d) > 1e-3), st.floats(-2 * np.pi, 2 * np.pi)), min_size=1, max_size=6)
QUADRATICS = st.lists(st.tuples(st.floats(-3.0, 3.0), TRIPLES,
                                st.lists(st.floats(-3.0, 3.0), min_size=9, max_size=9)),
                      min_size=1, max_size=6)


def oracle_squares(closures, x) -> tuple:
    """v², |∇v|² and (Δv)² of the closures at x, one row per closure."""
    return tuple(np.concatenate(rows) for rows in
                 zip(*(v.squares(x, laplacian=True) for v in closures)))


class TestFamilies:
    @settings(max_examples=60, deadline=None)
    @given(params=st.one_of(SPHERE_WAVES.map(lambda p: ("plane", p)),
                            QUADRATICS.map(lambda p: ("quadratic", p))),
           center=TRIPLES.filter(lambda c: np.linalg.norm(c) <= 3.0),
           radii=st.lists(st.floats(0.0, 3.0), max_size=4))
    def test_sphere_means_match_quadrature(self, params, center, radii):
        # the closed forms against the order-40 product rule on the squares
        # of the members as closures.  Each square is compared on the scale
        # of its bound over the spheres, from the sizes of its terms (1, k²,
        # k⁴ for a plane wave): where those cancel, as ½ + ½cos 2θ at small
        # k·s or the terms of v(center), the rounding of the squares at the
        # nodes is on that scale, not on the mean's.  The floor is the
        # smallest normal float, below which squares round as subnormals.
        kind, members_ = params
        center, radii = np.array(center), np.array([0.0, 1e-8, 3.0] + radii)
        if kind == "plane":
            family = PlaneWaves(*map(np.array, zip(*members_)))
            closures = [TestFunction.plane_wave(*m) for m in members_]
            k2 = family.k[:, None] ** 2
            bounds = (1.0, k2, k2 * k2)
        else:
            const, linear, quad = zip(*members_)
            family = Quadratics(const, linear, np.reshape(quad, (-1, 3, 3)))
            closures = [TestFunction.quadratic(c, b, np.reshape(a, (3, 3)))
                        for c, b, a in members_]
            reach = np.linalg.norm(center) + np.max(radii)
            b = np.linalg.norm(family.linear, axis=1)[:, None]
            a = np.linalg.norm(family.quad, axis=(1, 2))[:, None]
            bounds = ((np.abs(family.const)[:, None] + b * reach + a * reach**2) ** 2,
                      (b + 2.0 * a * reach) ** 2,
                      (2.0 * np.trace(family.quad, axis1=1, axis2=2)[:, None]) ** 2)
        got = family.sphere_means(center, radii, laplacian=True)
        want = quadrature_sphere_means(lambda x, _: oracle_squares(closures, x),
                                       center, radii, laplacian=True)
        for mean, reference, bound in zip(got, want, bounds):
            assert mean.shape == (family.size, len(radii))
            assert np.all(np.abs(mean - reference) <= 1e-13 * bound + np.finfo(float).tiny)
        assert len(family.sphere_means(center, radii)) == 2

    def test_plane_wave_means_keep_their_digits_at_small_radius(self):
        # at θ_c = 0 the mean of |∇v|² = k² sin²θ over the sphere of radius s
        # is k²(1 − j₀(2ks))/2 = s²/3 − s⁴/15 + 2s⁶/315 − … at k = 1, 3.3e-17
        # at s = 1e-8, where ½ − ½·(mean of cos 2θ) rounds it to 0.0; at
        # θ_c = π/2 the mean of v² = cos²θ is the same series
        family = PlaneWaves(1.0, [[0.0, 0.0, 1.0]] * 2, [0.0, np.pi / 2])
        radii = np.array([0.0, 1e-8, 1e-3])
        v2, g2 = family.sphere_means(np.zeros(3), radii)
        series = radii**2 / 3 - radii**4 / 15 + 2 * radii**6 / 315
        np.testing.assert_allclose(g2[0], series, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(v2[1], series, rtol=1e-14, atol=1e-32)
        np.testing.assert_allclose([v2[0], g2[1]], [1.0 - g2[0], 1.0 - v2[1]],
                                   rtol=1e-15, atol=0.0)

    @settings(max_examples=200, deadline=None)
    @given(z=st.one_of(st.floats(0.0, 2.0), st.floats(1e-300, 1e4)))
    def test_one_minus_j0_against_mpmath(self, z):
        # the series below z = 1 and the direct difference above, each
        # within a few ulps of the exact 1 − sin z / z (of the smallest
        # subnormal, where that rounds to one)
        import mpmath

        # 1 − j₀(z) ~ z²/6 cancels about 2|log₁₀ z| digits: carry them
        with mpmath.workdps(30 + 2 * max(0, -int(np.log10(z or 1.0)))):
            exact = float(1 - mpmath.sinc(z))
        got = carleman._one_minus_j0(np.array([z]))[0]
        assert got == pytest.approx(exact, rel=1e-15, abs=1e-322)

    def test_random_suite_draws_the_seeded_members_in_order(self):
        # member i is the i-th draw of one seeded stream: a plane wave for
        # even i, a quadratic for odd i
        rng = np.random.default_rng(17)
        draws = [(rng.uniform(0.5, 4.0), rng.normal(size=3), rng.uniform(0, 2 * np.pi))
                 if i % 2 == 0 else
                 (rng.normal(), rng.normal(size=3), rng.normal(size=(3, 3)))
                 for i in range(7)]
        waves, quadratics = random_test_suite(7, seed=17)
        np.testing.assert_array_equal(waves.positions, [0, 2, 4, 6])
        np.testing.assert_array_equal(quadratics.positions, [1, 3, 5])
        for j, (k, d, c) in enumerate(draws[::2]):
            assert (waves.k[j], waves.phases[j]) == (k, c)
            np.testing.assert_allclose(waves.directions[j], d / np.linalg.norm(d), rtol=1e-15)
        for j, (c, b, a) in enumerate(draws[1::2]):
            assert quadratics.const[j] == c
            np.testing.assert_array_equal(quadratics.linear[j], b)
            np.testing.assert_array_equal(quadratics.quad[j], 0.5 * (a + a.T))
        [single] = random_test_suite(1, seed=17)
        assert isinstance(single, PlaneWaves) and single.size == 1
        assert random_test_suite(0) == []

    def test_read_only_normalised_and_symmetrised(self):
        d = np.array([[3.0, 0.0, 4.0], [0.0, -2.0, 0.0]])
        waves = PlaneWaves([1.0, 2.5], d, 0.3)
        np.testing.assert_array_equal(waves.directions, [[0.6, 0.0, 0.8], [0.0, -1.0, 0.0]])
        np.testing.assert_array_equal(waves.phases, [0.3, 0.3])
        assert (waves.size, waves.wavenumber) == (2, 2.5)
        d[0, 0] = 7.0  # the family holds its own copy
        assert waves.directions[0, 0] == 0.6
        quad = Quadratics(0.0, [1.0, 2.0, 3.0], np.arange(9.0).reshape(3, 3))
        np.testing.assert_array_equal(quad.quad[0], quad.quad[0].T)
        assert (quad.size, quad.wavenumber) == (1, 0.0)
        for array in (waves.k, waves.directions, waves.phases, quad.const,
                      quad.linear, quad.quad):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0

    @pytest.mark.parametrize("build, match", [
        (lambda: PlaneWaves(1.0, [0.0, 0.0, 0.0]), "nonzero"),
        (lambda: PlaneWaves(1.0, [[1.0, 0.0]]), "3-vectors"),
        (lambda: PlaneWaves(1.0, np.empty((0, 3))), "3-vectors"),
        (lambda: PlaneWaves([1.0, 2.0, 3.0], np.eye(2, 3)), "does not fit"),
        (lambda: PlaneWaves(np.nan, [0.0, 0.0, 1.0]), "finite"),
        (lambda: PlaneWaves(-1.0, [0.0, 0.0, 1.0]), "nonnegative"),
        (lambda: PlaneWaves(1.0, [0.0, 0.0, 1.0], np.inf), "finite"),
        (lambda: PlaneWaves(1.0, [0.0, 0.0, 1.0], positions=[0.5]), "positions"),
        (lambda: PlaneWaves(1.0, [0.0, 0.0, 1.0], positions=[0, 1]), "positions"),
        (lambda: Quadratics(1.0, np.zeros(3), np.zeros((2, 2))), "3×3"),
        (lambda: Quadratics(1.0, np.zeros(2), np.zeros((3, 3))), "does not fit"),
        (lambda: Quadratics(np.nan, np.zeros(3), np.zeros((3, 3))), "finite"),
    ])
    def test_invalid_parameters_rejected(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

    def test_positions_must_number_the_suite(self):
        waves = PlaneWaves(1.0, np.eye(3), positions=[0, 2, 3])
        with pytest.raises(ValueError, match="once each"):
            carleman_sides([waves], SETUP, threshold_pairs(SETUP, (1.0,)))
        quad = Quadratics(1.0, np.zeros(3), np.zeros((3, 3)), positions=[1])
        [row] = carleman_sides([waves, quad], SETUP, threshold_pairs(SETUP, (1.0,)))
        assert len(row) == 4


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

    def test_freezes_its_own_copy_of_x0(self):
        # the caller's array stays writeable, and a later write to it does
        # not move the annulus or its rules
        x0 = np.zeros(3)
        setup = CarlemanSetup(x0=x0, rho=1.0, d=1.0)
        x0[0] = 4.0
        for center in (setup.x0, setup.volume.center, setup.boundary.center):
            assert center.tolist() == [0.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="read-only"):
            setup.x0[0] = 1.0

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
        pts, w = shell_nodes(SETUP.volume), shell_weights(SETUP.volume)
        vol = 4.0 / 3.0 * np.pi * (2.0**3 - 1.0**3)
        assert np.sum(w) == pytest.approx(vol, rel=1e-12)
        r = np.linalg.norm(pts, axis=1)
        assert np.all((r > 1.0) & (r < 2.0))

    def test_boundary_rule_measures_spheres(self):
        w = shell_weights(SETUP.boundary)
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
            for v, res in zip(members(suite), row):
                assert res.holds
                assert res.rhs_factored == pytest.approx(
                    sides(v, SETUP, lam, tau).rhs_factored, rel=1e-13, abs=0.0)

    def test_below_threshold_rejected(self):
        v = TestFunction.plane_wave(1.0, [0, 0, 1.0])
        with pytest.raises(ValueError):
            sides(v, SETUP, 0.5 * SETUP.lambda_threshold, SETUP.tau_threshold)
        with pytest.raises(ValueError):
            sides(v, SETUP, SETUP.lambda_threshold, 0.5 * SETUP.tau_threshold)

    def test_no_pair_gives_no_row_and_checks_nothing(self):
        def refuse(x):
            raise AssertionError("v evaluated with no pair")

        assert carleman_sides(random_test_suite(3), SETUP, []) == []
        assert carleman_sides([TestFunction(refuse, refuse, refuse)], SETUP, iter(())) == []

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
        for i in range(10):
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


def node_dpsi(setup, rule):
    """ψ − ψ_ref = 2 ln(ρ/r) at every node of a shell rule, from its radii."""
    return np.repeat(2.0 * np.log(setup.rho / rule.radii), rule.sphere.npts)


def peak_bytes(call) -> int:
    """The tracemalloc peak of ``call()``, after one untraced call has warmed
    the cached rules."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def full_node_sides(v, setup, lam, tau):
    """(lhs, rhs) summed over every node of both sets: the reference the
    compressed node sets must reproduce."""
    m, M, psi_ref = setup.m, setup.M, setup.psi_ref
    xv, wv = shell_nodes(setup.volume), shell_weights(setup.volume)
    w3, w1, w0 = np.exp(carleman._relative_exponents(node_dpsi(setup, setup.volume), lam,
                                                     tau, psi_ref, (3, 1, 0)))
    v2 = v.value(xv) ** 2
    g2 = np.sum(v.gradient(xv) ** 2, axis=1)
    lhs = np.sum(wv * (m**4 * lam**4 * tau**3 * w3 * v2
                       + m**2 * lam**2 * tau * w1 * g2))
    rhs = 8.0 * np.sum(wv * w0 * v.laplacian(xv) ** 2)
    xb, wb = shell_nodes(setup.boundary), shell_weights(setup.boundary)
    b3, b1 = np.exp(carleman._relative_exponents(node_dpsi(setup, setup.boundary), lam,
                                                 tau, psi_ref, (3, 1)))
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

    def test_default_setup_builds_no_volume_node(self):
        # the Carleman node sets and the three-sphere balls are whole shells,
        # integrated from sphere means, the families' one evaluator: each
        # family is asked for them once per set and ball, both at the
        # default annulus, where the inner sphere alone carries weight, and
        # at the thin one, where volume shells do too
        suite = [Recorded(family) for family in random_test_suite(50, seed=4)]
        for x0, rho, d in (ANNULI[0], THIN_ANNULUS):
            setup = CarlemanSetup(x0=x0, rho=rho, d=d)
            carleman_sides(suite, setup, threshold_pairs(setup))
            assert (setup.volume.size, setup.boundary.size) == (27744, 2500)
        three_sphere_check(suite, np.array([2.0, 0.0, 0.0]), 0.2)
        for family in suite:
            assert len(family.mean_calls) == 6  # 1 + 2 sets, then 3 balls

    def test_v_evaluated_only_on_weighted_nodes(self):
        # each family is asked once per node set for its sphere means about
        # x₀, at the radii of the shells where some pair's weight is not
        # 0.0, and not at all on a set with no such shell; (Δv)² is asked
        # for on the volume alone
        for x0, rho, d in ANNULI + [THIN_ANNULUS]:
            setup = CarlemanSetup(x0=x0, rho=rho, d=d)
            suite = [Recorded(family) for family in random_test_suite(50, seed=5)]
            carleman_sides(suite, setup, threshold_pairs(setup))
            want = [(setup.volume.radii[:4], True)] if d < 1e-6 else []
            want.append((setup.boundary.radii[:1], False))
            for family in suite:
                assert len(family.mean_calls) == len(want)
                for (center, radii, laplacian), (radii_want, asked) in zip(family.mean_calls,
                                                                           want):
                    np.testing.assert_array_equal(center, x0)
                    np.testing.assert_array_equal(radii, radii_want)
                    assert laplacian is asked

    @pytest.mark.parametrize("x0, rho, d", ANNULI + [THIN_ANNULUS])
    def test_compressed_sums_match_full_nodes(self, x0, rho, d):
        setup = CarlemanSetup(x0=x0, rho=rho, d=d)
        suite = random_test_suite(6, seed=9) + [point_source(1.2, [0.0, 0.0, -9.0])]
        pairs = threshold_pairs(setup)
        for (lam, tau), row in zip(pairs, carleman_sides(suite, setup, pairs)):
            for v, res in zip(members(suite), row):
                lhs, rhs = full_node_sides(v, setup, lam, tau)
                if d < 1e-6:
                    assert lhs > 0.0
                    assert res.lhs_factored == pytest.approx(lhs, rel=1e-13, abs=0.0)
                else:
                    assert res.lhs_factored == lhs == 0.0
                assert res.rhs_factored == pytest.approx(rhs, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("x0, rho, d", [ANNULI[0], THIN_ANNULUS])
    def test_member_alone_equals_member_in_suite(self, x0, rho, d):
        # the family pass against each member alone, as closures one at a
        # time: at the default annulus, and where volume nodes carry weight
        setup = CarlemanSetup(x0=x0, rho=rho, d=d)
        suite = random_test_suite(50, seed=2)
        pairs = threshold_pairs(setup)
        together = carleman_sides(suite, setup, pairs)
        for i, v in enumerate(members(suite)):
            for row, [alone] in zip(together, carleman_sides([v], setup, pairs)):
                assert row[i].lhs_factored == pytest.approx(alone.lhs_factored,
                                                            rel=1e-13, abs=0.0)
                assert row[i].rhs_factored == pytest.approx(alone.rhs_factored,
                                                            rel=1e-13, abs=0.0)
                assert (alone.lhs_factored > 0.0) is (d < 1e-6)

    def test_members_add_no_more_than_a_few_chunks(self):
        # every one of the 27,744 volume nodes carries weight here; one
        # (members × nodes) array of the suite would alone be 11 MB, while
        # the 49 members past the first add less than 4 × 2¹⁴ values
        setup = CarlemanSetup(x0=np.zeros(3), rho=1.0, d=1e-12)
        pairs = threshold_pairs(setup)
        volume, _ = (rel for _, rel in setup._shell_weights(pairs))
        assert np.all(np.any(volume != 0.0, axis=(0, 1)))
        peaks = [peak_bytes(lambda: carleman_sides(suite, setup, pairs))
                 for suite in (random_test_suite(1, seed=6), random_test_suite(50, seed=6))]
        chunk_bytes = 2**14 * 8
        assert peaks[1] - peaks[0] < 4 * chunk_bytes
        assert peaks[1] < 50 * 27744 * 8

    def test_sides_peak_below_half_a_megabyte(self):
        # the sides hold members × shells values and (powers × pairs ×
        # shells) weights, with no node-sized array: one (pairs × nodes)
        # weight row of this annulus would alone be 666 KB
        setup = CarlemanSetup(x0=np.zeros(3), rho=1.0, d=1e-12)
        suite = random_test_suite(50, seed=6)
        assert peak_bytes(lambda: carleman_sides(suite, setup, threshold_pairs(setup))) < 2**19

    def test_every_nonzero_weight_kept(self):
        # the per-shell weights are the per-node weights, one value per
        # shell, so the shells with a weight that is not 0.0 hold every node
        # with one
        setup = CarlemanSetup(x0=np.zeros(3), rho=1.0, d=1.0)
        lam, tau = 6.0, 1.0  # far below the thresholds: inner volume shells carry weight
        for rule, powers, (shell_rule, rel) in zip(
                (setup.volume, setup.boundary), ((3, 1, 0), (3, 1)),
                setup._shell_weights([(lam, tau)])):
            assert shell_rule is rule
            per_node = np.exp(carleman._relative_exponents(node_dpsi(setup, rule), lam, tau,
                                                           setup.psi_ref, powers))
            keep = np.any(per_node != 0.0, axis=0)
            assert 0 < np.count_nonzero(keep) < keep.size
            np.testing.assert_array_equal(np.repeat(rel[:, 0], rule.sphere.npts, axis=-1),
                                          per_node)


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


class TestThreeSphere:
    def test_plane_wave_family(self):
        rng = np.random.default_rng(13)
        draws = [(rng.normal(size=3), rng.uniform(0, 2 * np.pi)) for _ in range(8)]
        family = PlaneWaves(2.0, [d for d, _ in draws], [c for _, c in draws])
        fit = three_sphere_check([family], np.array([2.0, 0.0, 0.0]), 0.2)
        assert 0.01 < fit.alpha < 0.99
        assert np.isfinite(fit.C) and fit.C <= 1e3
        assert fit.monotonicity_violations == 0
        assert fit.alpha_fitted
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
        family = PlaneWaves(2.0, np.random.default_rng(13).normal(size=(8, 3)))
        three_sphere_check([family], np.array([2.0, 0.0, 0.0]), 0.2)
        assert len(calls) == 3

    def test_norms_match_member_h1_norms(self):
        # one pass over the families equals each member's H¹ norm as a
        # closure, on the same three ball rules, in suite order
        suite = random_test_suite(9, seed=4) + [point_source(1.0, [0, 0, 9.0])]
        y, r = np.array([0.4, -0.3, 1.2]), 0.25
        fit = three_sphere_check(suite, y, r)
        balls = [carleman._radial_rule(y, 0.0, f * r, 32, 14) for f in (1.0, 2.0, 3.0)]
        expected = [[h1_norm(v, shell_nodes(ball), shell_weights(ball)) for ball in balls]
                    for v in members(suite)]
        np.testing.assert_allclose(fit.norms, expected, rtol=1e-13, atol=0.0)

    def test_two_members_across_families(self):
        # the count is of members, not of families
        with pytest.raises(ValueError, match="two members"):
            three_sphere_check([PlaneWaves(1.0, [0, 0, 1.0])], np.zeros(3), 0.1)
        fit = three_sphere_check([PlaneWaves(1.0, [0, 0, 1.0]),
                                  Quadratics(1.0, np.zeros(3), np.eye(3))], np.zeros(3), 0.1)
        assert fit.norms.shape == (2, 3)

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
            coarse, fine = (h1_norm(u, shell_nodes(rule), shell_weights(rule))
                            for rule in (carleman._radial_rule(np.zeros(3), 0.0, 0.6, 32, 14),
                                         carleman._radial_rule(np.zeros(3), 0.0, 0.6, 64, 40)))
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
