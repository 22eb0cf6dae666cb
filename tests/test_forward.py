"""Forward solver against the separation-of-variables reference."""

import dataclasses
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impscat import forward, layer_ops, specfun
from impscat.forward import (
    FarField,
    HarmonicDensity,
    WaveContext,
    boundary_traces,
    energy_identity,
    eval_scattered,
    farfield,
    mie_farfield,
    mie_scattered,
    radiating_coefficients,
    scattered_on_shell,
    solve_density,
    solve_farfield,
    uniform_bound_check,
)
from impscat.geometry import ObstacleGeometry
from impscat.layer_ops import (
    BoundaryOperatorMatrix,
    ImpedanceField,
    ModalTable,
    NumericalError,
    SingularSystemError,
    assemble_combined_system,
    multiplication_operator,
)
from impscat.specfun import (
    gauss_product_rule,
    harmonic_degrees,
    num_harmonics,
    sph_bessel_j,
    sph_hankel1,
    sph_harmonic_all,
)
from impscat.stability import stability_sweep

from oracle import radial_derivative

GEOM = ObstacleGeometry()
ZHAT = np.array([0.0, 0.0, 1.0])


def rel_l2(ff_a: FarField, ff_b: FarField) -> float:
    num = np.sqrt(np.real(ff_a.rule.integrate(np.abs(ff_a.samples - ff_b.samples) ** 2)))
    return float(num / ff_b.norm())


class TestWaveContext:
    def test_validation(self):
        with pytest.raises(ValueError):
            WaveContext(k=-1.0, omega=ZHAT)
        with pytest.raises(ValueError):
            WaveContext(k=1.0, omega=np.array([0.0, 0.0, 2.0]))

    @pytest.mark.parametrize("k", [np.nan, np.inf, -np.inf])
    def test_non_finite_wavenumber_rejected(self, k):
        # NaN compares false with everything; it must not reach the Bessel calls
        with pytest.raises(ValueError, match="positive and finite"):
            WaveContext(k=k, omega=ZHAT)

    def test_incident_unimodular(self):
        ctx = WaveContext(k=2.0, omega=ZHAT)
        x = np.random.default_rng(0).normal(size=(5, 3))
        assert np.allclose(np.abs(ctx.incident(x)), 1.0)


class TestSolveDensity:
    def test_mie_equivalence_grid(self):
        for ka in (0.5, 1.0, 2.0, 4.0):
            ctx = WaveContext(k=ka, omega=ZHAT)
            for lam0 in (0.0, 0.5, 1.0, 5.0):
                ff = solve_farfield(ctx, GEOM, ImpedanceField.constant(lam0),
                                    band_limit=24)
                mie = mie_farfield(ctx, 1.0, lam0, rule=ff.rule)
                assert rel_l2(ff, mie) <= 1e-8

    def test_neumann_reduction(self):
        # lambda = 0 gives the Neumann sphere
        ctx = WaveContext(k=1.0, omega=ZHAT)
        ff = solve_farfield(ctx, GEOM, ImpedanceField.constant(0.0), band_limit=20)
        mie = mie_farfield(ctx, 1.0, 0.0, rule=ff.rule)
        assert rel_l2(ff, mie) <= 1e-10

    def test_residual_contract(self):
        ctx = WaveContext(k=1.0, omega=ZHAT)
        phi = solve_density(ctx, GEOM, ImpedanceField.constant(1.0), band_limit=20)
        assert phi.tail_fraction() <= 1e-10

    @pytest.mark.parametrize("coeffs", [[1e300], [1e300, 0.0, 1e299, 0.0]],
                             ids=["constant", "degree-1"])
    def test_residual_check_holds_at_huge_impedance(self, monkeypatch, coeffs):
        # at |λ| ~ 1e300 the 2-norm of the rhs overflows; the check scales by
        # max|rhs| first, so it passes the solved φ and still sees a perturbed one
        lam, ctx = ImpedanceField(np.array(coeffs)), WaveContext(k=1.0, omega=ZHAT)
        assert np.all(np.isfinite(solve_density(ctx, GEOM, lam, band_limit=12).coeffs))
        solve = BoundaryOperatorMatrix.solve
        monkeypatch.setattr(BoundaryOperatorMatrix, "solve",
                            lambda self, rhs: solve(self, rhs) * (1.0 + 1e-9))
        with pytest.raises(RuntimeError, match="linear solve residual"):
            solve_density(ctx, GEOM, lam, band_limit=12)

    def test_density_invariants(self):
        with pytest.raises(ValueError):
            HarmonicDensity(coeffs=np.ones(5, dtype=complex), eta=1.0)
        with pytest.raises(ValueError):
            HarmonicDensity(coeffs=np.full(4, np.nan, dtype=complex), eta=1.0)
        assert HarmonicDensity(coeffs=np.zeros(16, dtype=complex), eta=1.0).band_limit == 3

    @pytest.mark.parametrize("variable,expected", [(True, 1), (False, 0)])
    def test_multiplication_built_once(self, monkeypatch, variable, expected):
        # count through every module binding, as a `from … import` copy
        # would otherwise be missed
        original = layer_ops.assemble_multiplication
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("impscat") and \
                    getattr(module, "assemble_multiplication", None) is original:
                monkeypatch.setattr(module, "assemble_multiplication", counting)
        coeffs = np.array([np.sqrt(4 * np.pi), 0.0, 0.1 if variable else 0.0, 0.0])
        solve_density(WaveContext(k=1.0, omega=ZHAT), GEOM, ImpedanceField(coeffs),
                      band_limit=12)
        assert len(calls) == expected

    @pytest.mark.parametrize("k,lam0,band_limit", [
        (0.5, 0.0, 20), (1.0, 1.0, 20), (2.0, 5.0, 20), (1.0, 1.0, 48),
    ], ids=["0.5-0.0", "1.0-1.0", "2.0-5.0", "1.0-1.0-N48"])
    def test_coupled_path_matches_mie(self, k, lam0, band_limit):
        # 1e-12 of Y_1^0 makes λ variable, so the coupled (b > 0) band runs
        lam = ImpedanceField(np.array([lam0 * np.sqrt(4 * np.pi), 0.0, 1e-12, 0.0]))
        assert not lam.is_constant
        ctx = WaveContext(k=k, omega=ZHAT)
        ff = solve_farfield(ctx, GEOM, lam, band_limit=band_limit)
        assert rel_l2(ff, mie_farfield(ctx, 1.0, lam0, rule=ff.rule)) <= 1e-10


def count_calls(monkeypatch, names):
    """Count the calls of each named specfun function through every impscat
    module binding of it; returns the live {name: count} dict."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(specfun, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("impscat") and \
                    getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    return counts


class TestContextTables:
    """A context builds its modal and plane-wave tables once, for itself only."""

    def test_sweep_builds_each_table_once(self, monkeypatch):
        counts = count_calls(monkeypatch, ("sph_bessel_j", "sph_hankel1",
                                           "plane_wave_amplitudes"))
        shape = np.zeros(9)
        shape[[2, 4, 6, 8]] = [0.3, -0.2, 0.25, 0.1]
        ctx = WaveContext(k=1.0, omega=ZHAT)
        stability_sweep(ImpedanceField.constant(1.5), shape, [0.0125, 0.025, 0.05, 0.1],
                        ctx, GEOM, band_limit=24)
        # h_n and h_n' at ka (j_n, j_n' are their real parts), and one set
        # of plane-wave amplitudes
        assert counts == {"sph_bessel_j": 0, "sph_hankel1": 2, "plane_wave_amplitudes": 1}
        # a fresh context at the same wave reuses nothing
        solve_farfield(WaveContext(k=1.0, omega=ZHAT), GEOM, ImpedanceField.constant(1.5),
                       band_limit=24)
        assert counts == {"sph_bessel_j": 0, "sph_hankel1": 4, "plane_wave_amplitudes": 2}

    def test_tables_are_read_only(self):
        ctx = WaveContext(k=1.0, omega=ZHAT)
        table = ctx.modal(1.0, 6)
        for values in (table.jn, table.jnp, table.hn, table.hnp, table.s0sq,
                       ctx.incident_amplitudes(6)):
            with pytest.raises(ValueError):
                values[0] = 0.0

    def test_table_is_keyed_by_its_inputs(self):
        assert [f.name for f in dataclasses.fields(ModalTable) if f.init] == \
            ["k", "a", "band_limit"]
        table = WaveContext(k=2.0, omega=ZHAT).modal(1.5, 6)
        assert table == ModalTable(2.0, 1.5, 6) != ModalTable(2.0, 1.5, 7)

    def test_context_keeps_the_latest_key(self):
        ctx = WaveContext(k=1.0, omega=ZHAT)
        table, amps = ctx.modal(1.0, 8), ctx.incident_amplitudes(8)
        assert ctx.modal(1.0, 8) is table and ctx.incident_amplitudes(8) is amps
        assert ctx.modal(2.0, 8).a == 2.0 and ctx.modal(1.0, 8) is not table
        assert ctx.incident_amplitudes(12).size == num_harmonics(12)

    @settings(max_examples=30, deadline=None)
    @given(log_k=st.floats(-3.0, 2.0), a=st.floats(0.5, 2.0),
           band_limit=st.integers(1, 60))
    def test_table_and_reuse_match_direct_calls(self, log_k, a, band_limit):
        # NaN entries at high degree compare equal; they are the special
        # functions' own, and the solve rejects them
        k = 10.0 ** log_k
        n, ka, degs = np.arange(band_limit + 1), k * a, harmonic_degrees(band_limit)
        with np.errstate(all="ignore"):
            table = ModalTable(k, a, band_limit)
            direct = {"jn": sph_bessel_j(n, ka), "jnp": sph_bessel_j(n, ka, derivative=True),
                      "hn": sph_hankel1(n, ka), "hnp": sph_hankel1(n, ka, derivative=True)}
        for name, values in direct.items():
            np.testing.assert_array_equal(getattr(table, name), values[degs])
        np.testing.assert_array_equal(table.s0sq, (2.0 * a / (2 * degs + 1)) ** 2)

        geom = ObstacleGeometry(radius=a)

        def outcome(ctx, value):
            with np.errstate(all="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # plane-wave tail
                try:
                    return solve_farfield(ctx, geom, ImpedanceField.constant(value),
                                          band_limit=band_limit).samples
                except (RuntimeError, ValueError) as exc:
                    return type(exc)

        reused = WaveContext(k=k, omega=ZHAT)
        outcome(reused, 0.5)  # fills the context's tables
        again, fresh = outcome(reused, 1.0), outcome(WaveContext(k=k, omega=ZHAT), 1.0)
        if isinstance(fresh, type):
            assert again is fresh
        else:
            np.testing.assert_array_equal(again, fresh)


class TestCouplingTravelsWithDensity:
    # η only makes the combined-field system uniquely solvable: φ depends on
    # it, u∞ and the boundary traces do not, since each evaluator reads the
    # coupling from the density it was solved with
    @pytest.mark.parametrize("k", [0.5, 2.0])
    @pytest.mark.parametrize("degree2", [False, True], ids=["constant", "degree-2"])
    def test_fields_independent_of_eta(self, k, degree2):
        coeffs = np.zeros(9)
        coeffs[0] = 1.5 * np.sqrt(4 * np.pi)
        if degree2:
            coeffs[[2, 3, 6, 8]] = [0.2, -0.1, 0.15, 0.05]
        lam = ImpedanceField(coeffs)
        ctx = WaveContext(k=k, omega=np.array([1.0, 2.0, 2.0]) / 3.0)
        rule = gauss_product_rule(22)

        def fields(eta):
            phi = solve_density(ctx, GEOM, lam, eta, 20)
            u, dnu, _ = boundary_traces(phi, ctx, GEOM, lam, rule=rule)
            return phi, farfield(phi, ctx, GEOM, rule).samples, u, dnu

        ref_phi, *ref = fields(None)
        for eta in (0.5, 3.0):
            phi, *got = fields(eta)
            assert phi.eta == eta
            assert np.linalg.norm(phi.coeffs - ref_phi.coeffs) > 1e-3 * np.linalg.norm(
                ref_phi.coeffs)
            for a, b in zip(got, ref):
                assert np.sqrt(rule.integrate(np.abs(a - b) ** 2).real) <= 1e-13 * np.sqrt(
                    rule.integrate(np.abs(b) ** 2).real)


def banded(diag, b):
    """``diag`` as a matrix in band storage of half-bandwidth b."""
    entries = np.zeros((2 * b + 1, diag.size), dtype=complex)
    entries[b] = diag
    return entries


class TestSingularityCheck:
    """The solve's rcond decides singularity, relative to the matrix scale.

    Each check runs on one diagonal stored at half-bandwidth 0 and at 1.
    """

    ctx = WaveContext(k=1.0, omega=ZHAT)
    lam = ImpedanceField.constant(1.0)
    nb = 12

    def assembled(self):
        return assemble_combined_system(ModalTable(1.0, 1.0, self.nb),
                                        multiplication_operator(self.lam, self.nb),
                                        1.0).entries[0]

    def solve_with(self, monkeypatch, entries):
        system = BoundaryOperatorMatrix(entries=entries)
        monkeypatch.setattr(forward, "assemble_combined_system",
                            lambda *args, **kwargs: system)
        return solve_density(self.ctx, GEOM, self.lam, band_limit=self.nb)

    def test_scaled_system_solves(self, monkeypatch):
        phi = solve_density(self.ctx, GEOM, self.lam, band_limit=self.nb)
        diag = 1e-13 * self.assembled()
        for entries in (banded(diag, 0), banded(diag, 1)):
            scaled = self.solve_with(monkeypatch, entries)
            assert np.allclose(scaled.coeffs, 1e13 * phi.coeffs, rtol=1e-12, atol=0.0)

    def test_ill_conditioned_raises(self, monkeypatch):
        diag = np.ones(num_harmonics(self.nb), dtype=complex)
        diag[-1] = 1e-14
        for entries in (banded(diag, 0), banded(diag, 1)):
            with pytest.raises(SingularSystemError):
                self.solve_with(monkeypatch, entries)

    def test_exactly_singular_raises_without_warning(self, monkeypatch):
        diag = np.ones(num_harmonics(self.nb), dtype=complex)
        diag[-1] = 0.0
        for entries in (banded(diag, 0), banded(diag, 1)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SingularSystemError):
                    self.solve_with(monkeypatch, entries)

    def test_non_finite_entry_raises(self, monkeypatch):
        diagonal, off_diagonal = banded(self.assembled(), 0), banded(self.assembled(), 1)
        diagonal[0, 3] = np.nan
        off_diagonal[0, 5] = np.nan  # A[4, 5], inside the band
        for entries in (diagonal, off_diagonal):
            with pytest.raises(SingularSystemError):
                self.solve_with(monkeypatch, entries)


class TestScatteredField:
    def setup_method(self):
        self.ctx = WaveContext(k=1.0, omega=ZHAT)
        self.lam = ImpedanceField.constant(1.0)
        self.phi = solve_density(self.ctx, GEOM, self.lam, band_limit=24)

    def test_matches_mie_near_field(self):
        pts = np.array([[2.0, 0.0, 0.0], [0.0, 1.5, 2.0], [-3.0, 0.5, -1.0]])
        mine = eval_scattered(pts, self.phi, self.ctx, GEOM)
        ref = mie_scattered(pts, self.ctx, 1.0, 1.0)
        assert np.max(np.abs(mine - ref)) < 1e-10
        # on the boundary every term of the series is at its largest
        edge = np.array([[0.0, 0.6, 0.8]]) * (1.0 + 1e-9)
        with pytest.warns(UserWarning, match="close to the boundary"):
            mine = eval_scattered(edge, self.phi, self.ctx, GEOM)
        assert np.max(np.abs(mine - mie_scattered(edge, self.ctx, 1.0, 1.0))) < 1e-10

    def test_interior_rejected(self):
        with pytest.raises(ValueError):
            eval_scattered(np.array([[0.0, 0.0, 0.5]]), self.phi, self.ctx, GEOM)

    @pytest.mark.parametrize("evaluate", [
        lambda x, phi, ctx: eval_scattered(x, phi, ctx, GEOM),
        lambda x, phi, ctx: radial_derivative(x, phi, ctx, GEOM),
        lambda x, phi, ctx: mie_scattered(x, ctx, 1.0, 1.0),
    ], ids=["eval_scattered", "scattered_radial_derivative", "mie_scattered"])
    def test_interior_point_raises(self, evaluate):
        with pytest.raises(ValueError):
            evaluate(np.array([[0.0, 0.5, 0.0]]), self.phi, self.ctx)

    def test_near_boundary_warning(self):
        with pytest.warns(UserWarning):
            eval_scattered(np.array([[0.0, 0.0, 1.01]]), self.phi, self.ctx, GEOM)

    @pytest.mark.parametrize("radius,order", [(1.5, 24), (8.0, 24), (3.0, 12), (3.0, 40)])
    def test_shell_matches_point_path(self, radius, order):
        # the rule may be coarser or finer than the density's N = 24
        rule = gauss_product_rule(order)
        shell = scattered_on_shell(self.phi, self.ctx, GEOM, radius, rule)
        points = eval_scattered(radius * rule.points(), self.phi, self.ctx, GEOM)
        np.testing.assert_allclose(shell, points, rtol=0.0,
                                   atol=1e-14 * np.abs(points).max())

    def test_shell_keeps_point_path_checks(self):
        rule = gauss_product_rule(8)
        for radius in (0.5, 1.0):
            with pytest.raises(ValueError):
                scattered_on_shell(self.phi, self.ctx, GEOM, radius, rule)
        with pytest.warns(UserWarning, match="close to the boundary"):
            scattered_on_shell(self.phi, self.ctx, GEOM, 1.01, rule)

    def test_farfield_extrapolation(self):
        ff = farfield(self.phi, self.ctx, GEOM)
        xhat = ff.rule.points()[37]
        uinf = ff.samples[37]
        rs = np.geomspace(1e2, 1e4, 9)
        errs = [abs(r * np.exp(-1j * self.ctx.k * r)
                    * eval_scattered((r * xhat)[None], self.phi, self.ctx, GEOM)[0]
                    - uinf) for r in rs]
        slope = np.polyfit(np.log(rs), np.log(errs), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.05)

    def test_extrapolation_bound_at_1e3(self):
        ff = farfield(self.phi, self.ctx, GEOM)
        r = 1e3
        pts = r * ff.rule.points()
        us = eval_scattered(pts, self.phi, self.ctx, GEOM)
        sup = np.max(np.abs(r * np.exp(-1j * self.ctx.k * r) * us - ff.samples))
        assert sup <= 10.0 / r

    def test_sommerfeld_residual(self):
        xhat = np.array([0.6, 0.0, 0.8])
        rs = np.geomspace(10.0, 100.0, 8)
        resid = []
        for r in rs:
            pts = (r * xhat)[None]
            us = eval_scattered(pts, self.phi, self.ctx, GEOM)[0]
            dus = radial_derivative(pts, self.phi, self.ctx, GEOM)[0]
            resid.append(abs(dus - 1j * self.ctx.k * us))
        slope = np.polyfit(np.log(rs), np.log(resid), 1)[0]
        assert slope <= -1.0 + 0.1

    def test_axisymmetry(self):
        # incidence along z with constant impedance: no azimuthal dependence
        ff = farfield(self.phi, self.ctx, GEOM)
        variance = max(float(np.mean(np.abs(ring - ring.mean()) ** 2))
                       for ring in ff.samples.reshape(ff.rule.order + 1, -1))
        assert variance <= 1e-10


def mp_mie_coefficient(k, a, lam0, n):
    """−(k j_n' + iλ₀ j_n)/(k h_n' + iλ₀ h_n) at ka, at 40 digits, with
    f_n' = f_{n−1} − (n+1) f_n/x (f_0' = −f_1)."""
    import mpmath as mp

    with mp.workdps(40):
        k, x = mp.mpf(k), mp.mpf(k) * mp.mpf(a)

        def radial(bessel, m):
            return mp.sqrt(mp.pi / (2 * x)) * bessel(m + mp.mpf(1) / 2, x)

        def with_slope(bessel):
            value = radial(bessel, n)
            slope = radial(bessel, n - 1) - (n + 1) * value / x if n else -radial(bessel, 1)
            return value, slope

        (jn, jp), (yn, yp) = with_slope(mp.besselj), with_slope(mp.bessely)
        return complex(-(k * jp + 1j * lam0 * jn)
                       / (k * mp.mpc(jp, yp) + 1j * lam0 * mp.mpc(jn, yn)))


class TestMieOracle:
    def test_vanishing_obstacle(self):
        norms = []
        for ka in (0.5, 0.1, 0.02):
            ctx = WaveContext(k=1.0, omega=ZHAT)
            norms.append(mie_farfield(ctx, ka, 0.0).norm())
        assert norms[0] > norms[1] > norms[2]
        assert norms[2] < 1e-4

    def test_negative_impedance_rejected(self):
        with pytest.raises(ValueError):
            mie_farfield(WaveContext(k=1.0, omega=ZHAT), 1.0, -1.0)

    def test_band_limit_is_checked_past_degree_400(self):
        # k = 395 starts at degree 403, where the boundary term is 0.22 of
        # the largest: the series is cut there, so no degree is returned
        assert forward._mie_band_limit(300.0, 1.0, 1.0) == 372
        with pytest.raises(forward.ResolutionError):
            forward._mie_band_limit(395.0, 1.0, 1.0)

    def test_high_precision_reference_value(self):
        # golden check: forward amplitude at ka = 1, lambda = 1 from an
        # independent arbitrary-precision series evaluation
        import mpmath as mp

        with mp.workdps(40):
            k = mp.mpf(1)
            total = mp.mpf(0) + 0j
            for n in range(25):
                jn = mp.sqrt(mp.pi / (2 * k)) * mp.besselj(n + mp.mpf(1) / 2, k)
                yn = mp.sqrt(mp.pi / (2 * k)) * mp.bessely(n + mp.mpf(1) / 2, k)
                jp = (mp.sqrt(mp.pi / (2 * k)) * mp.besselj(n + mp.mpf(1) / 2, k,
                                                            derivative=1)
                      - jn / (2 * k))
                yp = (mp.sqrt(mp.pi / (2 * k)) * mp.bessely(n + mp.mpf(1) / 2, k,
                                                            derivative=1)
                      - yn / (2 * k))
                hn = mp.mpc(jn, yn)
                hp = mp.mpc(jp, yp)
                refl = -(k * jp + 1j * jn) / (k * hp + 1j * hn)
                # u_inf(zhat) mode sum: (2n+1)/k * (-i)^{n+1} i^n refl
                total += (2 * n + 1) / k * (-1j) ** (n + 1) * (1j) ** n * complex(refl)
        from impscat.forward import mie_mode_coefficients

        coeffs = mie_mode_coefficients(1.0, 1.0, 1.0, 24)
        mine = sum((2 * n + 1) / 1.0 * (-1j) ** (n + 1) * (1j) ** n * coeffs[n]
                   for n in range(25))
        assert complex(mine) == pytest.approx(complex(total), rel=1e-12)


    def test_overflowing_hankel_raises(self):
        with pytest.raises(NumericalError, match="degree 150, ka = 1$"):
            forward.mie_mode_coefficients(1.0, 1.0, 1.0, 200)
        assert np.all(np.isfinite(forward.mie_mode_coefficients(1.0, 1.0, 1.0, 149)))

    def test_large_hankel_derivative_times_k_stays_finite(self):
        # ka = 1: h_149' ≈ 2e306 is finite but k·h_149' is not; warnings are
        # errors under pytest.  Below 1e-300 the float result underflows.
        coeffs = forward.mie_mode_coefficients(1000.0, 1e-3, 1.0, 149)
        assert np.all(np.isfinite(coeffs))
        ref = np.array([mp_mie_coefficient(1000.0, 1e-3, 1.0, n) for n in range(150)])
        assert np.all(np.abs(coeffs - ref) <= 1e-12 * np.abs(ref) + 1e-300)

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("lam0", [0.0, 1.0, 5.0])
    def test_coefficients_match_the_undivided_quotient(self, k, lam0):
        # −(k j_n' + iλ₀ j_n)/(k h_n' + iλ₀ h_n) as written, to 1e-14 where
        # it is a normal float
        n = np.arange(41)
        hn, hnp = specfun.sph_hankel1(n, k), specfun.sph_hankel1(n, k, derivative=True)
        quotient = -((k * specfun.sph_bessel_j(n, k, derivative=True)
                      + 1j * lam0 * specfun.sph_bessel_j(n, k)) / (k * hnp + 1j * lam0 * hn))
        coeffs = forward.mie_mode_coefficients(k, 1.0, lam0, 40)
        assert np.all(np.abs(coeffs - quotient) <= 1e-14 * np.abs(quotient) + 1e-300)

    @pytest.mark.parametrize("k,band_limit", [(1.0, 150), (1e-3, 120)])
    def test_solve_past_the_overflow_is_a_numerical_error(self, k, band_limit):
        # not SingularSystemError: the table is rejected before any system
        with pytest.raises(NumericalError):
            solve_farfield(WaveContext(k=k, omega=ZHAT), GEOM,
                           ImpedanceField.constant(1.0), band_limit=band_limit)


class TestRuleSynthesis:
    def test_high_frequency_matches_mie(self):
        # k = 100 at N = 130; the Mie series (N = 148) folds onto the rule
        ctx = WaveContext(k=100.0, omega=ZHAT)
        ff = solve_farfield(ctx, GEOM, ImpedanceField.constant(1.0), band_limit=130)
        ref = mie_farfield(ctx, 1.0, 1.0, rule=ff.rule)
        assert np.all(np.isfinite(ff.samples))
        assert rel_l2(ff, ref) <= 1e-8

    def test_farfield_memory(self):
        import tracemalloc

        ctx = WaveContext(k=1.0, omega=ZHAT)
        phi = solve_density(ctx, GEOM, ImpedanceField.constant(1.0), band_limit=40)
        tracemalloc.start()
        try:
            farfield(phi, ctx, GEOM)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6  # the dense (N+1)² × npts matrix alone is 90 MB


class TestEnergyIdentity:
    def test_residual_small(self):
        ctx = WaveContext(k=1.0, omega=ZHAT)
        lam = ImpedanceField.constant(1.0)
        phi = solve_density(ctx, GEOM, lam, band_limit=24)
        u, dnu, rule = boundary_traces(phi, ctx, GEOM, lam)
        res = energy_identity(GEOM, lam, u, dnu, rule)
        ds = GEOM.surface_element(rule.mu, rule.phi) * rule.weights
        absorb = np.sum(ds * np.abs(u) ** 2)
        assert abs(res) <= 1e-8 * absorb

    def test_neumann_flux_vanishes(self):
        ctx = WaveContext(k=1.0, omega=ZHAT)
        lam = ImpedanceField.constant(0.0)
        phi = solve_density(ctx, GEOM, lam, band_limit=24)
        u, dnu, rule = boundary_traces(phi, ctx, GEOM, lam)
        res = energy_identity(GEOM, lam, u, dnu, rule)
        assert abs(res) <= 1e-10

    def test_quadratic_homogeneity(self):
        ctx = WaveContext(k=1.0, omega=ZHAT)
        lam = ImpedanceField.constant(1.0)
        phi = solve_density(ctx, GEOM, lam, band_limit=16)
        u, dnu, rule = boundary_traces(phi, ctx, GEOM, lam)
        base_flux = energy_identity(GEOM, lam, u, dnu, rule)
        scaled = energy_identity(GEOM, lam, 2.0 * u, 2.0 * dnu, rule)
        assert scaled == pytest.approx(4.0 * base_flux, abs=1e-12)

    def test_traces_warn_on_plane_wave_tail(self):
        # the traces synthesize the incident series cut at the density's
        # degree N; along the z axis only the m = 0 amplitudes are nonzero,
        # so the check must read the whole degree-N block, not its last entry
        lam = ImpedanceField.constant(1.0)
        for k, nb, warns in ((10.0, 4, True), (0.5, 24, False)):
            ctx = WaveContext(k=k, omega=ZHAT)
            phi = HarmonicDensity(coeffs=np.zeros(num_harmonics(nb), dtype=complex), eta=1.0)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                boundary_traces(phi, ctx, GEOM, lam)
            messages = [str(w.message) for w in caught]
            if warns:
                assert len(messages) == 1 and "tail at degree 4" in messages[0]
            else:
                assert messages == []


class TestUniformBound:
    def test_family_within_factor_two(self):
        ctx = WaveContext(k=1.0, omega=ZHAT)
        fields = [ImpedanceField.constant(v, bound=5.0) for v in (0.0, 2.5, 5.0)]
        report = uniform_bound_check(ctx, GEOM, fields, band_limit=20)
        assert all(np.isfinite(s) for s in report.sups)
        assert report.spread <= 2.0

    def test_empty_family(self):
        ctx = WaveContext(k=1.0, omega=ZHAT)
        report = uniform_bound_check(ctx, GEOM, [], band_limit=8)
        assert report.sups == []
        assert report.family_max == 0.0

    def test_triangle_inequality_diagnostic(self):
        ctx = WaveContext(k=1.0, omega=ZHAT)
        lam = ImpedanceField.constant(1.0)
        phi = solve_density(ctx, GEOM, lam, band_limit=20)
        pts = 2.0 * gauss_product_rule(12).points()
        us = eval_scattered(pts, phi, ctx, GEOM)
        total = ctx.incident(pts) + us
        assert np.all(np.abs(total) >= 1.0 - np.max(np.abs(us)) - 1e-12)


class TestContinuityInImpedance:
    def test_linear_slope(self):
        ctx = WaveContext(k=1.0, omega=ZHAT)
        rule = gauss_product_rule(16)
        base = solve_farfield(ctx, GEOM, ImpedanceField.constant(1.0),
                              band_limit=16, rule=rule)
        eps = np.array([0.1, 0.05, 0.025, 0.0125, 0.00625])
        diffs = []
        for e in eps:
            ff = solve_farfield(ctx, GEOM, ImpedanceField.constant(1.0 + e),
                                band_limit=16, rule=rule)
            diffs.append(np.sqrt(np.real(
                rule.integrate(np.abs(ff.samples - base.samples) ** 2))))
        slope = np.polyfit(np.log(eps), np.log(diffs), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.1)
