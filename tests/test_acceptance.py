"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line for its criterion, so running
``pytest -v -s tests/test_acceptance.py`` doubles as the acceptance report.
"""

import numpy as np
import pytest

from impscat.carleman import (
    CarlemanSetup,
    PlaneWaves,
    carleman_sides,
    chain_lower_bound,
    random_test_suite,
    three_sphere_check,
)
from impscat.forward import (
    WaveContext,
    boundary_traces,
    energy_identity,
    eval_scattered,
    farfield,
    mie_farfield,
    solve_density,
    solve_farfield,
    uniform_bound_check,
)
from impscat.geometry import ObstacleGeometry, build_cone_chain, chain_ball_count
from impscat.layer_ops import ImpedanceField
from impscat.specfun import gauss_product_rule
from impscat.stability import (
    bushuyev_theta,
    prop41_stationary_s,
    reconstruct,
    stability_sweep,
    theorem13_bound,
)

GEOM = ObstacleGeometry()
ZHAT = np.array([0.0, 0.0, 1.0])


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_01_mie_oracle_equivalence():
    worst = 0.0
    for ka in (0.5, 1.0, 2.0, 4.0):
        ctx = WaveContext(k=ka, omega=ZHAT)
        for lam0 in (0.0, 0.5, 1.0, 5.0):
            ff = solve_farfield(ctx, GEOM, ImpedanceField.constant(lam0),
                                band_limit=24)
            mie = mie_farfield(ctx, 1.0, lam0, rule=ff.rule)
            err = np.sqrt(np.real(ff.rule.integrate(
                np.abs(ff.samples - mie.samples) ** 2))) / mie.norm()
            worst = max(worst, float(err))
    report("criterion 1: Mie-oracle equivalence", worst <= 1e-8,
           f"worst relative L2 error {worst:.2e}")


def test_criterion_02_farfield_asymptotics():
    ctx = WaveContext(k=1.0, omega=ZHAT)
    wave = solve_density(ctx, GEOM, ImpedanceField.constant(1.0), band_limit=24)
    ff = farfield(wave, ctx)
    xhat = ff.rule.points()[11]
    uinf = ff.samples[11]
    rs = np.geomspace(1e2, 1e4, 9)
    errs = [abs(r * np.exp(-1j * ctx.k * r)
                * eval_scattered((r * xhat)[None], wave, ctx, GEOM)[0] - uinf)
            for r in rs]
    slope = float(np.polyfit(np.log(rs), np.log(errs), 1)[0])
    report("criterion 2: far-field O(1/r) asymptotics",
           abs(slope + 1.0) <= 0.05, f"log-log slope {slope:+.4f}")


def test_criterion_03_carleman_suite():
    setup = CarlemanSetup(x0=np.zeros(3), rho=1.0, d=1.0)
    suite = random_test_suite(50, seed=0)
    pairs = [(mult * setup.lambda_threshold, mult * setup.tau_threshold)
             for mult in (1.0, 2.0, 4.0)]
    cases = [res for results in carleman_sides(suite, setup, pairs) for res in results]
    failures = sum(0 if res.holds else 1 for res in cases)
    report("criterion 3: Carleman suite (50 fns x 3 thresholds)",
           len(cases) == 150 and failures == 0,
           f"{failures} failures in {len(cases)} cases")


def test_criterion_04_three_sphere():
    rng = np.random.default_rng(0)
    draws = [(rng.normal(size=3), rng.uniform(0, 2 * np.pi)) for _ in range(8)]
    family = PlaneWaves(2.0, [d for d, _ in draws], [c for _, c in draws])
    fit = three_sphere_check([family], np.array([2.0, 0.0, 0.0]), 0.2)
    ok = (0.01 < fit.alpha < 0.99 and np.isfinite(fit.C)
          and fit.monotonicity_violations == 0)
    report("criterion 4: three-sphere inequality fit", ok,
           f"alpha {fit.alpha:.3f}, C {fit.C:.3e}, "
           f"violations {fit.monotonicity_violations}")


def test_criterion_05_chain_construction():
    n = chain_ball_count(0.1, 8.0, np.pi / 6)
    chain = build_cone_chain(ZHAT, 0.1, GEOM, 8.0)
    nest = float(np.max(chain.nesting_residuals()))
    contained = bool(
        np.all(GEOM.distance_to_boundary(chain.centers) > 3.0 * chain.radii)
        and np.all(np.linalg.norm(chain.centers, axis=1)
                   + 3.0 * chain.radii <= 8.0))
    cb = chain_lower_bound(chain, 0.3, 2.0, 0.5, 0.5, 0.1)
    ok = (n == 22 and chain.count == 22 and nest <= 1e-12 and contained
          and cb.iteration_residual <= 1e-12)
    report("criterion 5: cone-ball chain construction", ok,
           f"N {n}, nesting residual {nest:.1e}, "
           f"exponent residual {cb.iteration_residual:.1e}")


def test_criterion_06_energy_identity():
    ctx = WaveContext(k=1.0, omega=ZHAT)
    lam = ImpedanceField.constant(1.0)
    wave = solve_density(ctx, GEOM, lam, band_limit=24)
    u, dnu, rule = boundary_traces(wave, ctx, GEOM, lam)
    res = energy_identity(GEOM, lam, u, dnu, rule)
    ds = GEOM.surface_element(rule.mu, rule.phi) * rule.weights
    absorb = float(np.sum(ds * np.abs(u) ** 2))
    report("criterion 6: boundary energy identity",
           abs(res) <= 1e-8 * absorb,
           f"residual {abs(res):.2e} vs scale {absorb:.2e}")


def test_criterion_07_stability_sweep_dominance():
    ctx = WaveContext(k=1.0, omega=ZHAT)
    shape = np.array([0.0, 0.0, 1.0, 0.0])
    eps = [0.0125, 0.025, 0.05, 0.1]
    sw = stability_sweep(ImpedanceField.constant(1.0), shape, eps, ctx, GEOM,
                         band_limit=16)
    deltas = [r.delta for r in sw.records]
    decreasing = all(a < b + 1e-10 for a, b in zip(deltas, deltas[1:]))
    sw_ref = stability_sweep(ImpedanceField.constant(1.0), shape, eps, ctx,
                             GEOM, band_limit=24)
    ratio = sw.c_fit / sw_ref.c_fit
    ok = decreasing and sw.dominated() and 0.5 <= ratio <= 2.0
    report("criterion 7: stability sweep dominance", ok,
           f"C {sw.c_fit:.3e} (sigma {sw.sigma_fit}), refinement ratio "
           f"{ratio:.3f}, dominated {sw.dominated()}")


def test_criterion_08_closed_form_bounds():
    v1 = theorem13_bound(np.exp(-np.e**2), 1.0, 1.0)
    e1 = abs(v1 - 1.0 / (2.0 - np.log(4.0)))
    v2 = bushuyev_theta(np.exp(-np.e))
    e2 = abs(v2 - 1.0 / (2.0 + np.log(2.0)))
    s = prop41_stationary_s(1.0, 1.0, 1e-6)
    e3 = abs(-1.0 / s**2 + 1e-6 * np.exp(s))
    ok = e1 <= 1e-14 and e2 <= 1e-14 and e3 <= 1e-12
    report("criterion 8: closed-form bound evaluators", ok,
           f"errors {e1:.1e}, {e2:.1e}, stationarity {e3:.1e}")


def test_criterion_09_reconstruction_round_trip():
    ctx = WaveContext(k=1.0, omega=ZHAT)
    rule = gauss_product_rule(12)
    data = solve_farfield(ctx, GEOM, ImpedanceField.constant(1.0),
                          band_limit=12, rule=rule)
    rep = reconstruct(data, ctx, GEOM, ImpedanceField.constant(0.5),
                      reg=1e-6, band_limit=12)
    recovered = float(rep.impedance.coefficients[0] / np.sqrt(4 * np.pi))
    shape = np.array([0.0, 0.0, 1.0, 0.0])
    sw = stability_sweep(ImpedanceField.constant(1.0), shape, [0.0, 0.05],
                         ctx, GEOM, band_limit=12)
    zero = sw.records[0]
    ok = (abs(recovered - 1.0) <= 1e-3 and zero.delta == 0.0
          and zero.dsup == 0.0)
    report("criterion 9: reconstruction round trip", ok,
           f"recovered {recovered:.6f}, zero-sweep delta {zero.delta}")


def test_criterion_10_uniform_bound_witness():
    ctx = WaveContext(k=1.0, omega=ZHAT)
    fields = [ImpedanceField.constant(v, bound=5.0) for v in (0.0, 2.5, 5.0)]
    rep = uniform_bound_check(ctx, GEOM, fields, band_limit=24)
    finite = all(np.isfinite(s) for s in rep.sups)
    ok = finite and rep.spread <= 2.0
    report("criterion 10: uniform total-field bound", ok,
           f"sups {[f'{s:.3f}' for s in rep.sups]}, spread {rep.spread:.3f}")
