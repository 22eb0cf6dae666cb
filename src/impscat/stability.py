"""Inverse-problem harness: far-field distances, stability bounds, sweeps.

The forward map λ ↦ u∞ is only log-log stable, so the quantitative objects
here are moduli of continuity: the double-log bound of the headline
stability theorem, the single-log modulus θ(δ), and the boundary-data
bound with its minimizing auxiliary parameter.  ``stability_sweep`` turns
these into numerical witnesses: it perturbs an impedance along a fixed
shape, records (ε, δ, sup-distance) and fits the smallest dominating curve
of the double-log form over a coarse σ grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import FarField, WaveContext, scattered_on_shell, solve_density, solve_farfield
from .geometry import ObstacleGeometry
from .layer_ops import ImpedanceField, admissibility_rule
from .specfun import _complex_coefficients, _synthesize, gauss_product_rule, num_harmonics

SIGMA_GRID = (0.25, 0.5, 1.0, 2.0)


# ---------------------------------------------------------------------------
# Closed-form bound evaluators
# ---------------------------------------------------------------------------

def theorem13_bound(delta: float, c: float, sigma: float) -> float:
    """Double-log stability bound C·|ln(ln|lnδ|²/|lnδ|)|^{−σ}."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    abs_log = abs(np.log(delta))
    if abs_log <= 1.0:
        raise ValueError("delta too large: |ln delta| must exceed 1")
    inner = np.log(abs_log) ** 2 / abs_log
    if inner >= 1.0 or inner <= 0.0:
        raise ValueError("delta outside the asymptotic regime (inner ratio not in (0,1))")
    return c * abs(np.log(inner)) ** (-sigma)


def bushuyev_theta(delta: float) -> float:
    """Single-log modulus θ(δ) = 1/(1 + ln(|lnδ| + e))."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return 1.0 / (1.0 + np.log(abs(np.log(delta)) + np.e))


def prop41_stationary_s(c: float, sigma: float, n: float) -> float:
    """Root ŝ of −σC/ŝ^{σ+1} + N e^ŝ = 0 by bisection, to 1e-14 relative."""
    if c <= 0 or sigma <= 0 or n <= 0:
        raise ValueError("c, sigma, n must be positive")

    def resid(s):
        return -sigma * c / s ** (sigma + 1.0) + n * np.exp(s)

    lo, hi = 1e-12, 1.0
    while resid(hi) < 0:
        hi *= 2.0
        if hi > 1e6:
            raise RuntimeError("stationarity root not bracketed")
    while resid(lo) > 0:
        lo /= 2.0
        if lo < 1e-300:
            raise RuntimeError("stationarity root not bracketed")
    while hi - lo > 1e-14 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if resid(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def prop41_bound(fu_norm: float, c: float, sigma: float) -> float:
    """Boundary-impedance bound C/|ln fu|^σ for fu in the log regime."""
    if not 0.0 < fu_norm < 1.0:
        raise ValueError("fu_norm must lie in (0, 1)")
    return c / abs(np.log(fu_norm)) ** sigma


# ---------------------------------------------------------------------------
# Far-field distance and sweeps
# ---------------------------------------------------------------------------

def far_field_delta(lam_a: ImpedanceField, lam_b: ImpedanceField,
                    ctx: WaveContext, geom: ObstacleGeometry,
                    band_limit: int = 24) -> float:
    """L²(S²) distance between the far fields of two impedances."""
    rule = gauss_product_rule(band_limit)
    fa = solve_farfield(ctx, geom, lam_a, band_limit, rule)
    fb = solve_farfield(ctx, geom, lam_b, band_limit, rule)
    return _far_field_distance(fa.samples, fb.samples, rule)


def _far_field_distance(samples_a, samples_b, rule) -> float:
    """δ = ‖u∞_a − u∞_b‖_{L²(S²)} for samples on the same rule."""
    return float(np.sqrt(np.real(rule.integrate(np.abs(samples_a - samples_b) ** 2))))


def impedance_sup_distance(lam_a: ImpedanceField, lam_b: ImpedanceField) -> float:
    """Max-norm distance on the order-64 boundary grid.

    The coefficient difference is evaluated once, by the ring transform.
    """
    a, b = lam_a.coefficients, lam_b.coefficients
    diff = np.zeros(max(a.size, b.size))
    diff[:a.size] += a
    diff[:b.size] -= b
    values = _synthesize(_complex_coefficients(diff), gauss_product_rule(64)).real
    return float(np.max(np.abs(values)))


@dataclass(frozen=True)
class StabilityRecord:
    epsilon: float
    delta: float
    dsup: float
    bound: float


@dataclass(frozen=True)
class StabilitySweep:
    records: list
    c_fit: float
    sigma_fit: float

    def dominated(self) -> bool:
        return all(r.dsup <= r.bound * (1 + 1e-12) for r in self.records
                   if r.epsilon > 0)


def _perturbed(base: ImpedanceField, shape: np.ndarray,
               eps: float) -> ImpedanceField:
    shape = np.asarray(shape, dtype=float)
    n = max(base.coefficients.size, shape.size)
    coeffs = np.zeros(n)
    coeffs[: base.coefficients.size] = base.coefficients
    coeffs[: shape.size] += eps * shape
    return ImpedanceField(coefficients=coeffs, bound=np.inf)


def fit_dominating_curve(deltas, dsups):
    """Smallest-C curve of the double-log form dominating all records.

    For each σ in ``SIGMA_GRID``, C_σ = max dsup / ``theorem13_bound(δ, 1, σ)``;
    the (C, σ) with the smallest C wins.  Records outside the bound's
    admissible δ range, where it raises, are skipped (they cannot constrain
    an asymptotic modulus).
    """
    best = (np.inf, SIGMA_GRID[0])
    for sigma in SIGMA_GRID:
        needed = []
        for d, s in zip(deltas, dsups):
            try:
                needed.append(s / theorem13_bound(d, 1.0, sigma))
            except ValueError:
                continue
        if needed and max(needed) < best[0]:
            best = (max(needed), sigma)
    if not np.isfinite(best[0]):
        raise RuntimeError("no sweep record lies in the bound's admissible range")
    return best


def stability_sweep(base: ImpedanceField, shape, eps_list,
                    ctx: WaveContext, geom: ObstacleGeometry,
                    band_limit: int = 24) -> StabilitySweep:
    """Perturbation sweep with a fitted dominating stability curve.

    ``eps_list`` holds the perturbation sizes ε: finite, nonnegative and
    at least one of them positive (the fit needs a perturbed record).
    """
    eps_sorted = sorted(float(e) for e in eps_list)
    if not (eps_sorted and np.all(np.isfinite(eps_sorted))
            and eps_sorted[0] >= 0.0 and eps_sorted[-1] > 0.0):
        raise ValueError("eps_list must hold finite sizes ε >= 0, at least one positive")
    rule = gauss_product_rule(band_limit)
    base_ff = solve_farfield(ctx, geom, base, band_limit, rule)
    rows = []
    for eps in eps_sorted:
        lam_p = _perturbed(base, shape, eps)
        if eps == 0.0:
            rows.append((0.0, 0.0, 0.0))
            continue
        ff = solve_farfield(ctx, geom, lam_p, band_limit, rule)
        delta = _far_field_distance(ff.samples, base_ff.samples, rule)
        rows.append((eps, delta, impedance_sup_distance(base, lam_p)))
    positive = [r for r in rows if r[0] > 0]
    c_fit, sigma_fit = fit_dominating_curve(
        [r[1] for r in positive], [r[2] for r in positive]
    )
    records = []
    for eps, delta, dsup in rows:
        try:
            bound = theorem13_bound(delta, c_fit, sigma_fit) if delta > 0 else 0.0
        except ValueError:
            bound = np.inf
        records.append(StabilityRecord(epsilon=eps, delta=delta, dsup=dsup,
                                       bound=bound))
    return StabilitySweep(records=records, c_fit=c_fit, sigma_fit=sigma_fit)


# ---------------------------------------------------------------------------
# Exterior lower bound scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lemma51Report:
    qualifying_radius: float
    radii: np.ndarray
    sup_scattered: np.ndarray

    @property
    def found(self) -> bool:
        return np.isfinite(self.qualifying_radius)


def lemma51_check(ctx: WaveContext, geom: ObstacleGeometry, lam: ImpedanceField,
                  r_candidates, band_limit: int = 24) -> Lemma51Report:
    """Smallest candidate R with |u| ≥ 1/2 on every sampled radius ≥ R.

    Uses the triangle inequality |u| ≥ 1 − |u^s| plus a direct min over
    the angular grid, scanning a dense ladder of radii per candidate; each
    radius is one shell of the order-24 product rule.
    """
    phi = solve_density(ctx, geom, lam, band_limit=band_limit)
    rads = np.unique(np.concatenate(
        [np.asarray(r_candidates, dtype=float),
         np.geomspace(min(r_candidates), 4.0 * max(r_candidates), 24)]
    ))
    rule = gauss_product_rule(24)
    dirs = rule.points()
    sups = np.empty(rads.size)
    mins = np.empty(rads.size)
    for i, rr in enumerate(rads):
        us = scattered_on_shell(phi, ctx, geom, rr, rule)
        total = ctx.incident(rr * dirs) + us
        sups[i] = float(np.max(np.abs(us)))
        mins[i] = float(np.min(np.abs(total)))
    qualifying = np.inf
    for r0 in sorted(r_candidates):
        if np.all(mins[rads >= r0] >= 0.5):
            qualifying = float(r0)
            break
    return Lemma51Report(qualifying_radius=qualifying, radii=rads,
                         sup_scattered=sups)


# ---------------------------------------------------------------------------
# Reconstruction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReconstructionReport:
    impedance: ImpedanceField
    misfit: float
    gradient_norm: float
    converged: bool
    iterations: int


def reconstruct(data: FarField, ctx: WaveContext, geom: ObstacleGeometry,
                prior: ImpedanceField, reg: float, band_limit: int = 12,
                degree: int = 4) -> ReconstructionReport:
    """Regularized least-squares fit of a low-degree impedance to far data.

    Minimizes ‖u∞(λ) − data‖²_{L²(S²)} + reg·‖λ − prior‖² over impedances
    with real-harmonic degree ≤ 4.  L-BFGS-B runs unbounded; nonnegativity
    on the grid every :class:`ImpedanceField` is checked on (its
    :func:`~impscat.layer_ops.admissibility_rule`) comes from penalizing grid
    negativity in the objective and from shifting the constant mode up by
    the grid minimum, where that is negative, before every solve and for
    the returned impedance.  A prior that already fits the data to rounding
    is returned at once as converged (0 iterations, gradient_norm NaN:
    L-BFGS-B would only see a finite-difference gradient of rounding noise
    there, above its gtol).
    """
    from scipy.optimize import minimize  # here, not at the top: it slows every CLI start

    if reg <= 0:
        raise ValueError("regularization weight must be positive")
    n_coef = num_harmonics(degree)
    prior_vec = np.zeros(n_coef)
    m = min(n_coef, prior.coefficients.size)
    prior_vec[:m] = prior.coefficients[:m]
    rule = data.rule
    grid_rule = admissibility_rule(degree)

    def grid_values(vec):
        return _synthesize(_complex_coefficients(vec), grid_rule).real

    def objective(vec):
        vals = grid_values(vec)
        penalty = float(np.sum(np.minimum(vals, 0.0) ** 2))
        try:
            lam = _clip_field(vec, vals)
        except ValueError:
            return 1e6 + 1e3 * penalty
        ff = solve_farfield(ctx, geom, lam, band_limit, rule)
        mis = float(np.real(rule.integrate(np.abs(ff.samples - data.samples) ** 2)))
        return mis + reg * float(np.sum((vec - prior_vec) ** 2)) + 1e3 * penalty

    x0 = prior_vec.copy()
    data_sq = float(np.real(rule.integrate(np.abs(data.samples) ** 2)))
    if objective(x0) <= np.finfo(float).eps * data_sq:
        x, converged, iterations, gradient_norm = x0, True, 0, np.nan
    else:
        result = minimize(objective, x0, method="L-BFGS-B",
                          options={"maxiter": 200, "ftol": 1e-14, "gtol": 1e-10})
        x, converged, iterations = result.x, bool(result.success), int(result.nit)
        gradient_norm = (float(np.max(np.abs(result.jac)))
                         if result.jac is not None else np.nan)
    lam_final = _clip_field(x, grid_values(x))
    ff = solve_farfield(ctx, geom, lam_final, band_limit, rule)
    misfit = float(np.real(rule.integrate(np.abs(ff.samples - data.samples) ** 2)))
    return ReconstructionReport(
        impedance=lam_final, misfit=misfit, gradient_norm=gradient_norm,
        converged=converged, iterations=iterations,
    )


def _clip_field(vec: np.ndarray, grid_values: np.ndarray) -> ImpedanceField:
    """Impedance from coefficients, shifting the mean up if the grid min < 0;
    ``grid_values`` are the coefficients' values on the admissibility rule."""
    vmin = float(grid_values.min())
    out = np.array(vec, dtype=float)
    if vmin < 0:
        out[0] += -vmin * np.sqrt(4.0 * np.pi)
    return ImpedanceField(coefficients=out, bound=np.inf)
