"""Inverse-problem harness: stability bounds, sweeps, reconstruction.

The forward map λ ↦ u∞ is only log-log stable, so the quantitative objects
here are moduli of continuity: the double-log bound of the headline
stability theorem, the single-log modulus θ(δ), and the boundary-data
bound with its minimizing auxiliary parameter.  ``stability_sweep`` turns
these into numerical witnesses: it perturbs an impedance along a fixed
shape, records (ε, δ, sup-distance) and fits the smallest dominating curve
of the double-log form over a coarse σ grid.

The combined-field system is linear in λ, so the perturbed systems
A₀ + εB of one sweep form one shifted family: a single GMRES basis serves
every ε (Frommer & Glässner, SIAM J. Sci. Comput. 19 (1998) 15; Simoncini
& Szyld, Numer. Linear Algebra Appl. 14 (2007) 1), and δ comes from the
amplitude difference α(ε) − α₀ itself, by Parseval, rather than as the
distance of two far fields, which cancels as ε → 0.  The sweep also
reports δ'(0), its Lipschitz slope: at the default ε the records lie in
the linear regime δ ≈ ε·δ'(0), where no logarithmic modulus can show.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .forward import (
    FarField,
    WaveContext,
    _checked_tail,
    scattered_on_shell,
    solve_density,
    solve_farfield,
)
from .geometry import ObstacleGeometry
from .layer_ops import (
    ImpedanceField,
    _gmres,
    _require_admissible,
    admissibility_rule,
    assemble_combined_system,
    assemble_multiplication,
    incident_coefficients,
    multiplication_operator,
)
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
# Sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityRecord:
    epsilon: float
    delta: float
    dsup: float
    bound: float


@dataclass(frozen=True)
class StabilitySweep:
    """The sweep's records, its fitted curve (C, σ), and ``delta_slope``,
    δ'(0) = ‖α'(0)‖₂/k: the far-field distance per unit ε at ε = 0."""

    records: list
    c_fit: float
    sigma_fit: float
    delta_slope: float

    def dominated(self) -> bool:
        return all(r.dsup <= r.bound * (1 + 1e-12) for r in self.records
                   if r.epsilon > 0)


def _perturbed_coefficients(base: ImpedanceField, shape: np.ndarray,
                            eps_list) -> np.ndarray:
    """The real harmonic coefficients of λ₀ + εh, one row per ε of ``eps_list``."""
    coeffs = np.zeros((len(eps_list), max(base.coefficients.size, shape.size)))
    coeffs[:, :base.coefficients.size] = base.coefficients
    coeffs[:, :shape.size] += np.multiply.outer(eps_list, shape)
    return coeffs


def _perturbed(base: ImpedanceField, shape: np.ndarray,
               eps: float) -> ImpedanceField:
    [coeffs] = _perturbed_coefficients(base, np.asarray(shape, dtype=float), [eps])
    return ImpedanceField(coefficients=coeffs, bound=np.inf)


def _trimmed(shape: np.ndarray) -> np.ndarray:
    """``shape``'s coefficients up to the degree of its last nonzero one."""
    size = num_harmonics(isqrt(int(np.flatnonzero(shape)[-1])))
    coeffs = np.zeros(size)
    coeffs[:min(size, shape.size)] = shape[:size]
    return coeffs


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
    """Perturbation sweep λ₀ + εh with a fitted dominating stability curve.

    ``eps_list`` holds the perturbation sizes ε: finite, nonnegative and
    at least one of them positive, and ``shape`` (h) at least one nonzero
    coefficient (the fit needs a perturbed record).  Every λ₀ + εh must be
    admissible; all are checked, in one synthesis, before any solve.

    The system and its right-hand side are linear in λ: A(ε) = A₀ + εB and
    rhs(ε) = r₀ + εr₁, with B = M_{ih}·diag(−2 c h_n), −2 c h_n the column
    of the modal table (:class:`~impscat.layer_ops.ModalTable`) that
    multiplies M_{iλ₀} in A₀.  From the base wave (one :func:`solve_density`
    call) the correction y = A₀(φ(ε) − φ₀) solves (I + εC)y = εs,
    C = B·A₀⁻¹ and s = r₁ − Bφ₀ = 2M_{ih}(u^i + h_n α₀),
    so every ε is one shift 1/ε of one GMRES basis of (C, s)
    (:func:`impscat.layer_ops._gmres`).  A₀ is factored once
    (:meth:`~impscat.layer_ops.BoundaryOperatorMatrix.factor`): a division
    at a constant λ₀, else one banded LU.  Each ε's density φ(ε) passes the
    checks of every solve: the relative residual of A(ε)φ = rhs(ε) (1e-12),
    at one product with B, and the tail fraction (1e-8).  An ε whose shift
    has not converged within the GMRES cap is solved by :func:`solve_density`.

    δ is the far-field distance ‖u∞(ε) − u∞(0)‖_{L²(S²)} = ‖α(ε) − α₀‖₂/k
    (Parseval), from α(ε) − α₀ = c ⊙ A₀⁻¹y itself, so it keeps its digits
    as ε → 0.  dsup = ε·sup|h| on the order-64 product grid, and
    ``delta_slope`` = ‖c ⊙ A₀⁻¹s‖₂/k = δ'(0).
    """
    eps_sorted = sorted(float(e) for e in eps_list)
    if not (eps_sorted and np.all(np.isfinite(eps_sorted))
            and eps_sorted[0] >= 0.0 and eps_sorted[-1] > 0.0):
        raise ValueError("eps_list must hold finite sizes ε >= 0, at least one positive")
    shape = np.asarray(shape, dtype=float)
    if not np.any(shape):
        raise ValueError("the perturbation shape must have a nonzero coefficient")
    _require_admissible(_perturbed_coefficients(base, shape, eps_sorted), np.inf)
    h = _trimmed(shape)
    deltas, slope = _family_distances(ctx, geom, base, shape, h, eps_sorted, band_limit)
    sup_h = float(np.max(np.abs(_synthesize(_complex_coefficients(h),
                                            gauss_product_rule(64)).real)))
    rows = [(eps, deltas.get(eps, 0.0), eps * sup_h) for eps in eps_sorted]
    c_fit, sigma_fit = fit_dominating_curve(
        [r[1] for r in rows if r[0] > 0], [r[2] for r in rows if r[0] > 0]
    )
    records = []
    for eps, delta, dsup in rows:
        try:
            bound = theorem13_bound(delta, c_fit, sigma_fit) if delta > 0 else 0.0
        except ValueError:
            bound = np.inf
        records.append(StabilityRecord(epsilon=eps, delta=delta, dsup=dsup,
                                       bound=bound))
    return StabilitySweep(records=records, c_fit=c_fit, sigma_fit=sigma_fit,
                          delta_slope=slope)


def _family_distances(ctx: WaveContext, geom: ObstacleGeometry, base: ImpedanceField,
                      shape: np.ndarray, h: np.ndarray, eps_list,
                      band_limit: int) -> tuple[dict, float]:
    """({ε: δ}, δ'(0)) for the positive ε of ``eps_list``, each λ₀ + εh
    admissible, from one shifted family, as :func:`stability_sweep`
    describes; h is ``shape`` cut by :func:`_trimmed`."""
    wave = solve_density(ctx, geom, base, band_limit=band_limit)
    table = ctx.modal(geom.radius, band_limit)
    c, column = table.c, table.column  # B = M_{ih}·diag(column)
    mult, mult_h = multiplication_operator(base, band_limit), assemble_multiplication(h, band_limit)
    base_system = assemble_combined_system(table, mult)
    inverse = base_system.factor()
    u_inc, dnu_inc = incident_coefficients(table, ctx.incident_amplitudes(band_limit))
    r0, r1 = 2.0 * (dnu_inc + mult.matvec(u_inc)), 2.0 * mult_h.matvec(u_inc)
    source = 2.0 * mult_h.matvec(u_inc + table.hn * wave.amplitudes)
    positive = [eps for eps in dict.fromkeys(eps_list) if eps > 0.0]
    shifted = _gmres(lambda v: mult_h.matvec(column * inverse(v)), source,
                     [1.0 / eps for eps in positive])
    phi0, deltas = wave.amplitudes / c, {}
    for eps, y in zip(positive, shifted):
        if y is None:  # not converged within the cap: solved on its own
            wave_eps = solve_density(ctx, geom, _perturbed(base, shape, eps),
                                     band_limit=band_limit)
            deltas[eps] = float(np.linalg.norm(wave_eps.amplitudes - wave.amplitudes)) / ctx.k
            continue
        dphi = inverse(y)
        phi, rhs = phi0 + dphi, r0 + eps * r1
        _checked_tail(base_system.matvec(phi) + eps * mult_h.matvec(column * phi) - rhs,
                      rhs, phi)
        deltas[eps] = float(np.linalg.norm(c * dphi)) / ctx.k
    return deltas, float(np.linalg.norm(c * inverse(source))) / ctx.k


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
    the angular grid, scanning a dense ladder of radii per candidate; the
    ladder is one stacked set of shells of the order-24 product rule, up to
    4·max(r_candidates).  Raises ``ValueError`` before any solve where that
    top is not a finite float.
    """
    top = 4.0 * max(r_candidates)
    if not np.isfinite(top):
        raise ValueError(f"the radius ladder top 4*max(r_candidates) = {top} is not "
                         f"finite (r_candidates = {list(r_candidates)})")
    wave = solve_density(ctx, geom, lam, band_limit=band_limit)
    rads = np.unique(np.concatenate(
        [np.asarray(r_candidates, dtype=float),
         np.geomspace(min(r_candidates), top, 24)]
    ))
    rule = gauss_product_rule(24)
    shells = scattered_on_shell(wave, ctx, geom, rads, rule)
    sups = np.max(np.abs(shells), axis=1)
    mins = np.min(np.abs(ctx.incident(rads[:, None, None] * rule.points()) + shells), axis=1)
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
    is returned at once as converged (0 iterations: L-BFGS-B would only see
    a finite-difference gradient of rounding noise there, above its gtol).
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
        x, converged, iterations = x0, True, 0
    else:
        result = minimize(objective, x0, method="L-BFGS-B",
                          options={"maxiter": 200, "ftol": 1e-14, "gtol": 1e-10})
        x, converged, iterations = result.x, bool(result.success), int(result.nit)
    lam_final = _clip_field(x, grid_values(x))
    ff = solve_farfield(ctx, geom, lam_final, band_limit, rule)
    misfit = float(np.real(rule.integrate(np.abs(ff.samples - data.samples) ** 2)))
    return ReconstructionReport(
        impedance=lam_final, misfit=misfit, converged=converged, iterations=iterations,
    )


def _clip_field(vec: np.ndarray, grid_values: np.ndarray) -> ImpedanceField:
    """Impedance from coefficients, shifting the mean up if the grid min < 0;
    ``grid_values`` are the coefficients' values on the admissibility rule."""
    vmin = float(grid_values.min())
    out = np.array(vec, dtype=float)
    if vmin < 0:
        out[0] += -vmin * np.sqrt(4.0 * np.pi)
    return ImpedanceField(coefficients=out, bound=np.inf)
