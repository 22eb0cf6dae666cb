"""Forward impedance scattering: densities, near/far fields, Mie oracle.

The solver path is combined-field: assemble the boundary system, solve for
the density φ, then evaluate the scattered field through the separated
(per-mode) representation u^s = Σ c_nm φ_nm h_n(kr) Y_n^m.  The far field
follows from h_n(kr) ~ (−i)^{n+1} e^{ikr}/(kr).

Every outgoing-wave sum Σ amps_nm R_n Y_n^m, for the solver and for the Mie
reference alike, goes through the single evaluator ``_outgoing_wave``:
R_n is h_n(kr) at points outside the obstacle, and (−i)^{n+1}/k on a
far-field quadrature rule.  On a rule, as for the boundary traces, the sum
goes through the ring transform
:func:`impscat.specfun._synthesize` (a Legendre sum per ring latitude,
then one inverse FFT per ring), so no (N+1)² × npts matrix is formed.
A shell |x| = r of product-rule directions (``scattered_on_shell``, for the
uniform-bound witness and the exterior lower-bound scan) is the same
transform of amps·h_n(kr), one Hankel call per shell; only scattered points
take the dense path.

The solver's per-degree values come from the :class:`WaveContext`: its
modal table (j_n, j_n', h_n, h_n', S₀² at (k, a, N)) and its plane-wave
amplitudes at (ω, N) are built once and read by every solve, far field and
boundary trace through that context.  The Mie oracle computes its own.

``mie_farfield`` is the independent separation-of-variables reference for
constant impedance on the sphere: each incident mode is reflected with the
coefficient that enforces ∂_ν u + iλ₀ u = 0 at r = a, with no boundary
integral equation involved.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .geometry import ObstacleGeometry
from .layer_ops import (
    ImpedanceField,
    ModalTable,
    assemble_combined_system,
    default_coupling,
    exterior_trace_operators,
    incident_coefficients,
    multiplication_operator,
    radiating_coefficient_diagonal,
    require_finite_hankel,
    rhs_from_incident,
)
from .specfun import (
    QuadratureRule,
    _band_limit_of,
    _synthesize,
    gauss_product_rule,
    harmonic_degrees,
    plane_wave_amplitudes,
    sph_hankel1,
    sph_harmonic_all,
)


@dataclass(frozen=True)
class WaveContext:
    """Incident plane wave u^i(x) = exp(i k x·ω), and the tables of its solves.

    ``modal(a, N)`` is :class:`impscat.layer_ops.ModalTable` at (k, a, N) and
    ``incident_amplitudes(N)`` is :func:`impscat.specfun.plane_wave_amplitudes`
    at (ω, N).  Each is built on first use and kept, read-only, until a call
    of its kind asks for another key: a context holds at most one of each,
    for its own lifetime.  Every solve through one context (a sweep's ladder,
    a reconstruction's objective) therefore reads the same tables, and a
    fresh context builds its own.
    """

    k: float
    omega: np.ndarray
    _recent: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.k > 0 and np.isfinite(self.k)):
            raise ValueError("wavenumber must be positive and finite")
        om = np.asarray(self.omega, dtype=float)
        if abs(np.linalg.norm(om) - 1.0) > 1e-12:
            raise ValueError("incident direction must be a unit vector")
        object.__setattr__(self, "omega", om)
        om.setflags(write=False)

    def incident(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        return np.exp(1j * self.k * (x @ self.omega))

    def modal(self, a: float, band_limit: int) -> ModalTable:
        """The modal table of the radius-a sphere at this k, degrees <= N."""
        return self._kept("modal", (a, band_limit),
                          lambda: ModalTable(self.k, a, band_limit))

    def incident_amplitudes(self, band_limit: int) -> np.ndarray:
        """Plane-wave amplitudes of this wave, degrees <= N (read-only)."""
        def build():
            amps = plane_wave_amplitudes(self.omega, band_limit)
            amps.setflags(write=False)
            return amps
        return self._kept("incident", band_limit, build)

    def _kept(self, kind: str, key, build):
        """``build()`` for ``key``, reused while ``kind`` keeps that key."""
        held = self._recent.get(kind)
        if held is None or held[0] != key:
            held = self._recent[kind] = (key, build())
        return held[1]


@dataclass(frozen=True)
class HarmonicDensity:
    """Complex coefficient vector in the flat (n, m) ordering, and the
    coupling η of the ansatz u^s = SL[φ] + iη DL[S₀² φ] it was solved with;
    every field evaluated from φ reads η here; (N+1)² coefficients set N."""

    coeffs: np.ndarray
    eta: float

    def __post_init__(self):
        _band_limit_of(self.coeffs.size)
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("density coefficients must be finite")
        self.coeffs.setflags(write=False)

    @property
    def band_limit(self) -> int:
        return _band_limit_of(self.coeffs.size)

    def tail_fraction(self) -> float:
        """Energy in the top two degrees relative to the total."""
        degs = harmonic_degrees(self.band_limit)
        total = float(np.sum(np.abs(self.coeffs) ** 2))
        if total == 0.0:
            return 0.0
        top = degs >= self.band_limit - 1
        return float(np.sum(np.abs(self.coeffs[top]) ** 2)) / total


@dataclass(frozen=True)
class FarField:
    """Samples of u∞ on a sphere quadrature rule."""

    samples: np.ndarray
    rule: QuadratureRule

    def norm(self) -> float:
        """L²(S²) norm."""
        return float(np.sqrt(np.real(
            self.rule.integrate(np.abs(self.samples) ** 2)
        )))


class ResolutionError(RuntimeError):
    """Density tail check failed; band limit too low for this configuration."""


def solve_density(ctx: WaveContext, geom: ObstacleGeometry, lam: ImpedanceField,
                  eta: float | None = None, band_limit: int = 24) -> HarmonicDensity:
    """Solve the combined-field system for the boundary density φ.

    The density carries ``eta`` (``None``: :func:`default_coupling`, which
    every other solve uses); it changes φ but not the fields evaluated from it.

    M_{iλ} is built once, for the system and the right-hand side, by the
    selection rule of :func:`impscat.layer_ops.multiplication_operator`; the
    system has its band.  At b = 0 (a constant λ) one division solves it,
    with its exact rcond; otherwise one banded LU both estimates its
    conditioning and solves it.  Raises :class:`SingularSystemError`
    if the system has a non-finite entry or its relative 1-norm rcond is
    below 1e-12, ``RuntimeError`` unless the residual relative to the rhs
    (both scaled by max|rhs|) is at most 1e-12, and :class:`ResolutionError`
    if the tail fraction exceeds 1e-8; a zero rhs is checked for neither.
    """
    eta = default_coupling(ctx.k) if eta is None else eta
    table = ctx.modal(geom.radius, band_limit)
    mult = multiplication_operator(lam, band_limit)
    system = assemble_combined_system(table, mult, eta)
    g = rhs_from_incident(table, ctx.incident_amplitudes(band_limit), mult)
    rhs = -2.0 * g
    phi = system.solve(rhs)
    peak = np.max(np.abs(rhs))
    if peak > 0:
        # both vectors scaled by max|rhs| first, so that neither norm overflows
        ratio = np.linalg.norm((system.matvec(phi) - rhs) / peak) / np.linalg.norm(rhs / peak)
        if not ratio <= 1e-12:
            raise RuntimeError(f"linear solve residual {ratio:.2e} exceeds 1e-12")
    density = HarmonicDensity(coeffs=phi, eta=eta)
    if peak > 0 and density.tail_fraction() > 1e-8:
        raise ResolutionError(
            f"density tail fraction {density.tail_fraction():.2e} exceeds 1.0e-08"
        )
    return density


def radiating_coefficients(phi: HarmonicDensity, ctx: WaveContext,
                           geom: ObstacleGeometry) -> np.ndarray:
    table = ctx.modal(geom.radius, phi.band_limit)
    return radiating_coefficient_diagonal(table, phi.eta) * phi.coeffs


def _outgoing_wave(amps: np.ndarray, k: float, where, radius: float = 0.0) -> np.ndarray:
    """Σ amps_nm R_n Y_n^m at points ``where`` or on a far-field rule.

    At points (shape (npts, 3)), R_n = h_n(kr), and every point must lie
    outside the sphere of the given radius.  On a :class:`QuadratureRule`,
    R_n = (−i)^{n+1}/k, the far-field limit of h_n(kr) e^{−ikr} kr, and the
    sum is one ring transform (:func:`impscat.specfun._synthesize`); the series
    may exceed the rule's order, since the transform folds the excess orders exactly.
    """
    band_limit = _band_limit_of(amps.size)
    degs = harmonic_degrees(band_limit)
    if isinstance(where, QuadratureRule):
        # R_n is the same at every node: one synthesis on the rule
        return _synthesize(amps * ((-1j) ** (degs + 1) / k), where)
    x = np.atleast_2d(np.asarray(where, dtype=float))
    r = np.linalg.norm(x, axis=1)
    if np.any(r <= radius):
        raise ValueError("evaluation points must lie outside the obstacle")
    ymat = sph_harmonic_all(band_limit, np.clip(x[:, 2] / r, -1.0, 1.0),
                            np.arctan2(x[:, 1], x[:, 0]))
    radial = sph_hankel1(np.arange(band_limit + 1)[:, None], k * r)[degs]
    return (amps[:, None] * radial * ymat).sum(axis=0)


def eval_scattered(x, phi: HarmonicDensity, ctx: WaveContext,
                   geom: ObstacleGeometry) -> np.ndarray:
    """Scattered field u^s at exterior points via the separated expansion."""
    amps = radiating_coefficients(phi, ctx, geom)
    values = _outgoing_wave(amps, ctx.k, x, geom.radius)
    min_dist = float(np.min(np.linalg.norm(np.atleast_2d(x), axis=1))) - geom.radius
    _warn_near_boundary(min_dist, phi, ctx)
    return values


def scattered_on_shell(phi: HarmonicDensity, ctx: WaveContext, geom: ObstacleGeometry,
                       radius: float, rule: QuadratureRule) -> np.ndarray:
    """u^s at the nodes of a product rule on the sphere |x| = ``radius``.

    These are :func:`eval_scattered`'s values at ``radius * rule.points()``:
    h_n(kr) is one value per degree on the shell, so the sum is one ring
    transform of amps·h_n(kr).  The radius must exceed the obstacle's.
    """
    if radius <= geom.radius:
        raise ValueError("evaluation points must lie outside the obstacle")
    _warn_near_boundary(radius - geom.radius, phi, ctx)
    band_limit = phi.band_limit
    radial = sph_hankel1(np.arange(band_limit + 1), ctx.k * radius)
    amps = radiating_coefficients(phi, ctx, geom)
    return _synthesize(amps * radial[harmonic_degrees(band_limit)], rule)


def _warn_near_boundary(distance: float, phi: HarmonicDensity, ctx: WaveContext):
    if distance < 2.0 * np.pi / (ctx.k * phi.band_limit):
        warnings.warn("evaluation close to the boundary; quadrature-grade accuracy only")


def farfield(phi: HarmonicDensity, ctx: WaveContext, geom: ObstacleGeometry,
             rule: QuadratureRule | None = None) -> FarField:
    """Far-field pattern u∞ from the large-argument Hankel asymptotics,
    with the density's own coupling ``phi.eta``."""
    rule = rule or gauss_product_rule(phi.band_limit)
    amps = radiating_coefficients(phi, ctx, geom)
    return FarField(samples=_outgoing_wave(amps, ctx.k, rule), rule=rule)


def solve_farfield(ctx: WaveContext, geom: ObstacleGeometry, lam: ImpedanceField,
                   band_limit: int = 24, rule: QuadratureRule | None = None) -> FarField:
    phi = solve_density(ctx, geom, lam, band_limit=band_limit)
    return farfield(phi, ctx, geom, rule)


# ---------------------------------------------------------------------------
# Mie-series oracle
# ---------------------------------------------------------------------------

def mie_mode_coefficients(k: float, a: float, lam0: float,
                          band_limit: int) -> np.ndarray:
    """Reflection coefficient per degree for constant impedance λ₀ at r = a.

    Raises :class:`impscat.layer_ops.NumericalError` if h_n(ka) or h_n'(ka)
    overflows at a degree up to the band limit.
    """
    ka = k * a
    n = np.arange(band_limit + 1)
    hn, hnp = sph_hankel1(n, ka), sph_hankel1(n, ka, derivative=True)
    require_finite_hankel(ka, hn, hnp)
    # (k j_n' + iλ₀ j_n)/(k h_n' + iλ₀ h_n), j_n = Re h_n, with both divided
    # through by h_n': k h_n' overflows where h_n' is still finite
    num = k * (hnp.real / hnp) + 1j * lam0 * (hn.real / hnp)
    return -num / (k + 1j * lam0 * (hn / hnp))


def _mie_band_limit(k: float, a: float, lam0: float) -> int:
    """Degree N, in steps of 8, where the boundary term |R_N h_N(ka)| is below
    1e-14 of the largest; |h_n(kr)| decreases in r, so this bounds the
    degree-N term of the scattered wave at every r >= a.  Raises
    :class:`ResolutionError` if the first degree past 400 still fails, or,
    before any table is built, if the first degree tried, int(ka) + 8, is."""
    if not k * a < 393:  # inf and NaN included
        raise ResolutionError(f"Mie series at ka = {k * a:.6g} starts past degree 400")
    n = max(8, int(k * a) + 8)
    while True:
        trace = np.abs(mie_mode_coefficients(k, a, lam0, n)
                       * sph_hankel1(np.arange(n + 1), k * a))
        if trace[-1] < 1e-14 * max(1e-300, np.max(trace)):
            return n
        if n >= 400:
            raise ResolutionError(f"Mie series at ka = {k * a:.6g} unconverged at degree {n}")
        n += 8


def _mie_amplitudes(ctx: WaveContext, a: float, lam0: float, band_limit: int):
    """Scattered-wave amplitudes: each incident mode times its reflection."""
    refl = mie_mode_coefficients(ctx.k, a, lam0, band_limit)
    return plane_wave_amplitudes(ctx.omega, band_limit) * refl[harmonic_degrees(band_limit)]


def mie_farfield(ctx: WaveContext, a: float, lam0: float,
                 rule: QuadratureRule | None = None) -> FarField:
    """Far field of the impedance sphere by separation of variables."""
    if lam0 < 0:
        raise ValueError("impedance must be nonnegative")
    nb = _mie_band_limit(ctx.k, a, lam0)
    rule = rule or gauss_product_rule(max(24, nb))
    amps = _mie_amplitudes(ctx, a, lam0, nb)
    return FarField(samples=_outgoing_wave(amps, ctx.k, rule), rule=rule)


def mie_scattered(x, ctx: WaveContext, a: float, lam0: float) -> np.ndarray:
    """Near-field Mie scattered wave at exterior points."""
    nb = _mie_band_limit(ctx.k, a, lam0)
    return _outgoing_wave(_mie_amplitudes(ctx, a, lam0, nb), ctx.k, x, a)


# ---------------------------------------------------------------------------
# Boundary traces, energy identity, uniform-bound witness
# ---------------------------------------------------------------------------

def boundary_traces(phi: HarmonicDensity, ctx: WaveContext, geom: ObstacleGeometry,
                    lam: ImpedanceField, rule: QuadratureRule | None = None):
    """Total field and its obstacle-outward normal derivative on ∂D, with
    the density's own coupling ``phi.eta``; returns (u, ∂_ν u, rule).

    The incident part is the plane wave's Jacobi-Anger series cut at the
    density's degree N; warns when its degree-N tail is above 1e-12 of its
    head.
    """
    nb = phi.band_limit
    rule = rule or gauss_product_rule(nb)
    table = ctx.modal(geom.radius, nb)
    tr, dtr = exterior_trace_operators(table, phi.eta)
    u_inc, dnu_inc = incident_coefficients(table, ctx.incident_amplitudes(nb))
    head = np.max(np.abs(u_inc))
    tail = np.max(np.abs(u_inc[-(2 * nb + 1):]))  # the degree-N entries
    if head > 0 and tail > 1e-12 * head:
        warnings.warn(
            f"plane-wave series tail at degree {nb} is {tail / head:.2e} "
            "of its head; raise the band limit"
        )
    coeffs = np.stack((u_inc + tr * phi.coeffs, dnu_inc + dtr * phi.coeffs))
    u, dnu = _synthesize(coeffs, rule)
    return u, dnu, rule


def energy_identity(geom: ObstacleGeometry, lam: ImpedanceField,
                    u_boundary: np.ndarray, dnu_boundary: np.ndarray,
                    rule: QuadratureRule) -> float:
    """Residual Im ∫ u ∂_ν ū ds + ∫ λ |u|² ds with ν pointing INTO the obstacle.

    With the obstacle-outward normal the flux identity reads
    Im ∫ u ∂_ν ū = +∫ λ|u|²; the sign convention here (inward ν, i.e. the
    normal derivative argument is negated) makes the two reported terms
    cancel, so the returned value is ~ 0 for a true solution.
    """
    ds = geom.surface_element(rule.mu, rule.phi) * rule.weights
    flux = float(np.imag(np.sum(ds * u_boundary * np.conj(-dnu_boundary))))
    absorb = float(np.sum(ds * lam.evaluate_on(rule) * np.abs(u_boundary) ** 2))
    return flux + absorb


@dataclass(frozen=True)
class UniformBoundReport:
    """Sup-node |u| over an exterior shell grid, per impedance field."""

    sups: list

    @property
    def family_max(self) -> float:
        return max(self.sups) if self.sups else 0.0

    @property
    def spread(self) -> float:
        """Ratio of the largest to the smallest family sup (1.0 if empty)."""
        return self.family_max / min(self.sups) if self.sups else 1.0


def uniform_bound_check(ctx: WaveContext, geom: ObstacleGeometry,
                        impedances, band_limit: int = 24) -> UniformBoundReport:
    """Numerical witness of the uniform total-field bound over a λ family."""
    rule = gauss_product_rule(band_limit)
    dirs = rule.points()
    sups = []
    for lam in impedances:
        phi = solve_density(ctx, geom, lam, band_limit=band_limit)
        sup = 0.0
        for fac in (1.5, 2.0, 4.0, 8.0):
            radius = fac * geom.radius
            total = ctx.incident(radius * dirs) + scattered_on_shell(phi, ctx, geom,
                                                                      radius, rule)
            sup = max(sup, float(np.max(np.abs(total))))
        sups.append(sup)
    return UniformBoundReport(sups=sups)
