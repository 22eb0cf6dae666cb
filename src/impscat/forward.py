"""Forward impedance scattering: the scattered wave, near/far fields, Mie oracle.

A solve assembles the combined-field boundary system, solves it for the
density φ, and returns the :class:`ScatteredWave` φ represents: its outgoing
amplitudes α with u^s = Σ α_nm h_n(kr) Y_n^m outside the obstacle.  The
density stays inside :func:`solve_density`, and the coupling η of the ansatz
inside the modal table it solves with; every evaluator reads α alone.  The
far field follows from h_n(kr) ~ (−i)^{n+1} e^{ikr}/(kr).

Every outgoing-wave sum Σ amps_nm R_n Y_n^m on a product rule, for the
solver and for the Mie reference alike, goes through ``_on_rule``, for a
per-degree radial factor R_n: (−i)^{n+1}/k for a far field, h_n(kr) on a
shell |x| = r.  As for the boundary traces, the sum is the ring transform
:func:`impscat.specfun._synthesize` (a Legendre sum per ring latitude,
then one inverse FFT per ring), so no (N+1)² × npts matrix is formed.
``scattered_on_shell`` (for the uniform-bound witness and the exterior
lower-bound scan) takes a whole set of radii: one Hankel call over all of
them and one stacked transform.  ``_outgoing_wave`` is the dense path, for
scattered points only.

The solver's per-degree values come from the :class:`WaveContext`: its
modal table (j_n, j_n', h_n, h_n', c and the system's diagonal and column
at (k, a, N) and the default η) and its plane-wave
amplitudes at (ω, N) are built once and read by every solve and boundary
trace through that context.  The Mie oracle computes its own.

``mie_farfield`` is the independent separation-of-variables reference for
constant impedance on the sphere: each incident mode is reflected with the
coefficient that enforces ∂_ν u + iλ₀ u = 0 at r = a, with no boundary
integral equation involved.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import hypot

import numpy as np

from .geometry import ObstacleGeometry
from .layer_ops import (
    ImpedanceField,
    ModalTable,
    assemble_combined_system,
    incident_coefficients,
    multiplication_operator,
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
        om = np.array(self.omega, dtype=float)  # a copy: the caller's array stays writeable
        if not abs(hypot(*om) - 1.0) <= 1e-12:  # hypot: no overflow, and NaN fails
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
class ScatteredWave:
    """u^s = Σ α_nm h_n(kr) Y_n^m outside the obstacle: the outgoing
    amplitudes α in the flat (n, m) ordering ((N+1)² of them set N; finite
    and read-only), and the tail fraction of the density it was solved from
    (:func:`solve_density`)."""

    amplitudes: np.ndarray
    tail_fraction: float

    def __post_init__(self):
        amplitudes = np.array(self.amplitudes)  # a copy: the caller's array stays writeable
        _band_limit_of(amplitudes.size)
        if not np.all(np.isfinite(amplitudes)):
            raise ValueError("scattered-wave amplitudes must be finite")
        amplitudes.setflags(write=False)
        object.__setattr__(self, "amplitudes", amplitudes)

    @property
    def band_limit(self) -> int:
        return _band_limit_of(self.amplitudes.size)


def _tail_fraction(coeffs: np.ndarray) -> float:
    """Energy in the top two degrees of ``coeffs`` relative to the total.

    The coefficients are scaled by their largest modulus before they are
    squared, so a tiny vector's energy does not underflow to 0."""
    size = np.abs(coeffs)
    peak = size.max()
    if peak == 0.0:
        return 0.0
    size /= peak
    top = size[-4 * _band_limit_of(size.size):]  # degrees N − 1 and N (all at N = 0)
    return float(np.dot(top, top) / np.dot(size, size))


@dataclass(frozen=True)
class FarField:
    """Samples of u∞ on a sphere quadrature rule."""

    samples: np.ndarray
    rule: QuadratureRule

    def norm(self) -> float:
        """L²(S²) norm."""
        return float(np.sqrt(np.real(self.rule.integrate(np.abs(self.samples) ** 2))))


class ResolutionError(RuntimeError):
    """Density tail check failed; band limit too low for this configuration."""


def solve_density(ctx: WaveContext, geom: ObstacleGeometry, lam: ImpedanceField,
                  eta: float | None = None, band_limit: int = 24) -> ScatteredWave:
    """Solve the combined-field system for the density φ of the ansatz
    u^s = SL[φ] + iη DL[S₀²φ]; return that wave, α = c ⊙ φ.  ``eta`` is the
    coupling η: ``None`` reads the context's :class:`ModalTable`, at
    :func:`impscat.layer_ops.default_coupling`, as every other solve, and an
    explicit η builds a table of its own, not kept.  η scales the system's
    columns only: φ changes with it, α does not.

    M_{iλ} is built once, for the system and the right-hand side, by the
    selection rule of :func:`impscat.layer_ops.multiplication_operator`; the
    system has its band.  At b = 0 (a constant λ) one division solves it,
    with its exact rcond.  Otherwise a system within the Jacobi certificate
    of :meth:`impscat.layer_ops.BoundaryOperatorMatrix.solve`
    (q = ‖AD⁻¹ − I‖₁ < ½, a certified rcond >= 1e-12, N >= 15) is solved by
    GMRES preconditioned by its diagonal, and any other by one banded LU
    that both estimates its conditioning and solves it.  The checks below
    are the same for every path.  Raises :class:`SingularSystemError`
    if the system has a non-finite entry or its relative 1-norm rcond is
    below 1e-12, ``RuntimeError`` unless the residual relative to the rhs
    (both scaled by max|rhs|) is at most 1e-12, and :class:`ResolutionError`
    if the density's tail fraction exceeds 1e-8; a zero rhs is checked for
    neither.
    """
    table = (ctx.modal(geom.radius, band_limit) if eta is None
             else ModalTable(ctx.k, geom.radius, band_limit, eta))
    mult = multiplication_operator(lam, band_limit)
    system = assemble_combined_system(table, mult)
    g = rhs_from_incident(table, ctx.incident_amplitudes(band_limit), mult)
    rhs = -2.0 * g
    phi = system.solve(rhs)
    tail = _checked_tail(system.matvec(phi) - rhs, rhs, phi)
    return ScatteredWave(amplitudes=table.c * phi, tail_fraction=tail)


def _checked_tail(residual: np.ndarray, rhs: np.ndarray, density: np.ndarray) -> float:
    """The tail fraction of a solved ``density``, after the checks every
    solve makes (:func:`solve_density`, and each ε of
    :func:`impscat.stability.stability_sweep`).

    Raises ``RuntimeError`` unless ‖residual‖ <= 1e-12 ‖rhs‖, both scaled by
    max|rhs| first so that neither norm overflows, and
    :class:`ResolutionError` if the tail fraction exceeds 1e-8; a zero rhs
    is checked for neither.
    """
    peak = np.max(np.abs(rhs))
    if peak > 0:
        ratio = np.linalg.norm(residual / peak) / np.linalg.norm(rhs / peak)
        if not ratio <= 1e-12:
            raise RuntimeError(f"linear solve residual {ratio:.2e} exceeds 1e-12")
    tail = _tail_fraction(density)
    if peak > 0 and tail > 1e-8:
        raise ResolutionError(f"density tail fraction {tail:.2e} exceeds 1.0e-08")
    return tail


def _outgoing_wave(amps: np.ndarray, k: float, x, radius: float) -> np.ndarray:
    """Σ amps_nm h_n(k|x|) Y_n^m(x̂) at points ``x`` (shape (npts, 3)), every
    one outside the sphere of the given radius."""
    band_limit = _band_limit_of(amps.size)
    degs = harmonic_degrees(band_limit)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    r = np.linalg.norm(x, axis=1)
    if np.any(r <= radius):
        raise ValueError("evaluation points must lie outside the obstacle")
    ymat = sph_harmonic_all(band_limit, np.clip(x[:, 2] / r, -1.0, 1.0),
                            np.arctan2(x[:, 1], x[:, 0]))
    radial = sph_hankel1(np.arange(band_limit + 1)[:, None], k * r)[degs]
    return (amps[:, None] * radial * ymat).sum(axis=0)


def _on_rule(amps: np.ndarray, radial: np.ndarray, rule: QuadratureRule) -> np.ndarray:
    """Σ amps_nm R_n Y_n^m at the nodes of ``rule``, for a radial factor R of
    shape (..., N+1), one value per degree: one ring transform
    (:func:`impscat.specfun._synthesize`) of shape (..., npts).  The series
    may exceed the rule's order, since the transform folds the excess orders
    exactly."""
    return _synthesize(amps * radial[..., harmonic_degrees(_band_limit_of(amps.size))], rule)


def _far_field(amps: np.ndarray, k: float, rule: QuadratureRule) -> FarField:
    """u∞ on ``rule``: R_n = (−i)^{n+1}/k, the far-field limit of
    h_n(kr) e^{−ikr} kr."""
    degrees = np.arange(_band_limit_of(amps.size) + 1)
    return FarField(samples=_on_rule(amps, (-1j) ** (degrees + 1) / k, rule), rule=rule)


def eval_scattered(x, wave: ScatteredWave, ctx: WaveContext,
                   geom: ObstacleGeometry) -> np.ndarray:
    """Scattered field u^s at exterior points via the separated expansion."""
    values = _outgoing_wave(wave.amplitudes, ctx.k, x, geom.radius)
    min_dist = float(np.min(np.linalg.norm(np.atleast_2d(x), axis=1))) - geom.radius
    _warn_near_boundary(min_dist, wave, ctx)
    return values


def scattered_on_shell(wave: ScatteredWave, ctx: WaveContext, geom: ObstacleGeometry,
                       radius, rule: QuadratureRule) -> np.ndarray:
    """u^s at the nodes of a product rule on each sphere |x| = r of ``radius``
    (a scalar or an array of radii), shape ``radius.shape + (npts,)``.

    These are :func:`eval_scattered`'s values at ``r * rule.points()``:
    h_n(kr) is one value per degree on a shell, so all shells are one
    Hankel call and one stacked ring transform of α·h_n(kr).  Every
    radius must exceed the obstacle's.
    """
    radius = np.asarray(radius, dtype=float)
    if np.any(radius <= geom.radius):
        raise ValueError("evaluation points must lie outside the obstacle")
    _warn_near_boundary(float(np.min(radius)) - geom.radius, wave, ctx)
    radial = sph_hankel1(np.arange(wave.band_limit + 1), ctx.k * radius[..., None])
    return _on_rule(wave.amplitudes, radial, rule)


def _warn_near_boundary(distance: float, wave: ScatteredWave, ctx: WaveContext):
    if distance < 2.0 * np.pi / (ctx.k * wave.band_limit):
        warnings.warn("evaluation close to the boundary; quadrature-grade accuracy only")


def farfield(wave: ScatteredWave, ctx: WaveContext,
             rule: QuadratureRule | None = None) -> FarField:
    """Far-field pattern u∞ of the wave's amplitudes, from the large-argument
    Hankel asymptotics, on ``rule`` (default: the product rule of the wave's
    band limit)."""
    rule = rule or gauss_product_rule(wave.band_limit)
    return _far_field(wave.amplitudes, ctx.k, rule)


def solve_farfield(ctx: WaveContext, geom: ObstacleGeometry, lam: ImpedanceField,
                   band_limit: int = 24, rule: QuadratureRule | None = None) -> FarField:
    return farfield(solve_density(ctx, geom, lam, band_limit=band_limit), ctx, rule)


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
    return _far_field(_mie_amplitudes(ctx, a, lam0, nb), ctx.k, rule)


# ---------------------------------------------------------------------------
# Boundary traces, energy identity, uniform-bound witness
# ---------------------------------------------------------------------------

def boundary_traces(wave: ScatteredWave, ctx: WaveContext, geom: ObstacleGeometry,
                    lam: ImpedanceField, rule: QuadratureRule | None = None):
    """Total field and its obstacle-outward normal derivative on ∂D; returns
    (u, ∂_ν u, rule).  The scattered traces are α·h_n(ka) and α·k·h_n'(ka).

    The incident part is the plane wave's Jacobi-Anger series cut at the
    wave's degree N; warns when its degree-N tail is above 1e-12 of its
    head.
    """
    nb = wave.band_limit
    rule = rule or gauss_product_rule(nb)
    table = ctx.modal(geom.radius, nb)
    u_inc, dnu_inc = incident_coefficients(table, ctx.incident_amplitudes(nb))
    head = np.max(np.abs(u_inc))
    tail = np.max(np.abs(u_inc[-(2 * nb + 1):]))  # the degree-N entries
    if head > 0 and tail > 1e-12 * head:
        warnings.warn(
            f"plane-wave series tail at degree {nb} is {tail / head:.2e} "
            "of its head; raise the band limit"
        )
    amps = wave.amplitudes
    coeffs = np.stack((u_inc + table.hn * amps, dnu_inc + table.k * table.hnp * amps))
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
    radii = np.array([1.5, 2.0, 4.0, 8.0]) * geom.radius
    incident = ctx.incident(radii[:, None, None] * rule.points())
    sups = []
    for lam in impedances:
        wave = solve_density(ctx, geom, lam, band_limit=band_limit)
        total = incident + scattered_on_shell(wave, ctx, geom, radii, rule)
        sups.append(float(np.max(np.abs(total))))
    return UniformBoundReport(sups=sups)
