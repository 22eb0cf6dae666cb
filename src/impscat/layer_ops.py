"""Boundary layer operators and combined-field system assembly.

On the sphere of radius a every layer operator diagonalizes on spherical
harmonics.  With the factor-2 convention (each operator is twice the
principal-value integral) and the obstacle-outward normal, the eigenvalues
on Y_n^m are

    S   : 2 i k a² j_n(ka) h_n(ka)
    K=K': i k² a² [j_n'(ka) h_n(ka) + j_n(ka) h_n'(ka)]
    T   : 2 i k³ a² j_n'(ka) h_n'(ka)
    S₀  : 2 a / (2n + 1)                (static kernel 1/(4π|x−y|))

The scattered field is represented by the combined ansatz
u^s = SL[φ] + iη DL[S₀² φ].  Imposing ∂_ν u^s + iλ u^s = g with the exterior
jump relations gives the boundary system

    (I − [K' + iη T S₀² + M_{iλ} (S + iη (K + I) S₀²)]) φ = −2 g,

where M_{iλ} is multiplication by iλ.  The M_{iλ}(S + iη(K+I)S₀²) coupling
is twice the exterior trace of the ansatz; writing it this way (rather than
a bare S + K coupling) is what makes the solved far field agree with the
separation-of-variables reference to machine precision.

The solve never forms S, K or T: outside the sphere u^s = Σ c_n φ_nm h_n(kr)
Y_n^m, and by the Wronskian j_n h_n' − j_n' h_n = i/(ka)² the two traces
above are c_n h_n(ka) and c_n k h_n'(ka), so a solve needs each of j_n, j_n',
h_n, h_n' once, plus j_n, j_n' for the incident wave and the far field.

Every operator but M_{iλ} is diagonal.  On the Gauss × uniform-azimuth
product rule, with Y_n^m = P̄_n^m(μ) e^{imφ}, the φ-sum in entry
((n,m),(n',m')) of M_{iλ} is the ring Fourier sum F_q(μ_j) = Σ_l w_jl
λ(μ_j, φ_l) e^{iqφ_l} at q = m' − m, zero for |q| > N_λ: the nonzero blocks
are i P̄_m diag(F_q) P̄_{m+q}ᵀ, one FFT per ring gives every F_q, and P̄ is
the harmonic table at φ = 0 (Driscoll & Healy, Adv. Appl. Math. 15 (1994)).
The entry is also zero for |n − n'| > N_λ (Gaunt), so in the degree-major
order every system is banded, with half-bandwidth b = N'(2N − N' + 2) for
N' = min(N_λ, N); it is held in LAPACK band storage, entries[b + i − j, j]
= A[i, j], and solved by one banded LU.  By the selection rule
(:func:`multiplication_operator`) a constant λ is b = 0, one diagonal row.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.sparse import dia_matrix

from .geometry import ObstacleGeometry
from .specfun import (
    QuadratureRule,
    gauss_product_rule,
    harmonic_degrees,
    num_harmonics,
    plane_wave_amplitudes,
    real_sph_harmonic_all,
    sph_bessel_j,
    sph_hankel1,
    sph_harmonic_all,
)

OP_KINDS = ("S", "K", "Kp", "T", "S0")


class SingularSystemError(RuntimeError):
    """Combined-field matrix is non-finite or singular (relative rcond < 1e-12)."""


class AliasingError(ValueError):
    """Quadrature order too low to resolve a product of bandwidths."""


# ---------------------------------------------------------------------------
# Impedance fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ImpedanceField:
    """Nonnegative surface impedance λ as real harmonic coefficients.

    ``coefficients`` uses the flat degree-major real-harmonic indexing of
    :func:`impscat.specfun.real_sph_harmonic_all`.  ``bound`` is a sup-norm
    cap M; admissibility (finite coefficients, λ >= 0, λ <= M on the grid)
    is enforced on construction.
    """

    coefficients: np.ndarray
    bound: float = np.inf

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("impedance coefficients must be finite")
        object.__setattr__(self, "coefficients", coeffs)
        coeffs.setflags(write=False)
        vals = self.evaluate_on(gauss_product_rule(max(8, 2 * self.band_limit)))
        if np.any(vals < -1e-12):
            raise ValueError("impedance must be nonnegative on the boundary")
        if np.max(vals, initial=0.0) > self.bound + 1e-12:
            raise ValueError("impedance exceeds its stated bound M")

    @classmethod
    def constant(cls, value: float, bound: float | None = None) -> "ImpedanceField":
        if value < 0:
            raise ValueError("impedance must be nonnegative")
        return cls(np.array([value * np.sqrt(4.0 * np.pi)]),
                   bound=value if bound is None else bound)

    @property
    def band_limit(self) -> int:
        return int(np.sqrt(self.coefficients.size)) - 1 if self.coefficients.size else 0

    @property
    def is_constant(self) -> bool:
        return self.coefficients.size <= 1 or not np.any(self.coefficients[1:])

    @property
    def constant_value(self) -> float:
        return float(self.coefficients[0]) / np.sqrt(4.0 * np.pi)

    def evaluate_on(self, rule: QuadratureRule) -> np.ndarray:
        basis = real_sph_harmonic_all(self.band_limit, rule.mu, rule.phi)
        return self.coefficients @ basis

    def sup_norm(self, rule: QuadratureRule | None = None) -> float:
        rule = rule or gauss_product_rule(max(16, 4 * (self.band_limit + 1)))
        return float(np.max(np.abs(self.evaluate_on(rule))))


# ---------------------------------------------------------------------------
# Operator matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryOperatorMatrix:
    """Galerkin matrix A in LAPACK band storage, entries[b + i − j, j] = A[i, j].

    ``entries`` is (2b + 1) × (N+1)², in the degree-major Y_n^m order, with
    zeros off the band; b = 0 is a diagonal matrix.
    """

    entries: np.ndarray

    def __post_init__(self):
        self.entries.setflags(write=False)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        b = len(self.entries) // 2
        # scipy's gbmv wrapper rejects 2b + 1 > n; the diagonal format does not
        return dia_matrix((self.entries, b - np.arange(2 * b + 1)), (x.size, x.size)) @ x

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with A x = rhs by a banded LU; raises :class:`SingularSystemError`
        if A has a non-finite entry or a relative 1-norm rcond below 1e-12."""
        band, b = self.entries, len(self.entries) // 2
        if not np.all(np.isfinite(band)):
            raise SingularSystemError("combined system has a non-finite entry")
        gbtrf, gbcon, gbtrs = get_lapack_funcs(("gbtrf", "gbcon", "gbtrs"), (band, rhs))
        anorm = np.abs(band).sum(axis=0).max()  # a column sum of the band is one of A
        # b rows above the band take pivoting fill-in; Fortran order: no copy
        work = np.zeros((3 * b + 1, band.shape[1]), dtype=complex, order="F")
        work[b:] = band
        lu, piv, info = gbtrf(work, b, b, overwrite_ab=True)
        rcond = gbcon(b, b, lu, piv, anorm)[0] if info == 0 else 0.0  # info > 0: zero pivot
        if not rcond >= 1e-12:
            raise SingularSystemError(f"combined system is singular (rcond = {rcond:.3e})")
        return gbtrs(lu, b, b, rhs, piv)[0]


def sphere_operator_eigenvalue(op_kind: str, k: float, a: float, n):
    """Eigenvalue of a factor-2 layer operator on Y_n^m for the radius-a sphere.

    ``n`` may be an array of degrees; the result then has its shape.
    """
    if op_kind not in OP_KINDS:
        raise ValueError(f"unknown operator kind {op_kind!r}")
    degrees = np.asarray(n)
    if a <= 0 or not np.all((degrees >= 0) & (degrees == np.floor(degrees))):
        raise ValueError("need a > 0 and integer degrees n >= 0")
    if op_kind == "S0":
        return 2.0 * a / (2 * degrees + 1)
    if k <= 0:
        raise ValueError("need wavenumber k > 0")
    ka = k * a
    jn, jnp = sph_bessel_j(n, ka), sph_bessel_j(n, ka, derivative=True)
    hn, hnp = sph_hankel1(n, ka), sph_hankel1(n, ka, derivative=True)
    if op_kind == "S":
        return 2j * k * a * a * jn * hn
    if op_kind in ("K", "Kp"):
        return 1j * k * k * a * a * (jnp * hn + jn * hnp)
    return 2j * k**3 * a * a * jnp * hnp  # T


def sphere_operator_diagonal(op_kind: str, k: float, a: float,
                             band_limit: int) -> np.ndarray:
    per_degree = sphere_operator_eigenvalue(op_kind, k, a, np.arange(band_limit + 1))
    return per_degree[harmonic_degrees(band_limit)]


@lru_cache(maxsize=16)
def _cached_rule(order: int) -> QuadratureRule:
    return gauss_product_rule(order)


def multiplication_operator(lam: ImpedanceField, band_limit: int) -> BoundaryOperatorMatrix:
    """M_{iλ} by the selection rule: iλ₀ at b = 0 for a constant λ, else assembled."""
    if lam.is_constant:
        return BoundaryOperatorMatrix(
            entries=np.full((1, num_harmonics(band_limit)), 1j * lam.constant_value))
    return assemble_multiplication(lam, band_limit)


def assemble_multiplication(lam: ImpedanceField, band_limit: int,
                            rule: QuadratureRule | None = None) -> BoundaryOperatorMatrix:
    """Galerkin matrix of f -> iλ f in the Y_n^m basis, in band storage.

    Exact for the resolved bandwidths provided the rule order is at least
    N + N_λ; a coarser rule raises :class:`AliasingError`.  Only the blocks
    with |m − m'| <= N_λ are formed, and only their entries inside the
    band are kept (see the module docstring); the rest vanish.
    """
    min_order = band_limit + lam.band_limit
    if rule is None:
        rule = _cached_rule(max(min_order, band_limit + 2))
    elif rule.order < min_order:
        raise AliasingError(
            f"rule order {rule.order} < N + N_lambda = {min_order}; aliasing"
        )
    rings = rule.order + 1
    # fft gives Σ_l a_l e^{−iqφ_l} at index q mod L, so F_q sits at −q mod L;
    # row q + N_λ of ``fourier`` holds F_q on every ring
    ring_sums = np.fft.fft((rule.weights * lam.evaluate_on(rule)).reshape(rings, -1))
    nq = lam.band_limit
    fourier = ring_sums[:, -np.arange(-nq, nq + 1) % ring_sums.shape[1]].T
    mu = rule.mu.reshape(rings, -1)[:, 0]
    legendre = sph_harmonic_all(band_limit, mu, np.zeros(rings)).real  # P̄_n^m(μ_j)
    degs = harmonic_degrees(band_limit)
    orders = np.arange(degs.size) - degs * (degs + 1)
    reach = min(nq, band_limit)
    b = reach * (2 * band_limit - reach + 2)
    entries = np.zeros((2 * b + 1, degs.size), dtype=complex)
    for m in range(-band_limit, band_limit + 1):
        rows = np.flatnonzero(orders == m)
        cols = np.flatnonzero(np.abs(orders - m) <= nq)
        weighted = legendre[cols] * fourier[orders[cols] - m + nq]
        block = 1j * legendre[rows] @ weighted.T
        r, c = np.nonzero(np.abs(rows[:, None] - cols) <= b)
        entries[b + rows[r] - cols[c], cols[c]] = block[r, c]
    return BoundaryOperatorMatrix(entries=entries)


def default_coupling(k: float) -> float:
    """Combined-field coupling η = max(1, k)."""
    return max(1.0, k)


def assemble_combined_system(k: float, geom: ObstacleGeometry, lam: ImpedanceField,
                             eta: float, band_limit: int,
                             mult: BoundaryOperatorMatrix | None = None
                             ) -> BoundaryOperatorMatrix:
    """System matrix A with A φ = −2 g for the combined-field ansatz.

    A is M_{iλ} times the diagonal −2·trace plus a diagonal, so it has the
    band of M_{iλ}; ``mult`` is M_{iλ} when the caller has already built it.
    """
    if eta == 0.0:
        raise ValueError("coupling parameter eta must be nonzero")
    if not geom.is_sphere:
        raise NotImplementedError(
            "operator assembly is implemented for sphere geometry only"
        )
    # 2·dtrace + 1 = K' + iηTS₀² and 2·trace = S + iη(K+I)S₀², so
    # A = I − (2·dtrace + 1) − M_{iλ}·2·trace is −2 × (∂_ν u^s + iλ u^s)
    trace, dtrace = exterior_trace_operators(k, geom.radius, eta, band_limit)
    mult = mult or multiplication_operator(lam, band_limit)
    entries = mult.entries * (-2.0 * trace)
    entries[len(entries) // 2] += 1.0 - (2.0 * dtrace + 1.0)  # the diagonal row
    return BoundaryOperatorMatrix(entries=entries)


def exterior_trace_operators(k: float, a: float, eta: float,
                             band_limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals mapping density φ to (u^s, ∂_ν u^s) exterior boundary traces.

    These are c·h_n(ka) and c·k·h_n'(ka) with c the radiating coefficient;
    by the Wronskian they equal ½(S + iη(K+I)S₀²) and ½(K − I + iηTS₀²).
    """
    n = np.arange(band_limit + 1)
    degs = harmonic_degrees(band_limit)
    c = radiating_coefficient_diagonal(k, a, eta, band_limit)
    return (c * sph_hankel1(n, k * a)[degs],
            c * k * sph_hankel1(n, k * a, derivative=True)[degs])


def radiating_coefficient_diagonal(k: float, a: float, eta: float,
                                   band_limit: int) -> np.ndarray:
    """c with u^s = Σ c_nm φ_nm h_n(k r) Y_n^m outside the obstacle."""
    degs = harmonic_degrees(band_limit)
    jn = sph_bessel_j(np.arange(band_limit + 1), k * a)[degs]
    jnp = sph_bessel_j(np.arange(band_limit + 1), k * a, derivative=True)[degs]
    s0sq = sphere_operator_diagonal("S0", k, a, band_limit) ** 2
    return 1j * k * a * a * jn + 1j * eta * s0sq * 1j * k * k * a * a * jnp


def incident_coefficients(k: float, omega: np.ndarray, a: float,
                          band_limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi-Anger coefficients of (u^i, ∂_ν u^i) on the radius-a sphere."""
    amp = plane_wave_amplitudes(omega, band_limit)
    degs = harmonic_degrees(band_limit)
    jn = sph_bessel_j(np.arange(band_limit + 1), k * a)[degs]
    jnp = sph_bessel_j(np.arange(band_limit + 1), k * a, derivative=True)[degs]
    return amp * jn, amp * k * jnp


def rhs_from_incident(k: float, omega: np.ndarray, lam: ImpedanceField,
                      band_limit: int, a: float = 1.0, tail_tol: float = 1e-12,
                      mult: BoundaryOperatorMatrix | None = None) -> np.ndarray:
    """Coefficients of g = −(∂_ν u^i + iλ u^i) on the boundary.

    Warns when the plane-wave (Jacobi-Anger) tail at degree N is not yet
    negligible against its head.  ``mult`` is M_{iλ} for ``lam``, as built
    by :func:`multiplication_operator`.
    """
    u_inc, dnu_inc = incident_coefficients(k, omega, a, band_limit)
    head = np.max(np.abs(u_inc))
    tail = np.max(np.abs(u_inc[-(2 * band_limit + 1):]))  # the degree-N entries
    if head > 0 and tail > tail_tol * head:
        warnings.warn(
            f"plane-wave series tail at degree {band_limit} is {tail / head:.2e} "
            "of its head; raise the band limit"
        )
    return -(dnu_inc + mult.matvec(u_inc))
