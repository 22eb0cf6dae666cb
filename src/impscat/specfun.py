"""Spherical special functions and product quadrature on the unit sphere.

Everything downstream (layer operators, far fields, impedance transforms,
weighted Carleman integrals) is built on three primitives provided here:

* spherical Bessel / Hankel functions ``j_n``, ``y_n``, ``h_n^{(1)}`` and
  their derivatives, for one degree or an array of degrees that broadcasts
  against the argument,
* orthonormal (complex and real) spherical harmonics ``Y_n^m``, evaluated
  for all degrees up to a band limit in one vectorized pass,
* Gauss-Legendre x uniform-azimuth product rules that integrate harmonics
  of degree <= 2N+1 exactly.

All functions are pure; quadrature rules are immutable once built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import spherical_jn, spherical_yn


def _check_order_arg(n, x) -> tuple[np.ndarray, np.ndarray]:
    degrees = np.asarray(n)
    if not np.all((degrees >= 0) & (degrees == np.floor(degrees))):
        raise ValueError(f"order must be a nonnegative integer, got {n!r}")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)) or np.any(x <= 0.0):
        raise ValueError("argument must be positive and finite")
    return degrees.astype(int), x


def sph_bessel_j(n, x, derivative: bool = False):
    """Spherical Bessel function j_n(x) (or j_n'(x)) for x > 0."""
    n, x = _check_order_arg(n, x)
    out = spherical_jn(n, x, derivative=derivative)
    return out if out.ndim else float(out)


def sph_bessel_y(n, x, derivative: bool = False):
    """Spherical Bessel function y_n(x) (or y_n'(x)) for x > 0."""
    n, x = _check_order_arg(n, x)
    out = spherical_yn(n, x, derivative=derivative)
    return out if out.ndim else float(out)


def sph_hankel1(n, x, derivative: bool = False):
    """Spherical Hankel function of the first kind, h_n(x) = j_n(x) + i y_n(x)."""
    n, x = _check_order_arg(n, x)
    out = spherical_jn(n, x, derivative=derivative) + 1j * spherical_yn(
        n, x, derivative=derivative
    )
    return out if out.ndim else complex(out)


# ---------------------------------------------------------------------------
# Spherical harmonics
# ---------------------------------------------------------------------------

def harmonic_index(n: int, m: int) -> int:
    """Flat index of (n, m) in the degree-major ordering, m = -n..n."""
    if abs(m) > n:
        raise IndexError(f"|m| = {abs(m)} exceeds degree n = {n}")
    return n * n + n + m


def num_harmonics(band_limit: int) -> int:
    return (band_limit + 1) ** 2


def harmonic_degrees(band_limit: int) -> np.ndarray:
    """Degree n of each flat index, shape ((N+1)^2,)."""
    return np.repeat(np.arange(band_limit + 1), 2 * np.arange(band_limit + 1) + 1)


def _normalized_legendre(band_limit: int, mu: np.ndarray) -> np.ndarray:
    """Fully normalized associated Legendre P̄_n^m(mu) for 0 <= m <= n <= N.

    Normalization is chosen so Y_n^m = P̄_n^m(cos θ) e^{imφ} is orthonormal
    on the sphere; the Condon-Shortley phase is included.  The fully
    normalized three-term recurrence stays bounded for large degrees.
    Returns array of shape (N+1, N+1, len(mu)) indexed [n, m].
    """
    mu = np.asarray(mu, dtype=float)
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - mu * mu))
    p = np.zeros((band_limit + 1, band_limit + 1) + mu.shape)
    p[0, 0] = 1.0 / np.sqrt(4.0 * np.pi)
    for m in range(1, band_limit + 1):
        p[m, m] = -np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * sin_t * p[m - 1, m - 1]
    for m in range(band_limit):
        p[m + 1, m] = np.sqrt(2.0 * m + 3.0) * mu * p[m, m]
    for m in range(band_limit + 1):
        for n in range(m + 2, band_limit + 1):
            a = np.sqrt((4.0 * n * n - 1.0) / (n * n - m * m))
            b = np.sqrt(((n - 1.0) ** 2 - m * m) / (4.0 * (n - 1.0) ** 2 - 1.0))
            p[n, m] = a * (mu * p[n - 1, m] - b * p[n - 2, m])
    return p


def _orders_to_rows(band_limit: int, factor: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Rows factor[n, m]·e^{imφ} for m >= 0, and their −m partners, flat-indexed.

    Negative orders use the conjugate symmetry (−1)^m conj(·) that holds for
    Y_n^m and for each of its θ-derivatives.
    """
    expi = np.exp(1j * np.outer(np.arange(band_limit + 1), phi))
    out = np.empty((num_harmonics(band_limit), phi.size), dtype=complex)
    for n in range(band_limit + 1):
        zero = n * n + n
        pos = out[zero:zero + n + 1]  # m = 0..n
        np.multiply(factor[n, :n + 1], expi[:n + 1], out=pos)
        neg = out[n * n:zero]  # m = −n..−1, from m = n..1
        np.conjugate(pos[:0:-1], out=neg)
        neg[(n + 1) % 2::2] *= -1  # the odd orders
    return out


def sph_harmonic_all(band_limit: int, mu, phi) -> np.ndarray:
    """All Y_n^m, n <= N, at points (mu=cosθ, phi).

    Returns complex array of shape ((N+1)^2, npts) in ``harmonic_index``
    ordering.  Negative orders use Y_n^{-m} = (-1)^m conj(Y_n^m).
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    return _orders_to_rows(band_limit, _normalized_legendre(band_limit, mu), phi)


def sph_harmonic(n: int, m: int, direction) -> complex:
    """Orthonormal Y_n^m evaluated at a single unit vector."""
    if abs(m) > n:
        raise IndexError(f"|m| = {abs(m)} exceeds degree n = {n}")
    d = np.asarray(direction, dtype=float)
    if abs(np.linalg.norm(d) - 1.0) > 1e-12:
        raise ValueError("direction must be a unit vector")
    mu = np.clip(d[2], -1.0, 1.0)
    phi = np.arctan2(d[1], d[0])
    return complex(sph_harmonic_all(n, mu, phi)[harmonic_index(n, m), 0])


def plane_wave_amplitudes(direction, band_limit: int) -> np.ndarray:
    """Jacobi-Anger amplitudes 4π iⁿ conj(Y_n^m(ω)) of e^{ik x·ω}.

    e^{ik x·ω} = Σ 4π iⁿ conj(Y_n^m(ω)) j_n(k|x|) Y_n^m(x̂), so the
    amplitudes times any radial factor give the mode coefficients.
    """
    omega = np.asarray(direction, dtype=float)
    if abs(np.linalg.norm(omega) - 1.0) > 1e-12:
        raise ValueError("incident direction must be a unit vector")
    mu = np.clip(omega[2], -1.0, 1.0)
    phi = np.arctan2(omega[1], omega[0])
    y_at_omega = sph_harmonic_all(band_limit, mu, phi)[:, 0]
    return 4.0 * np.pi * (1j ** harmonic_degrees(band_limit)) * np.conj(y_at_omega)


def sph_harmonic_all_dtheta(band_limit: int, mu, phi) -> np.ndarray:
    """Polar-angle derivatives dY_n^m/dθ at points away from the poles.

    Uses the fully normalized identity
    sinθ · dP̄_n^m/dθ = n μ P̄_n^m − sqrt((2n+1)(n²−m²)/(2n−1)) P̄_{n−1}^m.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - mu * mu))
    if np.any(sin_t < 1e-12):
        raise ValueError("dθ evaluation requested at a pole")
    p = _normalized_legendre(band_limit, mu)
    m = np.arange(band_limit + 1)[:, None]
    for n in range(band_limit, 0, -1):  # downward: row n − 1 still holds P̄_{n−1}^m
        c = np.sqrt((2.0 * n + 1.0) * np.maximum(n * n - m * m, 0) / (2.0 * n - 1.0))
        p[n] = (n * mu * p[n] - c * p[n - 1]) / sin_t
    p[0] = 0.0
    return _orders_to_rows(band_limit, p, phi)


def to_real_basis(band_limit: int, ycplx: np.ndarray) -> np.ndarray:
    """Complex-harmonic rows to real ones: sqrt2·Re (m>0), Re (m=0), sqrt2·Im (m<0).

    Row (n, −m) of the result is built from row (n, m) of ``ycplx``, so the
    map also carries derivatives of Y_n^m to those of the real harmonics.
    """
    out = np.empty(ycplx.shape)
    for n in range(band_limit + 1):
        zero = n * n + n
        pos = ycplx[zero:zero + n + 1]  # m = 0..n
        out[zero:zero + n + 1] = pos.real
        out[zero + 1:zero + n + 1] *= np.sqrt(2.0)
        out[n * n:zero] = np.sqrt(2.0) * pos[:0:-1].imag
    return out


def real_sph_harmonic_all(band_limit: int, mu, phi) -> np.ndarray:
    """Real orthonormal harmonics: sqrt2·Re Y (m>0), Y (m=0), sqrt2·Im Y (m<0)."""
    return to_real_basis(band_limit, sph_harmonic_all(band_limit, mu, phi))


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Product rule on the unit sphere: nodes (mu=cosθ, phi) with weights.

    Weights are positive and sum to the sphere area 4π.  A rule built with
    ``gauss_product_rule(N)`` integrates spherical harmonics exactly up to
    degree 2N+1.
    """

    mu: np.ndarray
    phi: np.ndarray
    weights: np.ndarray
    order: int

    def __post_init__(self):
        for arr in (self.mu, self.phi, self.weights):
            arr.setflags(write=False)

    @property
    def npts(self) -> int:
        return self.weights.size

    def points(self) -> np.ndarray:
        """Unit vectors, shape (npts, 3)."""
        sin_t = np.sqrt(np.maximum(0.0, 1.0 - self.mu**2))
        return np.column_stack(
            (sin_t * np.cos(self.phi), sin_t * np.sin(self.phi), self.mu)
        )

    def integrate(self, values) -> complex:
        return np.sum(self.weights * np.asarray(values), axis=-1)


def gauss_product_rule(band_limit: int) -> QuadratureRule:
    """Gauss-Legendre (N+1 polar) x uniform (2N+2 azimuth) product rule."""
    if band_limit < 1:
        raise ValueError("band limit must be >= 1")
    mu_1d, w_1d = np.polynomial.legendre.leggauss(band_limit + 1)
    n_phi = 2 * band_limit + 2
    phi_1d = 2.0 * np.pi * np.arange(n_phi) / n_phi
    mu = np.repeat(mu_1d, n_phi)
    phi = np.tile(phi_1d, band_limit + 1)
    w = np.repeat(w_1d, n_phi) * (2.0 * np.pi / n_phi)
    return QuadratureRule(mu=mu, phi=phi, weights=w, order=band_limit)
