"""Spherical special functions and product quadrature on the unit sphere.

Everything downstream (layer operators, far fields, impedance transforms,
weighted Carleman integrals) is built on three primitives provided here:

* spherical Bessel / Hankel functions ``j_n``, ``y_n``, ``h_n^{(1)}`` and
  their derivatives, for one degree or an array of degrees that broadcasts
  against the argument,
* orthonormal (complex and real) spherical harmonics ``Y_n^m``, evaluated
  for all degrees up to a band limit in one vectorized pass, at scattered
  points (values only: on the sphere no caller needs their derivatives),
* Gauss-Legendre x uniform-azimuth product rules that integrate harmonics
  of degree <= 2N+1 exactly, with one transform for synthesis on them:
  ``_synthesize`` evaluates Σ c_nm Y_n^m by a Legendre sum on the N+1 ring
  latitudes (``_ring_legendre``, the table ``layer_ops`` also reads) and
  one inverse FFT per ring, never forming the (N+1)^2 x npts matrix.

All functions are pure.  Quadrature rules, ring tables and the m-major
order (``_m_major``) depend only on their integer arguments; each is built
once, kept in a bounded cache and read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

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
    orders = np.arange(band_limit + 1).reshape((-1,) + (1,) * mu.ndim)
    for n in range(1, band_limit + 1):
        p[n, n] = -np.sqrt((2.0 * n + 1.0) / (2.0 * n)) * sin_t * p[n - 1, n - 1]
        p[n, n - 1] = np.sqrt(2.0 * n + 1.0) * mu * p[n - 1, n - 1]
        m = orders[:n - 1]  # the three-term recurrence for m <= n − 2
        a = np.sqrt((4.0 * n * n - 1.0) / (n * n - m * m))
        b = np.sqrt(((n - 1.0) ** 2 - m * m) / (4.0 * (n - 1.0) ** 2 - 1.0))
        p[n, :n - 1] = a * (mu * p[n - 1, :n - 1] - b * p[n - 2, :n - 1])
    return p


def sph_harmonic_all(band_limit: int, mu, phi) -> np.ndarray:
    """All Y_n^m, n <= N, at points (mu=cosθ, phi).

    Returns complex array of shape ((N+1)^2, npts) in ``harmonic_index``
    ordering.  Negative orders use Y_n^{-m} = (-1)^m conj(Y_n^m).
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    legendre = _normalized_legendre(band_limit, mu)
    expi = np.exp(1j * np.outer(np.arange(band_limit + 1), phi))
    out = np.empty((num_harmonics(band_limit), phi.size), dtype=complex)
    for n in range(band_limit + 1):
        zero = n * n + n
        pos = out[zero:zero + n + 1]  # m = 0..n
        np.multiply(legendre[n, :n + 1], expi[:n + 1], out=pos)
        neg = out[n * n:zero]  # m = −n..−1, from m = n..1
        np.conjugate(pos[:0:-1], out=neg)
        neg[(n + 1) % 2::2] *= -1  # the odd orders
    return out


def plane_wave_amplitudes(direction, band_limit: int) -> np.ndarray:
    """Jacobi-Anger amplitudes 4π iⁿ conj(Y_n^m(ω)) of e^{ik x·ω}.

    e^{ik x·ω} = Σ 4π iⁿ conj(Y_n^m(ω)) j_n(k|x|) Y_n^m(x̂), so the
    amplitudes times any radial factor give the mode coefficients.
    """
    d = np.asarray(direction, dtype=float)
    if abs(np.linalg.norm(d) - 1.0) > 1e-12:
        raise ValueError("direction must be a unit vector")
    y_at_omega = sph_harmonic_all(band_limit, np.clip(d[2], -1.0, 1.0),
                                  np.arctan2(d[1], d[0]))[:, 0]
    return 4.0 * np.pi * (1j ** harmonic_degrees(band_limit)) * np.conj(y_at_omega)


def real_sph_harmonic_all(band_limit: int, mu, phi) -> np.ndarray:
    """Real orthonormal harmonics: sqrt2·Re Y (m>0), Y (m=0), sqrt2·Im Y (m<0)."""
    ycplx = sph_harmonic_all(band_limit, mu, phi)
    out = np.empty(ycplx.shape)
    for n in range(band_limit + 1):
        zero = n * n + n
        pos = ycplx[zero:zero + n + 1]  # m = 0..n
        out[zero:zero + n + 1] = pos.real
        out[zero + 1:zero + n + 1] *= np.sqrt(2.0)
        out[n * n:zero] = np.sqrt(2.0) * pos[:0:-1].imag
    return out


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


@lru_cache(maxsize=16)
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


# ---------------------------------------------------------------------------
# Synthesis on a product rule
# ---------------------------------------------------------------------------

def _band_limit_of(size: int) -> int:
    """N for a flat coefficient vector of (N+1)^2 entries."""
    band_limit = isqrt(size) - 1
    if size < 1 or size != num_harmonics(band_limit):
        raise ValueError(f"{size} coefficients are not (N+1)^2 for any band limit N")
    return band_limit


def _complex_coefficients(real_coeffs) -> np.ndarray:
    """Complex-harmonic coefficients of Σ a_nm R_n^m, R the real harmonics.

    With R as in :func:`real_sph_harmonic_all`: c_n0 = a_n0, and for m > 0
    c_nm = (a_nm − i a_n,−m)/sqrt2 and c_n,−m = (−1)^m conj(c_nm).
    """
    a = np.asarray(real_coeffs, dtype=float)
    degs = harmonic_degrees(_band_limit_of(a.size))
    zero = degs * (degs + 1)
    m = np.arange(degs.size) - zero
    pos = (a[zero + np.abs(m)] - 1j * a[zero - np.abs(m)]) / np.sqrt(2.0)
    neg = (1 - 2 * (np.abs(m) % 2)) * np.conj(pos)
    return np.where(m > 0, pos, np.where(m < 0, neg, a))


@lru_cache(maxsize=16)
def _m_major(band_limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-major order (m = −N..N, then n = |m|..N) and its block bounds.

    ``perm[p]`` is the ``harmonic_index`` of the p-th harmonic in that
    order, and order m occupies ``perm[bounds[m + N]:bounds[m + N + 1]]``.
    """
    degs = harmonic_degrees(band_limit)
    orders = np.arange(degs.size) - degs * (degs + 1)
    perm = np.argsort(orders, kind="stable")
    bounds = np.searchsorted(orders[perm], np.arange(-band_limit, band_limit + 2))
    for arr in (perm, bounds):
        arr.setflags(write=False)
    return perm, bounds


@lru_cache(maxsize=16)
def _ring_legendre(band_limit: int, order: int) -> np.ndarray:
    """P̄_n^m(μ_j) on the ring latitudes of ``gauss_product_rule(order)``,
    ((N+1)^2, rings), with rows in the m-major order of :func:`_m_major`.

    Row (n, m) is Y_n^m at φ = 0, so Y_n^m(μ_j, φ) is that row times e^{imφ}
    for either sign of m.
    """
    rings = order + 1
    mu = gauss_product_rule(order).mu[::2 * rings]
    table = sph_harmonic_all(band_limit, mu, np.zeros(rings)).real[_m_major(band_limit)[0]]
    table.setflags(write=False)
    return table


def _check_product_rule(rule: QuadratureRule) -> None:
    """Raise unless ``rule`` has the nodes of ``gauss_product_rule(rule.order)``:
    order + 1 Gauss rings of 2·order + 2 uniform azimuths."""
    rings = rule.order + 1
    if rule.order >= 1 and rule.npts == rings * (2 * rings):
        gauss = gauss_product_rule(rule.order)
        if rule is gauss or (np.array_equal(rule.mu, gauss.mu)
                             and np.array_equal(rule.phi, gauss.phi)):
            return
    raise ValueError("rule is not a Gauss x uniform-azimuth product rule")


def _synthesize(coeffs, rule: QuadratureRule) -> np.ndarray:
    """Σ c_nm Y_n^m at the nodes of a product rule, for each row of ``coeffs``.

    ``coeffs`` is (..., (N+1)^2) in ``harmonic_index`` order; the result is
    (..., npts) in the rule's node order.  On ring j, G_m(μ_j) = Σ_n c_nm
    P̄_n^m(μ_j), and f(μ_j, φ_l) = Σ_m G_m e^{imφ_l} is one inverse FFT of
    length L = 2·order + 2 with G_m in bin m mod L; since e^{imφ_l} depends
    only on m mod L, a rule coarser than N folds exactly.  O(N^3), against
    O(N^4) for the dense product with :func:`sph_harmonic_all` (Driscoll &
    Healy, Adv. Appl. Math. 15 (1994)).
    """
    coeffs = np.asarray(coeffs)
    band_limit = _band_limit_of(coeffs.shape[-1])
    _check_product_rule(rule)
    table = _ring_legendre(band_limit, rule.order)
    perm, bounds = _m_major(band_limit)
    per_order = np.add.reduceat(coeffs[..., perm, None] * table,
                                bounds[:-1], axis=-2)  # G_m on every ring
    rings, n_phi = table.shape[1], 2 * table.shape[1]
    spectrum = np.zeros(coeffs.shape[:-1] + (rings, n_phi), dtype=complex)
    bins = np.arange(-band_limit, band_limit + 1) % n_phi
    np.add.at(spectrum, (..., bins), np.swapaxes(per_order, -1, -2))
    return np.fft.ifft(spectrum, norm="forward").reshape(coeffs.shape[:-1] + (-1,))
