"""Spherical special functions and product quadrature on the unit sphere.

Everything downstream (layer operators, far fields, impedance transforms,
weighted Carleman integrals) is built on three primitives provided here:

* spherical Bessel / Hankel functions ``j_n``, ``y_n``, ``h_n^{(1)}`` and
  their derivatives, for one degree or an array of degrees that broadcasts
  against the argument, from the three-term recurrence in numpy and
  ``math``: one table per distinct argument x, with Miller's backward
  recurrence for j_n past the turning point n = x (``_j_upto``) and the
  forward recurrence below it and for y_n (``_y_upto``),
* orthonormal (complex and real) spherical harmonics ``Y_n^m``, evaluated
  for all degrees up to a band limit at scattered points, from one Legendre
  recurrence and one gather over the ±m rows (values only: on the sphere
  no caller needs their derivatives),
* Gauss-Legendre x uniform-azimuth product rules that integrate harmonics
  of degree <= 2N+1 exactly, with one transform for synthesis on them:
  ``_synthesize`` evaluates Σ c_nm Y_n^m by a Legendre sum on the N+1 ring
  latitudes (``_ring_legendre``, the table ``layer_ops`` also reads) and
  one inverse FFT per ring, never forming the (N+1)^2 x npts matrix.

This module uses no scipy: importing scipy's special functions took longer
than a constant-impedance far-field job takes to run.

All functions are pure.  Gauss-Legendre tables (``_gauss_legendre``),
quadrature rules, ring tables, the Legendre recurrence coefficients
(``_legendre_steps``), the row indices of the ±m gather (``_order_rows``)
and the m-major order (``_m_major``) depend only on their integer
arguments; each is built once, kept in a bounded cache and read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import acosh, ceil, cos, hypot, inf, isqrt, sin

import numpy as np


def _check_order_arg(n, x) -> tuple[np.ndarray, np.ndarray]:
    degrees = np.asarray(n)
    if not np.all((degrees >= 0) & (degrees == np.floor(degrees))):
        raise ValueError(f"order must be a nonnegative integer, got {n!r}")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)) or np.any(x <= 0.0):
        raise ValueError("argument must be positive and finite")
    return degrees.astype(int), x


_EPS = float(np.finfo(float).eps)


# The backward recurrence for the degrees up to t starts at the S where
# j_S(x)/j_t(x) has fallen to about e^{−25}: the minimal solution j_n then
# falls by about e^{−50} against the dominant y_n between t and S, so the
# ratios at n <= t are exact to rounding.
_MILLER_LOG_DECAY = 25.0


def _miller_start(x: float, top: int) -> int:
    """The degree S > max(top, x) where the backward recurrence for j_n(x),
    n <= ``top``, starts.

    Past the turning point n = x each degree divides j_n(x) by about
    e^{arccosh(n/x)} (Debye's expansion, DLMF §10.19(ii)), so S is the first
    degree where those factors, from ``top`` on, multiply to e^{25}.
    """
    n = max(top, ceil(x))
    decay = 0.0
    while decay < _MILLER_LOG_DECAY:
        n += 1
        decay += acosh(n / x)
    return n


def _miller_ratios(x: float, start: int) -> list:
    """ρ_n = j_n(x)/j_{n−1}(x) for n = 1..start (index n), by the backward
    recurrence ρ_n = x/(2n + 1 − x ρ_{n+1}) from ρ_{start+1} = 0."""
    ratios = [0.0] * (start + 1)
    ratio = 0.0
    for n in range(start, 0, -1):
        d = 2 * n + 1 - x * ratio
        if d == 0.0:  # j_{n−1}(x) = 0 to rounding: keep ρ_n finite
            d = _EPS * (2 * n + 1)
        ratio = ratios[n] = x / d
    return ratios


def _j_upto(x: float, top: int) -> np.ndarray:
    """j_0(x) .. j_top(x).

    Below the turning point (n < x) both solutions of the recurrence
    f_{n+1} = (2n+1)/x f_n − f_{n−1} oscillate, and j_n comes forward from
    j_0 = sin x/x and j_1 = (j_0 − cos x)/x.  Past it j_n is the minimal
    solution, so it comes from Miller's backward recurrence (Gautschi, SIAM
    Rev. 9 (1967); DLMF §10.74(iv)): j_n is the product of the ratios of
    :func:`_miller_ratios` from j_0, or from j_1 where |j_1| > |j_0| (near a
    zero of j_0).  The degrees come in blocks 0..31, 32..63, 64..127, ...,
    one backward pass each, started past the block's top: no step depends on
    ``top`` or on the other degrees asked for, and a table to N costs O(N)
    steps.  j_n underflows to 0, never to NaN.
    """
    j0 = sin(x) / x
    j1 = (j0 - cos(x)) / x
    below = min(top, ceil(x) - 1)  # the last degree below the turning point
    out = [j0, j1][:below + 1]
    for n in range(1, below):
        out.append((2 * n + 1) / x * out[n] - out[n - 1])
    first = 1 if abs(j1) > abs(j0) else 0
    block = 31
    while len(out) <= top:
        while block < len(out):
            block = 2 * block + 1
        ratios = _miller_ratios(x, _miller_start(x, block))
        value = (j0, j1)[first]
        for n in range(first + 1, min(block, top) + 1):
            value *= ratios[n]
            if n == len(out):
                out.append(value)
    return np.array(out)


def _y_upto(x: float, top: int) -> np.ndarray:
    """y_0(x) .. y_top(x) by the forward recurrence, for which y_n is the
    dominant solution: −inf from the first degree that overflows, never NaN."""
    y0 = -cos(x) / x
    out = [y0, (y0 - sin(x)) / x][:top + 1]
    for n in range(1, top):
        if out[n] == -inf:
            break
        out.append((2 * n + 1) / x * out[n] - out[n - 1])
    values = np.full(top + 1, -np.inf)
    values[:len(out)] = out
    return values


def _tabulated(n, x, derivative: bool, upto) -> np.ndarray:
    """f_n(x), or f_n'(x), broadcast over n and x, from one ``upto(x, top)``
    table per distinct x."""
    n, x = _check_order_arg(n, x)
    if x.ndim == 0:
        return _from_table(upto, float(x), n, derivative)
    n, x = np.broadcast_arrays(n, x)
    shape, n = n.shape, n.ravel()
    values, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    groups = np.split(np.argsort(inverse.ravel(), kind="stable"), np.cumsum(counts)[:-1])
    out = np.empty(n.size)
    for value, at in zip(values, groups):
        out[at] = _from_table(upto, float(value), n[at], derivative)
    return out.reshape(shape)


def _from_table(upto, x: float, n: np.ndarray, derivative: bool) -> np.ndarray:
    """f_n(x) or f_n'(x) at the degrees ``n``, from one table of f_0..f_top."""
    top = int(n.max(initial=0))
    f = upto(x, max(top, 1) if derivative else top)
    if derivative:
        # f_0' = −f_1 and f_n' = f_{n−1} − (n+1) f_n/x (DLMF §10.51.2); past
        # the overflow of y_n the difference is inf − inf, and y_n' is +inf
        df = np.empty_like(f)
        df[0] = -f[1]
        with np.errstate(over="ignore", invalid="ignore"):
            df[1:] = f[:-1] - np.arange(2, f.size + 1) * (f[1:] / x)
        df[np.isinf(f)] = np.inf
        f = df
    return f[n]


def sph_bessel_j(n, x, derivative: bool = False):
    """Spherical Bessel function j_n(x) (or j_n'(x)) for x > 0."""
    out = _tabulated(n, x, derivative, _j_upto)
    return out if out.ndim else float(out)


def sph_bessel_y(n, x, derivative: bool = False):
    """Spherical Bessel function y_n(x) (or y_n'(x)) for x > 0: −inf (and
    y_n' +inf) past the degree where it overflows."""
    out = _tabulated(n, x, derivative, _y_upto)
    return out if out.ndim else float(out)


def sph_hankel1(n, x, derivative: bool = False):
    """Spherical Hankel function of the first kind, h_n(x) = j_n(x) + i y_n(x)
    (or h_n'(x)); its imaginary part is infinite past the overflow of y_n."""
    j = _tabulated(n, x, derivative, _j_upto)
    out = np.empty(j.shape, dtype=complex)
    out.real = j  # set by part: j + 1j·y would make 0·inf = NaN once y overflows
    out.imag = _tabulated(n, x, derivative, _y_upto)
    return out if out.ndim else complex(out)


# ---------------------------------------------------------------------------
# Spherical harmonics
# ---------------------------------------------------------------------------

def num_harmonics(band_limit: int) -> int:
    return (band_limit + 1) ** 2


def harmonic_degrees(band_limit: int) -> np.ndarray:
    """Degree n of each flat index, shape ((N+1)^2,), in the degree-major
    order: (n, m) has index n² + n + m, m = −n..n."""
    return np.repeat(np.arange(band_limit + 1), 2 * np.arange(band_limit + 1) + 1)


@lru_cache(maxsize=16)
def _legendre_steps(band_limit: int) -> tuple:
    """The recurrence coefficients of :func:`_normalized_legendre` to N,
    built once per N and read-only.

    ``sectoral[n − 1]`` = −sqrt((2n+1)/(2n)) and ``next_sectoral[n − 1]`` =
    sqrt(2n+1), n = 1..N; ``three_term[n − 2]`` is the pair (a, b) of columns
    over m = 0..n−2 (shape (n−1, 1)) with a = sqrt((4n²−1)/(n²−m²)) and
    b = sqrt(((n−1)²−m²)/(4(n−1)²−1)), n = 2..N.
    """
    n = np.arange(1, band_limit + 1)
    sectoral = -np.sqrt((2.0 * n + 1.0) / (2.0 * n))
    next_sectoral = np.sqrt(2.0 * n + 1.0)
    three_term = []
    for n in range(2, band_limit + 1):
        m = np.arange(n - 1)[:, None]
        three_term.append((np.sqrt((4.0 * n * n - 1.0) / (n * n - m * m)),
                           np.sqrt(((n - 1.0) ** 2 - m * m) / (4.0 * (n - 1.0) ** 2 - 1.0))))
    for arr in (sectoral, next_sectoral, *(c for pair in three_term for c in pair)):
        arr.setflags(write=False)
    return sectoral, next_sectoral, tuple(three_term)


def _normalized_legendre(band_limit: int, mu: np.ndarray) -> np.ndarray:
    """Fully normalized associated Legendre P̄_n^m(mu) for 0 <= m <= n <= N.

    Normalization is chosen so Y_n^m = P̄_n^m(cos θ) e^{imφ} is orthonormal
    on the sphere; the Condon-Shortley phase is included.  The fully
    normalized recurrence (Holmes & Featherstone, J. Geodesy 76 (2002))
    stays bounded for large degrees, and its coefficients come from the
    cached :func:`_legendre_steps`: the sectoral P̄_n^n = −sqrt((2n+1)/(2n))
    sinθ P̄_{n−1}^{n−1} is one ``cumprod`` over n, P̄_n^{n−1} = sqrt(2n+1) μ
    P̄_{n−1}^{n−1} one product, and only the three-term step for m <= n − 2,
    sequential in n, loops over the degrees.
    Returns array of shape (N+1, N+1) + mu.shape indexed [n, m], zero for m > n.
    """
    mu = np.asarray(mu, dtype=float)
    shape, mu = mu.shape, mu.ravel()
    sectoral, next_sectoral, three_term = _legendre_steps(band_limit)
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - mu * mu))
    diagonal = np.empty((band_limit + 1, mu.size))
    diagonal[0] = 1.0 / np.sqrt(4.0 * np.pi)
    np.multiply(sectoral[:, None], sin_t, out=diagonal[1:])
    np.cumprod(diagonal, axis=0, out=diagonal)
    p = np.zeros((band_limit + 1, band_limit + 1, mu.size))
    degrees = np.arange(band_limit + 1)
    p[degrees, degrees] = diagonal
    p[degrees[1:], degrees[:-1]] = next_sectoral[:, None] * mu * diagonal[:-1]
    for n, (a, b) in enumerate(three_term, start=2):
        row = p[n, :n - 1]
        np.multiply(mu, p[n - 1, :n - 1], out=row)
        row -= b * p[n - 2, :n - 1]
        row *= a
    return p.reshape(p.shape[:2] + shape)


@lru_cache(maxsize=16)
def _order_rows(band_limit: int) -> tuple[np.ndarray, ...]:
    """Index arrays over the degree-major rows (n, m), built once per N and
    read-only: the flat index n(N+1) + |m| of P̄_n^{|m|} in an (N+1)²-row
    Legendre table, |m|, the row of (n, |m|), the rows with m < 0, and
    those of them with m odd."""
    degs = harmonic_degrees(band_limit)
    orders = np.arange(degs.size) - degs * (degs + 1)
    abs_order = np.abs(orders)
    rows = (degs * (band_limit + 1) + abs_order, abs_order, degs * (degs + 1) + abs_order,
            np.flatnonzero(orders < 0), np.flatnonzero((orders < 0) & (orders % 2 == 1)))
    for arr in rows:
        arr.setflags(write=False)
    return rows


def sph_harmonic_all(band_limit: int, mu, phi) -> np.ndarray:
    """All Y_n^m, n <= N, at points (mu=cosθ, phi).

    Returns complex array of shape ((N+1)^2, npts) in degree-major
    order.  Every row is one gather, P̄_n^{|m|} e^{i|m|φ}, on the cached
    index arrays of :func:`_order_rows`; then the m < 0 rows are conjugated
    and the odd ones negated: Y_n^{-m} = (-1)^m conj(Y_n^m).
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    flat, abs_order, _, negative, odd_negative = _order_rows(band_limit)
    legendre = _normalized_legendre(band_limit, mu).reshape(-1, mu.size)[flat]
    expi = np.exp(1j * np.outer(np.arange(band_limit + 1), phi))[abs_order]
    # a fresh ``out``: were the product computed into one of its own operands
    # (numpy reuses a large temporary), an underflowed product could take the
    # other sign of zero
    out = np.empty((flat.size, phi.size), dtype=complex)
    np.multiply(legendre, expi, out=out)
    out[negative] = np.conjugate(out[negative])
    out[odd_negative] *= -1
    return out


def plane_wave_amplitudes(direction, band_limit: int) -> np.ndarray:
    """Jacobi-Anger amplitudes 4π iⁿ conj(Y_n^m(ω)) of e^{ik x·ω}.

    e^{ik x·ω} = Σ 4π iⁿ conj(Y_n^m(ω)) j_n(k|x|) Y_n^m(x̂), so the
    amplitudes times any radial factor give the mode coefficients.
    """
    d = np.asarray(direction, dtype=float)
    if not abs(hypot(*d) - 1.0) <= 1e-12:  # hypot: no overflow, and NaN fails
        raise ValueError("direction must be a unit vector")
    y_at_omega = sph_harmonic_all(band_limit, np.clip(d[2], -1.0, 1.0),
                                  np.arctan2(d[1], d[0]))[:, 0]
    phases = (1j ** np.arange(band_limit + 1))[harmonic_degrees(band_limit)]
    return 4.0 * np.pi * phases * np.conj(y_at_omega)


def real_sph_harmonic_all(band_limit: int, mu, phi) -> np.ndarray:
    """Real orthonormal harmonics: sqrt2·Re Y (m>0), Y (m=0), sqrt2·Im Y_n^{|m|} (m<0).

    One gather of the m >= 0 rows of :func:`sph_harmonic_all`: the real
    parts, the imaginary parts on the m < 0 rows, and every m != 0 row
    scaled by sqrt2.
    """
    ycplx = sph_harmonic_all(band_limit, mu, phi)
    _, abs_order, mirror, negative, _ = _order_rows(band_limit)
    out = ycplx.real[mirror]
    out[negative] = ycplx.imag[mirror[negative]]
    out[abs_order != 0] *= np.sqrt(2.0)
    return out


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes and weights on [−1, 1], read-only."""
    table = np.polynomial.legendre.leggauss(n)
    for arr in table:
        arr.setflags(write=False)
    return table


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre x uniform-azimuth product rule on the unit sphere.

    The order fixes the read-only nodes (mu=cosθ, phi), ring-major: ``rings``
    = order + 1 Gauss latitudes of ``azimuths`` = 2·order + 2 uniform ones.
    The weights sum to 4π; harmonics of degree <= 2·order + 1 integrate exactly.
    """

    order: int
    mu: np.ndarray = field(init=False, repr=False, compare=False)
    phi: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("band limit must be >= 1")
        mu_1d, w_1d = _gauss_legendre(self.rings)
        n_phi = self.azimuths
        phi_1d = 2.0 * np.pi * np.arange(n_phi) / n_phi
        for name, arr in (("mu", np.repeat(mu_1d, n_phi)),
                          ("phi", np.tile(phi_1d, self.rings)),
                          ("weights", np.repeat(w_1d, n_phi) * (2.0 * np.pi / n_phi))):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def rings(self) -> int:
        return self.order + 1

    @property
    def azimuths(self) -> int:
        return 2 * self.order + 2

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
    """The :class:`QuadratureRule` of order N, built once per N."""
    return QuadratureRule(band_limit)


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
    """Complex-harmonic coefficients of Σ a_nm R_n^m, R the real harmonics,
    for each row of ``real_coeffs`` ((..., (N+1)^2)).

    With R as in :func:`real_sph_harmonic_all`: c_n0 = a_n0, and for m > 0
    c_nm = (a_nm − i a_n,−m)/sqrt2 and c_n,−m = (−1)^m conj(c_nm).
    """
    a = np.asarray(real_coeffs, dtype=float)
    degs = harmonic_degrees(_band_limit_of(a.shape[-1]))
    zero = degs * (degs + 1)
    m = np.arange(degs.size) - zero
    pos = (a[..., zero + np.abs(m)] - 1j * a[..., zero - np.abs(m)]) / np.sqrt(2.0)
    neg = (1 - 2 * (np.abs(m) % 2)) * np.conj(pos)
    return np.where(m > 0, pos, np.where(m < 0, neg, a))


@lru_cache(maxsize=16)
def _m_major(band_limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-major order (m = −N..N, then n = |m|..N) and its block bounds.

    ``perm[p]`` is the degree-major index of the p-th harmonic in that
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
    rule = gauss_product_rule(order)
    mu = rule.mu[::rule.azimuths]
    table = sph_harmonic_all(band_limit, mu, np.zeros(rule.rings)).real[_m_major(band_limit)[0]]
    table.setflags(write=False)
    return table


def _synthesize(coeffs, rule: QuadratureRule) -> np.ndarray:
    """Σ c_nm Y_n^m at the nodes of a product rule, for each row of ``coeffs``.

    ``coeffs`` is (..., (N+1)^2) in degree-major order; the result is
    (..., npts) in the rule's node order.  On ring j, G_m(μ_j) = Σ_n c_nm
    P̄_n^m(μ_j), and f(μ_j, φ_l) = Σ_m G_m e^{imφ_l} is one inverse FFT of
    length L = 2·order + 2 with G_m in bin m mod L; since e^{imφ_l} depends
    only on m mod L, a rule coarser than N folds exactly.  O(N^3), against
    O(N^4) for the dense product with :func:`sph_harmonic_all` (Driscoll &
    Healy, Adv. Appl. Math. 15 (1994)).
    """
    coeffs = np.asarray(coeffs)
    band_limit = _band_limit_of(coeffs.shape[-1])
    table = _ring_legendre(band_limit, rule.order)
    perm, bounds = _m_major(band_limit)
    per_order = np.add.reduceat(coeffs[..., perm, None] * table,
                                bounds[:-1], axis=-2)  # G_m on every ring
    spectrum = np.zeros(coeffs.shape[:-1] + (rule.rings, rule.azimuths), dtype=complex)
    bins = np.arange(-band_limit, band_limit + 1) % rule.azimuths
    np.add.at(spectrum, (..., bins), np.swapaxes(per_order, -1, -2))
    return np.fft.ifft(spectrum, norm="forward").reshape(coeffs.shape[:-1] + (-1,))
