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

The solve never forms S, K or T (only the tests' oracle does): outside the
sphere u^s = Σ c_n φ_nm h_n(kr) Y_n^m, and by the Wronskian j_n h_n' − j_n' h_n
= i/(ka)² the two traces above are c_n h_n(ka) and c_n k h_n'(ka).  So every
diagonal of a solve (the traces, c_n, the incident coefficients, the system
and its right-hand side) reads one :class:`ModalTable`: j_n, j_n', h_n, h_n'
and S₀² at (k, a, N), built on construction from two Hankel calls.  There
j_n may underflow to 0, but an h_n or h_n' past the float range raises
:class:`NumericalError` at its degree.  The readers take the table in place
of (k, a, N) and call no Bessel function themselves;
:class:`impscat.forward.WaveContext` keeps the table of its solves.

Every operator but M_{iλ} is diagonal.  On the Gauss × uniform-azimuth
product rule, with Y_n^m = P̄_n^m(μ) e^{imφ}, the φ-sum in entry
((n,m),(n',m')) of M_{iλ} is the ring Fourier sum F_q(μ_j) = Σ_l w_jl
λ(μ_j, φ_l) e^{iqφ_l} at q = m' − m, zero for |q| > N_λ: the nonzero blocks
are i P̄_m diag(F_q) P̄_{m+q}ᵀ, one FFT per ring gives every F_q, and P̄ is
the ring Legendre table of the far-field synthesis, the harmonics at φ = 0
(Driscoll & Healy, Adv. Appl. Math. 15 (1994)).
The entry is also zero for |n − n'| > N_λ (Gaunt), so the system couples
(n, m) only to (n', m') with |n − n'| <= N_λ and |m − m'| <= N_λ.  Every
system is stored over the m-major order (m = −N..N, then n = |m|..N; the
permutation of :func:`impscat.specfun._m_major`), where those couplings
stay within b ≈ N_λ(N + 1) of the diagonal, against N'(2N − N' + 2),
N' = min(N_λ, N), in the degree-major order (Cuthill & McKee, Proc. ACM
Nat. Conf. 1969): 51 against 96 at N = 24, N_λ = 2.  It is held in LAPACK
band storage, entries[b + i − j, j] = Â[i, j] for the permuted matrix Â;
``matvec`` and ``solve`` permute, so vectors stay in the degree-major order.
By the selection rule (:func:`multiplication_operator`) a constant λ is
b = 0, one diagonal row: it is solved by one division, with its exact rcond
min|d| / max|d|, and without scipy: a constant-λ solve runs on numpy alone.
Any other system is solved by one banded LU; ``scipy.linalg`` and
``scipy.sparse`` are imported for b > 0 only, and they are the only scipy
modules a solve loads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .specfun import (
    QuadratureRule,
    _band_limit_of,
    _complex_coefficients,
    _m_major,
    _ring_legendre,
    _synthesize,
    gauss_product_rule,
    harmonic_degrees,
    num_harmonics,
    sph_hankel1,
)

class SingularSystemError(RuntimeError):
    """Combined-field matrix is non-finite or singular (relative rcond < 1e-12)."""


class NumericalError(ArithmeticError):
    """A per-degree value lies outside the float range: h_n(ka) or h_n'(ka)
    overflows."""


def require_finite_hankel(ka: float, hn: np.ndarray, hnp: np.ndarray) -> None:
    """Raise :class:`NumericalError` at the first degree n where h_n(ka) or
    h_n'(ka) (arrays over n = 0, 1, ...) is not finite."""
    bad = ~(np.isfinite(hn) & np.isfinite(hnp))
    if bad.any():
        raise NumericalError(f"h_n(ka) or h_n'(ka) overflows at degree "
                             f"{int(np.argmax(bad))}, ka = {ka:.6g}")


# ---------------------------------------------------------------------------
# Impedance fields
# ---------------------------------------------------------------------------

def admissibility_rule(band_limit: int) -> QuadratureRule:
    """The product rule, of order max(8, 2N), on whose nodes an impedance of
    degree N must be nonnegative and at most its bound."""
    return gauss_product_rule(max(8, 2 * band_limit))


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
        vals = self.evaluate_on(admissibility_rule(self.band_limit))
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
        """λ at the nodes of a product rule, by the ring transform."""
        return _synthesize(_complex_coefficients(self.coefficients), rule).real


# ---------------------------------------------------------------------------
# Operator matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryOperatorMatrix:
    """Galerkin matrix A in LAPACK band storage over the m-major order.

    With P the m-major permutation (:func:`impscat.specfun._m_major`) and
    Â = A[P][:, P], ``entries`` is (2b + 1) × (N+1)², entries[b + i − j, j]
    = Â[i, j], with zeros off the band; b = 0 is a diagonal matrix.
    ``matvec`` and ``solve`` take and return degree-major vectors.
    """

    entries: np.ndarray

    def __post_init__(self):
        self.entries.setflags(write=False)

    def _perm(self) -> np.ndarray:
        return _m_major(_band_limit_of(self.entries.shape[1]))[0]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        b, perm = len(self.entries) // 2, self._perm()
        if b == 0:
            return _to_degree_major(perm, self.entries[0] * x[perm])
        from scipy.sparse import dia_matrix

        # scipy's gbmv wrapper rejects 2b + 1 > n; the diagonal format does not
        band = dia_matrix((self.entries, b - np.arange(2 * b + 1)), (x.size, x.size))
        return _to_degree_major(perm, band @ x[perm])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with A x = rhs: one division for b = 0, else a banded LU.

        Raises :class:`SingularSystemError` if A has a non-finite entry or a
        relative 1-norm rcond below 1e-12; at b = 0 the rcond is exact."""
        band, b, perm = self.entries, len(self.entries) // 2, self._perm()
        if not np.all(np.isfinite(band)):
            raise SingularSystemError("combined system has a non-finite entry")
        if b == 0:
            _check_rcond(_diagonal_rcond(band[0]))
            return _to_degree_major(perm, rhs[perm] / band[0])
        from scipy.linalg import get_lapack_funcs

        gbtrf, gbcon, gbtrs = get_lapack_funcs(("gbtrf", "gbcon", "gbtrs"), (band, rhs))
        anorm = np.abs(band).sum(axis=0).max()  # a column sum of the band is one of A
        # b rows above the band take pivoting fill-in; Fortran order: no copy
        work = np.zeros((3 * b + 1, band.shape[1]), dtype=complex, order="F")
        work[b:] = band
        lu, piv, info = gbtrf(work, b, b, overwrite_ab=True)
        # info > 0: a zero pivot
        _check_rcond(gbcon(b, b, lu, piv, anorm)[0] if info == 0 else 0.0)
        return _to_degree_major(perm, gbtrs(lu, b, b, rhs[perm], piv)[0])


def _diagonal_rcond(diagonal: np.ndarray) -> float:
    """The 1-norm rcond of diag(d), min|d| / max|d|; 0 for a zero diagonal."""
    size = np.abs(diagonal)
    largest = size.max()
    return float(size.min() / largest) if largest > 0 else 0.0


def _check_rcond(rcond: float) -> None:
    if not rcond >= 1e-12:
        raise SingularSystemError(f"combined system is singular (rcond = {rcond:.3e})")


def _to_degree_major(perm: np.ndarray, permuted: np.ndarray) -> np.ndarray:
    """The vector v with v[perm] = ``permuted``."""
    out = np.empty_like(permuted)
    out[perm] = permuted
    return out


def sphere_operator_eigenvalue(a: float, n):
    """S₀ = 2a/(2n + 1), the eigenvalue of the factor-2 static single layer
    on Y_n^m for the radius-a sphere; ``n`` may be an array of degrees.

    :class:`ModalTable` reads S₀ through this call rather than inline, so
    that a traced solve counts its eigenvalue evaluations.
    """
    degrees = np.asarray(n)
    if a <= 0 or not np.all((degrees >= 0) & (degrees == np.floor(degrees))):
        raise ValueError("need a > 0 and integer degrees n >= 0")
    return 2.0 * a / (2 * degrees + 1)


@dataclass(frozen=True)
class ModalTable:
    """The per-degree values of the radius-a sphere at wavenumber k, n <= N.

    Each array is flat-indexed like a density ((N+1)^2 entries, the value of
    degree n repeated for its 2n + 1 orders) and read-only: j_n(ka), j_n'(ka),
    h_n(ka), h_n'(ka) (derivatives in the argument ka), and S₀² = (2a/(2n+1))².
    (k, a, N) fix every value, so they are built on construction from two
    Hankel calls over the degrees 0..N (j_n and j_n' are their real parts),
    the only special-function calls a solve makes, and the S₀ eigenvalues.
    j_n(ka) may underflow to 0; an h_n(ka) or h_n'(ka) that overflows raises
    :class:`NumericalError`.
    """

    k: float
    a: float
    band_limit: int
    jn: np.ndarray = field(init=False, repr=False, compare=False)
    jnp: np.ndarray = field(init=False, repr=False, compare=False)
    hn: np.ndarray = field(init=False, repr=False, compare=False)
    hnp: np.ndarray = field(init=False, repr=False, compare=False)
    s0sq: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, ka = np.arange(self.band_limit + 1), self.k * self.a
        hn, hnp = sph_hankel1(n, ka), sph_hankel1(n, ka, derivative=True)
        require_finite_hankel(ka, hn, hnp)
        s0 = sphere_operator_eigenvalue(self.a, n)
        degs = harmonic_degrees(self.band_limit)
        for name, per_degree in (("jn", hn.real), ("jnp", hnp.real), ("hn", hn),
                                 ("hnp", hnp), ("s0sq", s0 ** 2)):
            values = per_degree[degs]
            values.setflags(write=False)
            object.__setattr__(self, name, values)


def multiplication_operator(lam: ImpedanceField, band_limit: int) -> BoundaryOperatorMatrix:
    """M_{iλ} by the selection rule: iλ₀ at b = 0 for a constant λ, else assembled."""
    if lam.is_constant:
        return BoundaryOperatorMatrix(
            entries=np.full((1, num_harmonics(band_limit)), 1j * lam.constant_value))
    return assemble_multiplication(lam, band_limit)


def assemble_multiplication(lam: ImpedanceField, band_limit: int) -> BoundaryOperatorMatrix:
    """Galerkin matrix of f -> iλ f in the Y_n^m basis, in band storage.

    Exact: the product rule it integrates on has order max(N + N_λ, N + 2),
    at least the N + N_λ that resolves every product Ȳ_n^m λ Y_n'^m'.  Only
    the blocks with |m − m'| <= N_λ are formed, and only their entries with
    |n − n'| <= N_λ are kept (see the module docstring); the rest vanish.
    """
    rule = gauss_product_rule(max(band_limit + lam.band_limit, band_limit + 2))
    # fft gives Σ_l a_l e^{−iqφ_l} at index q mod L, so F_q sits at −q mod L;
    # row q + N_λ of ``fourier`` holds F_q on every ring
    ring_sums = np.fft.fft((rule.weights * lam.evaluate_on(rule)).reshape(rule.rings, -1))
    nq = lam.band_limit
    fourier = ring_sums[:, -np.arange(-nq, nq + 1) % rule.azimuths].T
    legendre = _ring_legendre(band_limit, rule.order)  # P̄_n^m(μ_j), m-major rows
    b, scatter = _band_scatter(band_limit, nq)
    entries = np.zeros((2 * b + 1, num_harmonics(band_limit)), dtype=complex)
    for rows, cols, shift, kept, dest in scatter:
        block = 1j * legendre[rows] @ (legendre[cols] * fourier[shift]).T
        entries[dest] = block[kept]
    return BoundaryOperatorMatrix(entries=entries)


@lru_cache(maxsize=16)
def _band_scatter(band_limit: int, lam_band: int):
    """Half-bandwidth b and, per order m, the index arrays of its block.

    In the m-major order block m of M_{iλ} has the contiguous rows (n, m) and
    columns (n', m') with |m' − m| <= N_λ; ``shift`` picks F_{m'−m} from
    ``fourier``, ``kept`` the block entries with |n − n'| <= N_λ and ``dest``
    their place in band storage.  b is the largest |i − j| that a kept entry
    reaches.
    """
    perm, bounds = _m_major(band_limit)
    degs = harmonic_degrees(band_limit)[perm]
    orders = perm - degs * (degs + 1)
    blocks = []
    for m in range(-band_limit, band_limit + 1):
        rows = slice(bounds[m + band_limit], bounds[m + band_limit + 1])
        cols = slice(bounds[max(m - lam_band, -band_limit) + band_limit],
                     bounds[min(m + lam_band, band_limit) + band_limit + 1])
        r, c = np.nonzero(np.abs(degs[rows, None] - degs[cols]) <= lam_band)
        blocks.append((rows, cols, orders[cols] - m + lam_band, (r, c),
                       rows.start + r, cols.start + c))
    b = max(int(np.abs(i - j).max(initial=0)) for *_, i, j in blocks)
    return b, tuple((rows, cols, shift, kept, (b + i - j, j))
                    for rows, cols, shift, kept, i, j in blocks)


def default_coupling(k: float) -> float:
    """Combined-field coupling η = max(1, k)."""
    return max(1.0, k)


def assemble_combined_system(table: ModalTable, mult: BoundaryOperatorMatrix,
                             eta: float) -> BoundaryOperatorMatrix:
    """System matrix A with A φ = −2 g for the combined-field ansatz.

    ``table`` is the modal table of the sphere at the band limit and ``mult``
    is M_{iλ} from :func:`multiplication_operator`.  A is M_{iλ} times the
    diagonal −2·trace plus a diagonal, so it has the band of M_{iλ}.
    """
    if eta == 0.0:
        raise ValueError("coupling parameter eta must be nonzero")
    # 2·dtrace + 1 = K' + iηTS₀² and 2·trace = S + iη(K+I)S₀², so
    # A = I − (2·dtrace + 1) − M_{iλ}·2·trace is −2 × (∂_ν u^s + iλ u^s)
    trace, dtrace = exterior_trace_operators(table, eta)
    perm = _m_major(table.band_limit)[0]  # the band's column order
    entries = mult.entries * (-2.0 * trace[perm])
    entries[len(entries) // 2] += (1.0 - (2.0 * dtrace + 1.0))[perm]  # the diagonal row
    return BoundaryOperatorMatrix(entries=entries)


def exterior_trace_operators(table: ModalTable,
                             eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals mapping density φ to (u^s, ∂_ν u^s) exterior boundary traces.

    These are c·h_n(ka) and c·k·h_n'(ka) with c the radiating coefficient;
    by the Wronskian they equal ½(S + iη(K+I)S₀²) and ½(K − I + iηTS₀²).
    """
    c = radiating_coefficient_diagonal(table, eta)
    return c * table.hn, c * table.k * table.hnp


def radiating_coefficient_diagonal(table: ModalTable, eta: float) -> np.ndarray:
    """c with u^s = Σ c_nm φ_nm h_n(k r) Y_n^m outside the obstacle."""
    k, a = table.k, table.a
    return 1j * k * a * a * table.jn + 1j * eta * table.s0sq * 1j * k * k * a * a * table.jnp


def incident_coefficients(table: ModalTable,
                          amplitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi-Anger coefficients of (u^i, ∂_ν u^i) on the table's sphere,
    from the plane-wave ``amplitudes`` of :func:`impscat.specfun.plane_wave_amplitudes`."""
    return amplitudes * table.jn, amplitudes * table.k * table.jnp


def rhs_from_incident(table: ModalTable, amplitudes: np.ndarray,
                      mult: BoundaryOperatorMatrix) -> np.ndarray:
    """Coefficients of g = −(∂_ν u^i + iλ u^i) on the boundary.

    ``amplitudes`` are the plane wave's, ``mult`` is M_{iλ} from
    :func:`multiplication_operator`.
    """
    u_inc, dnu_inc = incident_coefficients(table, amplitudes)
    return -(dnu_inc + mult.matvec(u_inc))
