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
= i/(ka)² the two traces above are c_n h_n(ka) and c_n k h_n'(ka).  η only
scales the system's columns by c_n, so a solve returns the amplitudes c ⊙ φ.
So every system is A = diag(d) + M_{iλ}·diag(−2 c h_n), d = −2 c k h_n', and
every diagonal of a solve (c, the system's d and column, the incident
coefficients and the right-hand side) reads one :class:`ModalTable`: j_n,
j_n', h_n, h_n', c, the column and d at (k, a, N, η), built on construction
from two Hankel calls.  η and S₀² enter only there.  j_n may underflow to 0,
but an h_n, h_n', S₀² or c_n past the float range raises
:class:`NumericalError` at its degree.  The readers take the table in place
of (k, a, N) and call no Bessel function themselves;
:class:`impscat.forward.WaveContext` keeps the table of its solves.

Every operator but M_{iλ} is diagonal.  M_{iλ} is linear in λ = Σ c_{L,p}
Y_L^p: with Y_n^m = P̄_n^m(μ) e^{imφ}, the φ-integral of entry
((n,m),(n',m')) keeps only p = −q, q = m' − m, so the entry is
i Σ_L c_{L,−q} G_L, where G_L = 2π ∫ P̄_n^m P̄_{n'}^{m'} P̄_L^{−q} dμ is a Gaunt
integral (Gaunt, Phil. Trans. R. Soc. A 228 (1929)), zero for |q| > N_λ.
The G_L depend on (N, N_λ) alone: :func:`_gaunt_band` integrates them once,
exactly, on Gauss latitudes, and each assembly is one contraction of λ's
coefficients with that table.  The same table is the linear map h -> M_{ih}.
The entry is also zero for |n − n'| > N_λ (Gaunt), so the system couples
(n, m) only to (n', m') with |n − n'| <= N_λ and |m − m'| <= N_λ.  Over the
m-major order (m = −N..N, then n = |m|..N) those couplings stay within
b ≈ N_λ(N + 1) of the diagonal, against N'(2N − N' + 2), N' = min(N_λ, N),
in the degree-major order (Cuthill & McKee, Proc. ACM Nat. Conf. 1969): 51
against 96 at N = 24, N_λ = 2.  Only those kept entries are stored, 13,931
at N = 24, N_λ = 2 against the 64,375 slots of a (2b + 1)-row band.
:func:`_band_pattern` lays them out once per (N, N_λ), in degree-major rows
with their degree-major columns, and with their positions in LAPACK's band
workspace over the m-major order; M_{iλ} and every system built from it are
the values of those entries on that one pattern.  ``matvec`` is one numpy
product, ``np.add.reduceat`` of the entries times x at their columns over
the row starts, so vectors stay in the degree-major order: only the banded
LU permutes them.  By the selection rule (:func:`multiplication_operator`)
a constant λ has the pattern of N_λ = 0, the identity, b = 0, whose rows,
columns and diagonal are each the range 0..n: it is solved by one division,
checked at its Jacobi certificate's bound (below), there the exact rcond
min|d| / max|d|, and without scipy: a constant-λ solve runs on numpy alone.

Any other system first meets a Jacobi certificate.  With D the diagonal of
A, one pass of column sums gives q = ‖AD⁻¹ − I‖₁ and the bound
rcond₁(A) >= (1 − q) min|d| / ‖A‖₁.  A system with q < ½, that bound at
least 1e-12 and at least 256 rows (N >= 15) is solved by GMRES on AD⁻¹
(Saad & Schultz, SIAM J. Sci. Stat. Comput. 7 (1986) 856), preconditioned
on the right, so that its residual is that of A x = b.  AD⁻¹ is the
identity plus a small E: there GMRES converges superlinearly (Campbell,
Ipsen, Kelley & Meyer, BIT 36 (1996) 664) in 5 to 8 steps at a
near-constant λ.  Every other system, and one whose GMRES has not
converged within its cap, is solved by one banded LU: the entries are
scattered once into its workspace, and LAPACK's rcond estimate (gbcon, at
the 1-norm taken as the largest column sum) is checked.  Below 256 rows
the LU is the faster even for a certified system.  A matrix makes its
column sums once, for the certificate and the LU's 1-norm alike.
``scipy.linalg`` is imported only where the LU runs: it is the only scipy
module a solve loads, and a certified solve runs on numpy alone.

The GMRES routine solves (σ + C)y = s for a tuple of shifts σ on one
Krylov basis of (C, s): a solve is C = AD⁻¹ − I at σ = 1, and a stability
sweep's λ₀ + εh, whose system is A₀ + εB, is C = B·A₀⁻¹ at σ = 1/ε for
all its ε at once (:func:`impscat.stability.stability_sweep`), in 7 or 8
steps at the sweep-variable benchmark's sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

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
    """A per-degree value lies outside the float range: h_n(ka), h_n'(ka), S₀²
    or the radiating coefficient c_n overflows."""


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


def _require_admissible(coefficients: np.ndarray, bound: float) -> None:
    """Raise ``ValueError`` unless every row of the real harmonic
    ``coefficients`` ((..., (N+1)²)) is finite and, on the
    :func:`admissibility_rule` of N, at least 0 and at most ``bound``, each
    to 1e-12.  All rows take one synthesis, whose values equal, bit for bit,
    each row's :meth:`ImpedanceField.evaluate_on` that rule."""
    if not np.all(np.isfinite(coefficients)):
        raise ValueError("impedance coefficients must be finite")
    rule = admissibility_rule(_band_limit_of(coefficients.shape[-1]))
    values = _synthesize(_complex_coefficients(coefficients), rule).real
    if np.any(values < -1e-12):
        raise ValueError("impedance must be nonnegative on the boundary")
    if np.max(values, initial=0.0) > bound + 1e-12:
        raise ValueError("impedance exceeds its stated bound M")


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
        coeffs = np.array(self.coefficients, dtype=float)  # a copy: the caller's stays writeable
        _require_admissible(coeffs, self.bound)
        object.__setattr__(self, "coefficients", coeffs)
        coeffs.setflags(write=False)

    @classmethod
    def constant(cls, value: float, bound: float | None = None) -> "ImpedanceField":
        if value < 0:
            raise ValueError("impedance must be nonnegative")
        return cls(np.array([value * np.sqrt(4.0 * np.pi)]),
                   bound=value if bound is None else bound)

    @property
    def band_limit(self) -> int:
        return _band_limit_of(self.coefficients.size)

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

class BandPattern(NamedTuple):
    """The kept entries of every system at (N, N_λ), in degree-major rows.

    Degree-major row r holds the entries ``starts[r]`` up to the next row's
    start, entry e at the degree-major column ``columns[e]``; every row
    holds its diagonal, at ``diagonal[r]``, so no row is empty.  Within a
    row the entries run by descending m-major column.  Entry e at
    degree-major (r, c) sits at the m-major (i, j) with perm[i] = r and
    perm[j] = c, perm the m-major permutation; b is the largest |i − j|, and
    ``lu_dest[e]`` is the flat position of e in the Fortran-order
    (3b + 1) × (N+1)² workspace of LAPACK's ``gbtrf`` over the m-major
    order, j·(3b + 1) + 2b + i − j.
    """

    b: int
    columns: np.ndarray
    starts: np.ndarray
    diagonal: np.ndarray
    lu_dest: np.ndarray


@dataclass(frozen=True)
class BoundaryOperatorMatrix:
    """Galerkin matrix A as the values of its kept entries on a pattern.

    ``entries[e]`` is A at the degree-major row and column of entry e of
    ``pattern`` (:func:`_band_pattern`); every other entry of A is zero.
    b = 0 is a diagonal matrix, ``entries`` its diagonal.  ``matvec`` and
    ``solve`` take and return degree-major vectors.
    """

    entries: np.ndarray
    pattern: BandPattern

    def __post_init__(self):
        if self.entries.shape != self.pattern.columns.shape:
            raise ValueError(f"{self.entries.shape} entries on a pattern of "
                             f"{self.pattern.columns.size}")
        entries = self.entries.view()  # read-only, while the caller's array stays writeable
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def size(self) -> int:
        """(N+1)², the order of A."""
        return self.pattern.starts.size

    def matvec(self, x: np.ndarray) -> np.ndarray:
        pattern = self.pattern
        if pattern.b == 0:
            return self.entries * x
        return np.add.reduceat(self.entries * x[pattern.columns], pattern.starts)

    @cached_property
    def _column_sums(self) -> np.ndarray:
        """The column sums of |A|, made once for the certificate and ‖A‖₁
        (read-only)."""
        sums = np.bincount(self.pattern.columns, np.abs(self.entries), self.size)
        sums.setflags(write=False)
        return sums

    def one_norm(self) -> float:
        """‖A‖₁, the largest column sum of |entries|."""
        return float(self._column_sums.max())

    def _jacobi_certificate(self) -> tuple[float, float]:
        """(q, bound): q = ‖AD⁻¹ − I‖₁ for D the diagonal of A, and a lower
        bound on the 1-norm rcond of A.

        Both come from one pass of column sums s_j of |A|: column j of
        AD⁻¹ − I sums to s_j / |d_j| − 1, and for q < 1, with
        E = AD⁻¹ − I, ‖A⁻¹‖₁ = ‖D⁻¹(I + E)⁻¹‖₁ <= 1 / ((1 − q) min|d|),
        so rcond₁(A) >= bound = (1 − q) min|d| / ‖A‖₁.  A zero d or an
        overflowing sum makes q non-finite: no certificate; a zero d makes
        the bound 0.  A diagonal A has q = 0, and its bound is its exact
        rcond min|d| / max|d|.
        """
        with np.errstate(all="ignore"):
            size, sums = np.abs(self.entries[self.pattern.diagonal]), self._column_sums
            q, low = (sums / size).max() - 1.0, size.min()
            bound = (1.0 - q) * low / sums.max() if low > 0 else 0.0
        return float(q), float(bound)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with A x = rhs: one division for b = 0, else certified GMRES or
        a banded LU.

        For b > 0 the Jacobi certificate (:meth:`_jacobi_certificate`) gives
        q = ‖AD⁻¹ − I‖₁, D the diagonal of A, and a lower bound on the
        1-norm rcond.  If q < ½, that bound is at least 1e-12 and A has at
        least ``_GMRES_MIN_SIZE`` rows, :func:`_gmres` solves AD⁻¹y = rhs,
        as (I + C)y = rhs with C = AD⁻¹ − I, and x = D⁻¹y.  The
        preconditioner is on the right, so the GMRES residual is the
        residual of A x = rhs.  Every other system, and one whose GMRES has
        not converged within its cap, is solved by :meth:`factor`: at b > 0
        one banded LU, whose rcond estimate (``gbcon``) is checked.  gbcon
        can only overestimate the rcond, so a certified system is one the LU
        would also accept.  GMRES runs in the degree-major order of
        ``matvec``, on the diagonal read from the pattern.  The
        crossover of 256 rows (N >= 15) is measured, with the numpy
        ``matvec``: at λ = 1.5 + 0.1·h and k = 1 the two take equal time
        near 289 rows at N_λ = 2, near 361 at N_λ = 1 and between 169 and
        361 at N_λ = 4, and at N = 24, N_λ = 2 GMRES takes 0.67 ms against
        the LU's 1.48 ms, the import of ``scipy.linalg`` aside (2 shared
        cores, one BLAS thread, numpy 2.4, scipy 1.17, best of 7 × 20 calls
        in each of two runs).

        Raises :class:`SingularSystemError` if A has a non-finite entry or a
        relative 1-norm rcond below 1e-12; at b = 0 the rcond is exact."""
        if self.pattern.b > 0 and self.size >= _GMRES_MIN_SIZE:
            q, bound = self._jacobi_certificate()  # not finite for a non-finite entry
            if q < 0.5 and bound >= 1e-12:
                diagonal = self.entries[self.pattern.diagonal]
                [solved] = _gmres(lambda v: self.matvec(v / diagonal) - v, rhs, (1.0,))
                if solved is not None:
                    return solved / diagonal
        return self.factor()(rhs)

    def factor(self):
        """x ↦ A⁻¹x for degree-major vectors, from one factorisation of A: a
        division at b = 0, checked at the bound of its Jacobi certificate
        (:meth:`_jacobi_certificate`), there its exact rcond, else one banded LU
        (``gbtrf``) over the m-major order, checked at LAPACK's rcond
        estimate (``gbcon``, at the 1-norm of :meth:`one_norm`); each
        application is one ``gbtrs``.

        Raises :class:`SingularSystemError` if A has a non-finite entry or a
        relative 1-norm rcond below 1e-12."""
        entries, pattern = self.entries, self.pattern
        if not np.all(np.isfinite(entries)):
            raise SingularSystemError("combined system has a non-finite entry")
        if pattern.b == 0:
            _check_rcond(self._jacobi_certificate()[1])
            return lambda rhs: rhs / entries
        from scipy.linalg import get_lapack_funcs

        b, perm = pattern.b, _m_major(_band_limit_of(self.size))[0]
        position = np.argsort(perm)  # the m-major position of each degree-major index
        gbtrf, gbcon, gbtrs = get_lapack_funcs(("gbtrf", "gbcon", "gbtrs"), (entries,))
        # b rows above the band take pivoting fill-in; Fortran order: no copy
        work = np.zeros((3 * b + 1) * self.size, dtype=complex)
        work[pattern.lu_dest] = entries
        lu, piv, info = gbtrf(work.reshape(3 * b + 1, -1, order="F"), b, b,
                              overwrite_ab=True)
        # info > 0: a zero pivot
        _check_rcond(gbcon(b, b, lu, piv, self.one_norm())[0] if info == 0 else 0.0)
        return lambda rhs: gbtrs(lu, b, b, rhs[perm], piv)[0][position]


# Certified systems of fewer rows take the banded LU, the faster there
# (measured: see BoundaryOperatorMatrix.solve).
_GMRES_MIN_SIZE = 256
# GMRES stops at this relative residual, or gives up after _GMRES_CAP steps:
# where ‖AD⁻¹ − I‖₂ <= q < ½, step k leaves at most qᵏ of the residual, and
# 2⁻⁴⁷ < 1e-14.
_GMRES_TOL, _GMRES_CAP = 1e-14, 47


def _gmres(operator, rhs: np.ndarray, shifts) -> list:
    """For each shift σ of ``shifts``, y with ‖σy + operator(y) − rhs‖₂ <=
    ``_GMRES_TOL`` ‖rhs‖₂, by GMRES from y = 0 (Saad & Schultz, SIAM J. Sci.
    Stat. Comput. 7 (1986) 856), or None where ``_GMRES_CAP`` steps leave
    it short; one list entry per shift.

    The Krylov space of (C, rhs), C = ``operator``, is that of σ + C for
    every σ, so one Arnoldi basis serves all shifts, at one application of
    C per step (Frommer & Glässner, SIAM J. Sci. Comput. 19 (1998) 15).
    ``rhs`` is scaled by its largest modulus first, so that no norm
    overflows.  The basis is orthogonalised by classical Gram–Schmidt
    applied twice.  Each shift's Hessenberg matrix, C's plus σ on its
    diagonal, is reduced by its own Givens rotations as it grows, which
    gives that shift's residual norm at each step without forming its y.
    """
    peak = np.max(np.abs(rhs))
    if peak == 0.0:
        return [np.zeros_like(rhs) for _ in shifts]
    basis = np.empty((_GMRES_CAP + 1, rhs.size), dtype=complex)
    basis[0] = rhs / peak
    beta = float(np.linalg.norm(basis[0]))
    basis[0] /= beta
    solutions = [None] * len(shifts)
    # per open shift: (index, R of its Hessenberg QR, rotations, Qᴴ β e₁)
    open_shifts = [(j, np.zeros((_GMRES_CAP, _GMRES_CAP), dtype=complex), [], [beta])
                   for j in range(len(shifts))]
    for step in range(_GMRES_CAP):
        w = operator(basis[step])
        hessenberg = np.zeros(step + 1, dtype=complex)
        for _ in range(2):
            h = np.conj(basis[:step + 1] @ np.conj(w))
            w -= h @ basis[:step + 1]
            hessenberg += h
        below = float(np.linalg.norm(w))
        hessenberg = hessenberg.tolist()
        still_open = []
        for j, upper, rotations, residual in open_shifts:
            column = hessenberg.copy()
            column[step] += shifts[j]
            for i, (c, s) in enumerate(rotations):
                column[i], column[i + 1] = (c.conjugate() * column[i] + s * column[i + 1],
                                            c * column[i + 1] - s * column[i])
            norm = float(np.hypot(abs(column[step]), below))
            if norm == 0.0:
                continue  # σ + C is singular on the Krylov space: no solution
            # the rotation [[c̄, s], [−s, c]] takes (column[step], below) to (norm, 0)
            c, s = column[step] / norm, below / norm
            rotations.append((c, s))
            upper[:step, step], upper[step, step] = column[:step], norm
            residual.append(-s * residual[step])
            residual[step] *= c.conjugate()
            if abs(residual[-1]) <= _GMRES_TOL * beta:
                coeffs = np.linalg.solve(upper[:step + 1, :step + 1], residual[:step + 1])
                solutions[j] = (coeffs @ basis[:step + 1]) * peak
            else:
                still_open.append((j, upper, rotations, residual))
        open_shifts = still_open
        if not open_shifts:  # also where below = 0: every residual is then 0
            break
        basis[step + 1] = w / below
    return solutions


def _check_rcond(rcond: float) -> None:
    if not rcond >= 1e-12:
        raise SingularSystemError(f"combined system is singular (rcond = {rcond:.3e})")


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
    """Every per-degree value of the radius-a sphere at wavenumber k, n <= N,
    at the coupling η (``None``: :func:`default_coupling` of k).

    Each array is flat-indexed like a density ((N+1)^2 entries, the value of
    degree n repeated for its 2n + 1 orders) and read-only: j_n(ka), j_n'(ka),
    h_n(ka), h_n'(ka) (derivatives in the argument ka), the radiating
    coefficient c_n = ika²(j_n + iηS₀²k j_n'), S₀ = 2a/(2n + 1), and the two
    vectors every combined system is built from: A = diag(``diagonal``) +
    M_{iλ}·diag(``column``) (:func:`assemble_combined_system`).
    (k, a, N, η) fix every value, so they are built on construction, per
    degree and then gathered, from two Hankel calls over the degrees 0..N
    (j_n and j_n' are their real parts), the only special-function calls a
    solve makes, and the S₀ eigenvalues.  j_n(ka) may underflow to 0; an
    h_n(ka), h_n'(ka), S₀² or c_n that overflows raises
    :class:`NumericalError` (S₀² first at degree 0, for a >= ~6.7e153), and
    η = 0 raises ``ValueError``: the ansatz loses its uniqueness fix.
    """

    k: float
    a: float
    band_limit: int
    eta: float | None = None
    jn: np.ndarray = field(init=False, repr=False, compare=False)
    jnp: np.ndarray = field(init=False, repr=False, compare=False)
    hn: np.ndarray = field(init=False, repr=False, compare=False)
    hnp: np.ndarray = field(init=False, repr=False, compare=False)
    c: np.ndarray = field(init=False, repr=False, compare=False)
    column: np.ndarray = field(init=False, repr=False, compare=False)
    diagonal: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k, a = self.k, self.a
        eta = default_coupling(k) if self.eta is None else self.eta
        if eta == 0.0:
            raise ValueError("coupling parameter eta must be nonzero")
        object.__setattr__(self, "eta", eta)
        n, ka = np.arange(self.band_limit + 1), k * a
        hn, hnp = sph_hankel1(n, ka), sph_hankel1(n, ka, derivative=True)
        require_finite_hankel(ka, hn, hnp)
        jn, jnp = hn.real, hnp.real
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
            s0sq = sphere_operator_eigenvalue(a, n) ** 2
            c = 1j * k * a * a * jn + 1j * eta * s0sq * 1j * k * k * a * a * jnp
        if not np.isfinite(s0sq[0]):  # S₀ falls with n: degree 0 overflows first
            raise NumericalError(f"S₀² = (2a/(2n + 1))² overflows at degree 0, "
                                 f"a = {a:.6g}")
        bad = ~np.isfinite(c)
        if bad.any():
            raise NumericalError(f"radiating coefficient c_n overflows at degree "
                                 f"{int(np.argmax(bad))}, ka = {ka:.6g}")
        # 2·c h_n' k + 1 = K' + iηTS₀² and 2·c h_n = S + iη(K+I)S₀² (the
        # Wronskian), so A = I − (K' + iηTS₀²) − M_{iλ}(S + iη(K+I)S₀²)
        # is −2 × (∂_ν u^s + iλ u^s)
        degs = harmonic_degrees(self.band_limit)
        for name, per_degree in (("jn", jn), ("jnp", jnp), ("hn", hn), ("hnp", hnp),
                                 ("c", c), ("column", -2.0 * (c * hn)),
                                 ("diagonal", 1.0 - (2.0 * (c * k * hnp) + 1.0))):
            values = per_degree[degs]
            values.setflags(write=False)
            object.__setattr__(self, name, values)


def multiplication_operator(lam: ImpedanceField, band_limit: int) -> BoundaryOperatorMatrix:
    """M_{iλ} by the selection rule: iλ₀ at b = 0 for a constant λ, else assembled."""
    if lam.is_constant:
        return BoundaryOperatorMatrix(entries=np.full(num_harmonics(band_limit),
                                                      1j * lam.constant_value),
                                      pattern=_band_pattern(band_limit, 0))
    return assemble_multiplication(lam.coefficients, band_limit)


def assemble_multiplication(coefficients: np.ndarray, band_limit: int) -> BoundaryOperatorMatrix:
    """Galerkin matrix of f -> iλ f in the Y_n^m basis, on the pattern of (N, N_λ),
    for λ of the real harmonic ``coefficients`` ((N_λ + 1)² of them, of any
    sign: the map is linear in them).

    Each kept entry e = ((n,m),(n',m')) is i Σ_L G[e, L] c_{L,−q},
    q = m' − m, c the complex coefficients of λ and G the exact Gaunt weights
    of :func:`_gaunt_band`, built once per (N, N_λ): no quadrature per call.
    """
    complex_coeffs = _complex_coefficients(coefficients)
    lam_band = _band_limit_of(complex_coeffs.size)
    gather, groups = _gaunt_band(band_limit, lam_band)
    # G is real: it maps the (re, im) rows of iλ's coefficients to those of the entries
    coeffs = (1j * complex_coeffs).view(float).reshape(-1, 2)
    values = np.concatenate([gaunt @ coeffs[lam_index] for lam_index, gaunt in groups])
    return BoundaryOperatorMatrix(entries=values.view(complex).ravel()[gather],
                                  pattern=_band_pattern(band_limit, lam_band))


def _kept_pairs(band_limit: int, lam_band: int):
    """The kept entries of M_{iλ} at (N, N_λ): (pairs, order).

    They are the m-major pairs (i, j) = ((n,m),(n',m')) with |n − n'| <= N_λ
    and |m − m'| <= N_λ.  ``pairs`` maps q = m' − m to the (i, j) arrays of
    its entries; ``order`` sorts the entries of all groups, concatenated in
    ``pairs``' order, by degree-major row perm[i] and then by descending
    m-major column j.
    """
    perm = _m_major(band_limit)[0]
    position = np.argsort(perm)  # the m-major position of each degree-major index
    degs = harmonic_degrees(band_limit)[perm]
    orders = perm - degs * (degs + 1)
    col_degs = degs[:, None] + np.arange(-lam_band, lam_band + 1)  # n' = n + d
    pairs = {}
    for q in range(-lam_band, lam_band + 1):
        # the entries ((n, m), (n', m + q)), |n' − n| <= N_λ, as m-major (i, j)
        i, d = np.nonzero((np.abs(orders + q)[:, None] <= col_degs) & (col_degs <= band_limit))
        if i.size:
            n2 = col_degs[i, d]
            pairs[q] = i, position[n2 * (n2 + 1) + orders[i] + q]
    i, j = (np.concatenate(arrays) for arrays in zip(*pairs.values()))
    return pairs, np.lexsort((-j, perm[i]))


@lru_cache(maxsize=16)
def _band_pattern(band_limit: int, lam_band: int) -> BandPattern:
    """The :class:`BandPattern` of M_{iλ}, and of every system built from
    it, at (N, N_λ); N_λ = 0 is the identity, b = 0.  Every array is
    read-only.

    ``np.add.reduceat`` gives an empty segment its next element rather
    than 0, so every row must hold an entry: its diagonal, which the Gaunt
    rule always keeps (q = 0, n = n').
    """
    size, perm = num_harmonics(band_limit), _m_major(band_limit)[0]
    pairs, order = _kept_pairs(band_limit, lam_band)
    i, j = (np.concatenate(arrays)[order] for arrays in zip(*pairs.values()))
    b, diagonal = int(np.abs(i - j).max()), np.flatnonzero(i == j)
    assert diagonal.size == size, "a row of the pattern lacks its diagonal"
    pattern = BandPattern(b=b, columns=perm[j],
                          starts=np.searchsorted(perm[i], np.arange(size)),
                          diagonal=diagonal, lu_dest=j * (3 * b + 1) + 2 * b + i - j)
    for arr in pattern[1:]:
        arr.setflags(write=False)
    return pattern


# Kept entries per step of a Gaunt table build: their products over the ring
# latitudes then take a few MB (24 MB peak at N = 64, N_λ = 4, against 74 MB
# for the whole group at once), and the build runs in cache.
_GAUNT_STEP = 4096


@lru_cache(maxsize=16)
def _gaunt_band(band_limit: int, lam_band: int):
    """The Gaunt table of M_{iλ} at (N, N_λ): (gather, groups).

    The kept entries of :func:`_kept_pairs` are grouped by q = m' − m:
    group q is (lam_index, G), lam_index the degree-major indices of
    c_{L,−q}, L = |q|..N_λ, and G[e, L] = Σ_j 2π w_j P̄_n^m(μ_j)
    P̄_{n'}^{m'}(μ_j) P̄_L^{−q}(μ_j) on the Gauss latitudes of the product
    rule of order max(N + N_λ, N + 2).  That rule integrates the degree
    n + n' + L <= 2N + N_λ polynomial exactly, so G is exact.  The entries,
    group after group, taken at ``gather`` are in the degree-major row order
    of :func:`_band_pattern`.  Every array is read-only.
    """
    rule = gauss_product_rule(max(band_limit + lam_band, band_limit + 2))
    legendre = _ring_legendre(band_limit, rule.order)  # P̄_n^m(μ_j), m-major rows
    weighted = legendre * (rule.azimuths * rule.weights[::rule.azimuths])  # times 2π w_j
    lam_legendre, lam_bounds = _ring_legendre(lam_band, rule.order), _m_major(lam_band)[1]
    pairs, gather = _kept_pairs(band_limit, lam_band)
    groups = []
    for q, (i, j) in pairs.items():
        degrees = np.arange(abs(q), lam_band + 1)
        lam_rows = lam_legendre[lam_bounds[lam_band - q]:lam_bounds[lam_band - q + 1]].T
        chunks = (slice(s, s + _GAUNT_STEP) for s in range(0, i.size, _GAUNT_STEP))
        gaunt = np.concatenate([(legendre[i[c]] * weighted[j[c]]) @ lam_rows for c in chunks])
        groups.append((degrees * (degrees + 1) - q, gaunt))
    for arr in (gather, *(a for group in groups for a in group)):
        arr.setflags(write=False)
    return gather, tuple(groups)


def default_coupling(k: float) -> float:
    """Combined-field coupling η = max(1, k)."""
    return max(1.0, k)


def assemble_combined_system(table: ModalTable,
                             mult: BoundaryOperatorMatrix) -> BoundaryOperatorMatrix:
    """System matrix A = diag(``table.diagonal``) + M_{iλ}·diag(``table.column``),
    with A φ = −2 g for the combined-field ansatz (:class:`ModalTable`).

    ``table`` is the modal table of the sphere at the band limit and ``mult``
    is M_{iλ} from :func:`multiplication_operator`; A has the pattern of
    M_{iλ}.
    """
    pattern = mult.pattern
    entries = mult.entries * table.column[pattern.columns]
    entries[pattern.diagonal] += table.diagonal
    return BoundaryOperatorMatrix(entries=entries, pattern=pattern)


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
