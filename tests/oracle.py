"""Reference values that only the tests read.

The solver reads S₀ and the modal table alone; the layer-operator
eigenvalues S, K, K' and T, the dense combined-field solve built from them,
the flat harmonic index, the radial derivative of the scattered wave, the
Mie near field, the two-term Proposition 4.1 form and the point-source test
function live here, as independent checks on what the package computes.
So do the sphere means of test-function squares by a fine product rule,
against which the families' closed forms are checked, and the nodes and
weights of a shell rule, which the package integrates without building.
So do the dense reader and writer of a system's kept entries (no test
reads or writes a pattern's layout but through them), the product by
scipy's compressed sparse rows that the package's numpy product is checked
against, and the per-degree loop versions of the harmonic layer, which the
package's gathers must equal to the byte.
"""

from dataclasses import dataclass, field
from math import isqrt

import numpy as np
from scipy.sparse import csr_array

from impscat.carleman import PlaneWaves, Quadratics, _suite_positions
from impscat.forward import _mie_amplitudes, _mie_band_limit, _outgoing_wave
from impscat.layer_ops import (
    BoundaryOperatorMatrix,
    ModalTable,
    _band_pattern,
    default_coupling,
    multiplication_operator,
    sphere_operator_eigenvalue,
)
from impscat.specfun import (
    gauss_product_rule,
    harmonic_degrees,
    num_harmonics,
    sph_hankel1,
    sph_harmonic_all,
)

# the order of the product rule that :func:`quadrature_sphere_means` sums
# on: exact to degree 81, far past a plane wave of k <= 4 on a sphere of
# radius s <= 3.5, the largest the tests ask for (there j_82(2ks) <=
# 28^82/165!! < 1e-30)
MEANS_ORDER = 40

OP_KINDS = ("S", "K", "Kp", "T", "S0")


def layer_eigenvalue(kind: str, k: float, a: float, n):
    """Eigenvalue of a factor-2 layer operator on Y_n^m for the radius-a sphere.

    S = 2 i k a² j_n h_n, K = K' = i k² a² (j_n' h_n + j_n h_n'),
    T = 2 i k³ a² j_n' h_n' at ka, and S₀ = 2a/(2n + 1).  ``n`` may be an
    array of degrees; the result then has its shape.
    """
    if kind not in OP_KINDS:
        raise ValueError(f"unknown operator kind {kind!r}")
    s0 = sphere_operator_eigenvalue(a, n)  # validates a and the degrees
    if kind == "S0":
        return s0
    if k <= 0:
        raise ValueError("need wavenumber k > 0")
    degrees = np.asarray(n).astype(int)
    table = ModalTable(k, a, int(degrees.max(initial=0)))
    at = degrees * (degrees + 1)  # the flat index of (n, 0)
    jn, jnp, hn, hnp = table.jn[at], table.jnp[at], table.hn[at], table.hnp[at]
    if kind == "S":
        return 2j * k * a * a * jn * hn
    if kind in ("K", "Kp"):
        return 1j * k * k * a * a * (jnp * hn + jn * hnp)
    return 2j * k**3 * a * a * jnp * hnp  # T


def combined_field_amplitudes(ctx, geom, lam, band_limit: int, eta=None) -> np.ndarray:
    """The scattered wave's amplitudes c ⊙ φ from a dense solve of
    (I − [K' + iηTS₀² + M_{iλ}(S + iη(K+I)S₀²)]) φ = −2g with
    g = −(∂_ν u^i + iλu^i), the operators of :func:`layer_eigenvalue`,
    M_{iλ} as a dense matrix and c_n = ika²(j_n + iηS₀²k j_n') written out;
    ``eta`` ``None`` is max(1, k)."""
    k, a = ctx.k, geom.radius
    eta = default_coupling(k) if eta is None else eta
    degs = harmonic_degrees(band_limit)
    s, kk, kp, t, s0 = (layer_eigenvalue(kind, k, a, degs) for kind in OP_KINDS)
    s0sq = s0 * s0
    mult = dense(multiplication_operator(lam, band_limit))
    system = np.eye(degs.size) - np.diag(kp + 1j * eta * t * s0sq) \
        - mult * (s + 1j * eta * (kk + 1.0) * s0sq)[None, :]
    table = ModalTable(k, a, band_limit)
    amps = ctx.incident_amplitudes(band_limit)
    g = -(k * table.jnp * amps + mult @ (table.jn * amps))
    phi = np.linalg.solve(system, -2.0 * g)
    return 1j * k * a * a * (table.jn + 1j * eta * s0sq * k * table.jnp) * phi


def _row_bounds(pattern) -> np.ndarray:
    """The compressed-sparse-row pointer of ``pattern``: row r holds the
    entries ``bounds[r]:bounds[r + 1]``."""
    return np.append(pattern.starts, pattern.columns.size)


def _kept_positions(pattern):
    """The degree-major (row, column) of each kept entry of ``pattern``."""
    rows = np.repeat(np.arange(pattern.starts.size), np.diff(_row_bounds(pattern)))
    return rows, pattern.columns


def dense(system: BoundaryOperatorMatrix) -> np.ndarray:
    """The degree-major matrix A of ``system``: its kept entries, zero elsewhere."""
    out = np.zeros((system.size, system.size), dtype=system.entries.dtype)
    out[_kept_positions(system.pattern)] = system.entries
    return out


def csr_product(system: BoundaryOperatorMatrix, x: np.ndarray) -> np.ndarray:
    """A x for a degree-major ``x``, by scipy's compressed sparse rows over
    the rows and columns of the system's pattern."""
    pattern = system.pattern
    rows = csr_array((system.entries, pattern.columns, _row_bounds(pattern)),
                     (system.size,) * 2)
    return rows @ x


def on_pattern(matrix: np.ndarray, lam_band: int) -> BoundaryOperatorMatrix:
    """The degree-major ``matrix`` as a system on the pattern of (N, N_λ),
    which must hold every nonzero entry of ``matrix``."""
    pattern = _band_pattern(isqrt(len(matrix)) - 1, lam_band)
    system = BoundaryOperatorMatrix(
        entries=np.asarray(matrix, complex)[_kept_positions(pattern)],
        pattern=pattern)
    np.testing.assert_array_equal(dense(system), matrix)
    return system


def loop_normalized_legendre(band_limit: int, mu) -> np.ndarray:
    """P̄_n^m(mu), (N+1, N+1) + mu.shape indexed [n, m], one pass per degree
    n: the sectoral and next-to-sectoral entries, then the three-term step
    for m <= n − 2 with its coefficients computed in the pass."""
    mu = np.asarray(mu, dtype=float)
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - mu * mu))
    p = np.zeros((band_limit + 1, band_limit + 1) + mu.shape)
    p[0, 0] = 1.0 / np.sqrt(4.0 * np.pi)
    orders = np.arange(band_limit + 1).reshape((-1,) + (1,) * mu.ndim)
    for n in range(1, band_limit + 1):
        p[n, n] = -np.sqrt((2.0 * n + 1.0) / (2.0 * n)) * sin_t * p[n - 1, n - 1]
        p[n, n - 1] = np.sqrt(2.0 * n + 1.0) * mu * p[n - 1, n - 1]
        m = orders[:n - 1]
        a = np.sqrt((4.0 * n * n - 1.0) / (n * n - m * m))
        b = np.sqrt(((n - 1.0) ** 2 - m * m) / (4.0 * (n - 1.0) ** 2 - 1.0))
        p[n, :n - 1] = a * (mu * p[n - 1, :n - 1] - b * p[n - 2, :n - 1])
    return p


def loop_sph_harmonic_all(band_limit: int, mu, phi) -> np.ndarray:
    """Every Y_n^m, n <= N, filled one degree at a time: m >= 0 as P̄_n^m
    e^{imφ}, then m < 0 as the conjugates with the odd orders negated."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    legendre = loop_normalized_legendre(band_limit, mu)
    expi = np.exp(1j * np.outer(np.arange(band_limit + 1), phi))
    out = np.empty((num_harmonics(band_limit), phi.size), dtype=complex)
    for n in range(band_limit + 1):
        zero = n * n + n
        pos = out[zero:zero + n + 1]
        np.multiply(legendre[n, :n + 1], expi[:n + 1], out=pos)
        neg = out[n * n:zero]
        np.conjugate(pos[:0:-1], out=neg)
        neg[(n + 1) % 2::2] *= -1
    return out


def loop_real_sph_harmonic_all(band_limit: int, mu, phi) -> np.ndarray:
    """The real harmonics from :func:`loop_sph_harmonic_all`, one degree at
    a time: sqrt2·Re Y (m > 0), Y (m = 0), sqrt2·Im Y_n^{|m|} (m < 0)."""
    ycplx = loop_sph_harmonic_all(band_limit, mu, phi)
    out = np.empty(ycplx.shape)
    for n in range(band_limit + 1):
        zero = n * n + n
        pos = ycplx[zero:zero + n + 1]
        out[zero:zero + n + 1] = pos.real
        out[zero + 1:zero + n + 1] *= np.sqrt(2.0)
        out[n * n:zero] = np.sqrt(2.0) * pos[:0:-1].imag
    return out


def harmonic_index(n: int, m: int) -> int:
    """Flat index of (n, m) in the degree-major ordering, m = -n..n."""
    if abs(m) > n:
        raise IndexError(f"|m| = {abs(m)} exceeds degree n = {n}")
    return n * n + n + m


def radial_derivative(x, wave, ctx, geom) -> np.ndarray:
    """∂u^s/∂r = Σ α_nm k h_n'(kr) Y_n^m at exterior points ``x``."""
    amps = wave.amplitudes
    band_limit = wave.band_limit
    x = np.atleast_2d(np.asarray(x, dtype=float))
    r = np.linalg.norm(x, axis=1)
    if np.any(r <= geom.radius):
        raise ValueError("evaluation points must lie outside the obstacle")
    ymat = sph_harmonic_all(band_limit, np.clip(x[:, 2] / r, -1.0, 1.0),
                            np.arctan2(x[:, 1], x[:, 0]))
    per_degree = sph_hankel1(np.arange(band_limit + 1)[:, None], ctx.k * r,
                             derivative=True)
    radial = (ctx.k * per_degree)[harmonic_degrees(band_limit)]
    return (amps[:, None] * radial * ymat).sum(axis=0)


def mie_scattered(x, ctx, a: float, lam0: float) -> np.ndarray:
    """Near-field Mie scattered wave at exterior points, from the Mie
    amplitudes of :func:`impscat.forward.mie_farfield`."""
    nb = _mie_band_limit(ctx.k, a, lam0)
    return _outgoing_wave(_mie_amplitudes(ctx, a, lam0, nb), ctx.k, x, a)


def prop41_intermediate(delta: float, fu_norm: float, c: float,
                        sigma: float) -> float:
    """Two-term form C/|lnδ|^σ + fu/δ at the given δ, evaluated only.  Its
    minimizer over δ is e^{−ŝ}, with ŝ = ``prop41_stationary_s(C, σ, fu)``."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return c / abs(np.log(delta)) ** sigma + fu_norm / delta


def quadrature_sphere_means(squares, center, radii, laplacian: bool = False) -> tuple:
    """The means of ``squares(x, laplacian)`` (a family's squares, each of
    shape (members, len(x))) over each sphere |x − center| = s of ``radii``,
    each of shape (members, len(radii)), by the product rule of order
    ``MEANS_ORDER``."""
    rule = gauss_product_rule(MEANS_ORDER)
    radii = np.asarray(radii, dtype=float)
    x = (np.asarray(center, dtype=float)
         + radii[:, None, None] * rule.points()[None]).reshape(-1, 3)
    # a contiguous copy: a broadcast (zero-stride) square sums in a slower
    # order that rounds to 1e-13
    return tuple(np.ascontiguousarray(square).reshape(len(square), len(radii), -1)
                 @ rule.weights / (4.0 * np.pi) for square in squares(x, laplacian))


def shell_nodes(rule) -> np.ndarray:
    """Every node of a shell rule, shell by shell: its sphere rule's points
    scaled to each radius about the center, shape (size, 3)."""
    return (rule.center[None, None, :] + rule.radii[:, None, None]
            * rule.sphere.points()[None, :, :]).reshape(-1, 3)


def shell_weights(rule) -> np.ndarray:
    """The weight of each node of :func:`shell_nodes`: the shell's radial
    weight times the sphere rule's."""
    return (rule.radial[:, None] * rule.sphere.weights[None, :]).ravel()


@dataclass(frozen=True)
class TestFunction:
    """Real scalar field with analytic value, gradient and Laplacian, as
    closures: a one-member test-function family whose squares come from them,
    and whose sphere means come from those by :func:`quadrature_sphere_means`."""

    __test__ = False  # not a pytest class despite the name

    value: callable
    gradient: callable
    laplacian: callable
    wavenumber: float = 0.0  # k of its cos(k·) oscillation; 0 for a polynomial

    size = 1
    positions = None

    def squares(self, x, laplacian: bool = False) -> tuple:
        g = np.asarray(self.gradient(x))
        out = (np.asarray(self.value(x))[None] ** 2, np.einsum("ij,ij->i", g, g)[None])
        return out + (np.asarray(self.laplacian(x))[None] ** 2,) if laplacian else out

    def sphere_means(self, center, radii, laplacian: bool = False) -> tuple:
        return quadrature_sphere_means(self.squares, center, radii, laplacian)

    @staticmethod
    def plane_wave(k: float, direction, phase: float = 0.0) -> "TestFunction":
        d = np.asarray(direction, dtype=float)
        d = d / np.linalg.norm(d)

        def val(x):
            return np.cos(k * (np.atleast_2d(x) @ d) + phase)

        def grad(x):
            x = np.atleast_2d(x)
            return -k * np.sin(k * (x @ d) + phase)[:, None] * d

        def lap(x):
            return -k * k * val(x)

        return TestFunction(val, grad, lap, k)

    @staticmethod
    def quadratic(const: float, linear, quad) -> "TestFunction":
        b = np.asarray(linear, dtype=float)
        a = np.asarray(quad, dtype=float)
        a = 0.5 * (a + a.T)

        def val(x):
            x = np.atleast_2d(x)
            return const + x @ b + np.sum((x @ a) * x, axis=1)

        def grad(x):
            x = np.atleast_2d(x)
            return b[None, :] + 2.0 * x @ a

        def lap(x):
            x = np.atleast_2d(x)
            return np.full(x.shape[0], 2.0 * np.trace(a))

        return TestFunction(val, grad, lap)


def members(suite) -> list:
    """The members of the families of ``suite`` as closures, in suite order."""
    out = {}
    for family, positions in zip(suite, _suite_positions(suite)):
        if isinstance(family, PlaneWaves):
            rows = [TestFunction.plane_wave(*p) for p in zip(family.k, family.directions,
                                                              family.phases)]
        elif isinstance(family, Quadratics):
            rows = [TestFunction.quadratic(*p) for p in zip(family.const, family.linear,
                                                             family.quad)]
        else:
            rows = [family]
        out.update(zip(positions.tolist(), rows))
    return [out[i] for i in range(len(out))]


@dataclass(frozen=True)
class Recorded:
    """A family that evaluates as ``family`` does and records, per
    ``sphere_means`` call, its center, its radii and whether (Δv)² was asked
    for (``mean_calls``)."""

    family: object
    mean_calls: list = field(default_factory=list)

    @property
    def size(self) -> int:
        return self.family.size

    @property
    def wavenumber(self) -> float:
        return self.family.wavenumber

    @property
    def positions(self):
        return self.family.positions

    def sphere_means(self, center, radii, laplacian: bool = False) -> tuple:
        self.mean_calls.append((np.array(center), np.array(radii), laplacian))
        return self.family.sphere_means(center, radii, laplacian)


def h1_norm(u: TestFunction, nodes, weights) -> float:
    """(∫ u² + |∇u|²)^{1/2} by the quadrature rule (nodes, weights)."""
    vv = np.asarray(u.value(nodes))
    gg = np.sum(np.asarray(u.gradient(nodes)) ** 2, axis=1)
    return float(np.sqrt(np.sum(weights * (vv**2 + gg))))


def point_source(k: float, source) -> TestFunction:
    """cos(k|x−y|)/|x−y|: real Helmholtz solution away from the source y."""
    y = np.asarray(source, dtype=float)

    def val(x):
        r = np.linalg.norm(np.atleast_2d(x) - y, axis=1)
        return np.cos(k * r) / r

    def grad(x):
        x = np.atleast_2d(x)
        dx = x - y
        r = np.linalg.norm(dx, axis=1)
        dvdr = -(k * np.sin(k * r) * r + np.cos(k * r)) / r**2
        return (dvdr / r)[:, None] * dx

    def lap(x):
        return -k * k * val(x)

    return TestFunction(val, grad, lap, k)
