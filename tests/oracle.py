"""Reference values that only the tests read.

The solver reads S₀ and the modal table alone; the layer-operator
eigenvalues S, K, K' and T, the flat harmonic index, the radial derivative
of the scattered wave, the two-term Proposition 4.1 form and the point-source
test function live here, as independent checks on what the package computes.
"""

import numpy as np

from impscat.carleman import TestFunction
from impscat.forward import radiating_coefficients
from impscat.layer_ops import ModalTable, sphere_operator_eigenvalue
from impscat.specfun import harmonic_degrees, sph_hankel1, sph_harmonic_all

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


def harmonic_index(n: int, m: int) -> int:
    """Flat index of (n, m) in the degree-major ordering, m = -n..n."""
    if abs(m) > n:
        raise IndexError(f"|m| = {abs(m)} exceeds degree n = {n}")
    return n * n + n + m


def radial_derivative(x, phi, ctx, geom) -> np.ndarray:
    """∂u^s/∂r = Σ c_nm φ_nm k h_n'(kr) Y_n^m at exterior points ``x``."""
    amps = radiating_coefficients(phi, ctx, geom)
    band_limit = phi.band_limit
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


def prop41_intermediate(delta: float, fu_norm: float, c: float,
                        sigma: float) -> float:
    """Two-term form C/|lnδ|^σ + fu/δ at the given δ, evaluated only.  Its
    minimizer over δ is e^{−ŝ}, with ŝ = ``prop41_stationary_s(C, σ, fu)``."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return c / abs(np.log(delta)) ** sigma + fu_norm / delta


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
