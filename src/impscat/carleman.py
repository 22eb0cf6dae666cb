"""Weighted-inequality verification: Carleman estimate, continuation, chains.

The central object is the annular Carleman setup with weight φ = e^{λψ},
ψ(x) = ln((ρ+d)²/|x−x₀|²).  At the admissible thresholds the exponents
2τφ reach magnitudes like e^{10⁴}, so every weighted quantity here is kept
in a factored form: both sides of the inequality are reported relative to
a common factor exp(L) with L = 2τφ_ref + 3λψ_ref evaluated at the inner
radius where the weight peaks.  L itself overflows floats, so it is never
formed: only the per-node relative exponents

    E_i = 2τφ_ref·expm1(λ(ψ_i − ψ_ref)) + (power)·λ(ψ_i − ψ_ref) + shift

are computed through logs of magnitudes, never through e^{λψ} directly.
Terms whose relative exponent is below the float floor contribute exactly
zero in the factored scale; the comparison between the two sides is then a
comparison of the surviving (inner-boundary dominated) contributions.

The setup owns its node sets, built once per annulus.  Each is laid out in
shells of equal radius, so ψ − ψ_ref takes one value per shell: 48 in the
volume and 2 on the boundary.  The relative weights depend only on (λ, τ),
not on v, so :func:`carleman_sides` computes them per shell for every pair
it is given, keeps the shells where some weight at some pair is not exactly
0.0, and evaluates each test function once, on the nodes of those shells.
At the admissible thresholds that is the inner sphere alone: every volume
weight, and so every lhs, is 0.0 relative to the common factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import exp, lgamma, log
from typing import NamedTuple

import numpy as np

from .geometry import ObstacleGeometry
from .specfun import gauss_product_rule

_LOG_FLOAT_MAX = 709.0


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """Real scalar field with analytic value, gradient and Laplacian."""

    __test__ = False  # not a pytest class despite the name

    value: callable
    gradient: callable
    laplacian: callable
    wavenumber: float = 0.0  # k of its cos(k·) oscillation; 0 for a polynomial

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


def random_test_suite(size: int, seed: int = 0) -> list[TestFunction]:
    """Mixed suite of plane waves (k uniform in [0.5, 4]) and quadratic polynomials."""
    rng = np.random.default_rng(seed)
    suite = []
    for i in range(size):
        if i % 2 == 0:
            k = rng.uniform(0.5, 4.0)
            d = rng.normal(size=3)
            suite.append(TestFunction.plane_wave(k, d, rng.uniform(0, 2 * np.pi)))
        else:
            suite.append(TestFunction.quadratic(
                rng.normal(), rng.normal(size=3), rng.normal(size=(3, 3))
            ))
    return suite


# ---------------------------------------------------------------------------
# Carleman setup on an annulus
# ---------------------------------------------------------------------------

def _radial_rule(center, inner: float, width: float, n_radial: int,
                 sphere_order: int):
    """Nodes and weights over {inner < |x − center| < inner + width}, shell
    by shell, and the radius of each shell.

    Radial Gauss-Legendre (with the r² Jacobian) times the sphere product
    rule; ``inner = 0`` gives a ball.
    """
    t, wt = np.polynomial.legendre.leggauss(n_radial)
    s = inner + 0.5 * width * (t + 1.0)
    ws = 0.5 * width * wt
    rule = gauss_product_rule(sphere_order)
    pts = (np.asarray(center, dtype=float)[None, None, :]
           + s[:, None, None] * rule.points()[None, :, :])
    w = (ws * s**2)[:, None] * rule.weights[None, :]
    return pts.reshape(-1, 3), w.ravel(), s


class NodeSet(NamedTuple):
    """A quadrature rule about x₀ laid out in shells of equal size.

    ``nodes`` (n, 3) and ``weights`` (n,) run shell by shell; ``dpsi`` holds
    ψ − ψ_ref once per shell.
    """

    nodes: np.ndarray
    weights: np.ndarray
    dpsi: np.ndarray

    @property
    def shell_size(self) -> int:
        return self.weights.size // self.dpsi.size

    def weighted_shells(self, pairs, psi_ref: float, powers: tuple) -> tuple:
        """(nodes, weights, rel) on the shells where some relative weight at
        some (λ, τ) of ``pairs`` is not 0.0; the dropped shells add exactly 0.

        rel[i, j] is e^{E} for power ``powers[i]`` at ``pairs[j]``
        (:func:`_relative_exponents`), computed per shell and repeated over
        each kept shell's nodes.
        """
        rel = np.stack([np.exp(_relative_exponents(self.dpsi, lam, tau, psi_ref, powers))
                        for lam, tau in pairs], axis=1)
        keep = np.any(rel != 0.0, axis=(0, 1))
        size = self.shell_size
        return (self.nodes.reshape(-1, size, 3)[keep].reshape(-1, 3),
                self.weights.reshape(-1, size)[keep].ravel(),
                np.repeat(rel[..., keep], size, axis=-1))


# powers p of φ in the weights e^{2τφ}φ^p of each node set
_VOLUME_POWERS, _BOUNDARY_POWERS = (3, 1, 0), (3, 1)


@dataclass(frozen=True)
class CarlemanSetup:
    """Annulus {ρ < |x − x₀| < ρ+d} with the log weight ψ and its norms.

    m = min(1, 2/(ρ+d)) bounds |∇ψ| from below; M bounds the C² norm of ψ
    from above, taken as the sum of the sup norms of ψ and all first and
    second partials (10 multi-index terms), floored at 1.  ψ is radial and
    decreasing, so each sup is taken at |x − x₀| = ρ in closed form:
    sup ψ = ψ_ref, sup|∂ψ| = 2/ρ, sup|∂²ψ| = 2/ρ².  Raises ``ValueError``
    unless ρ and d are positive and finite and the thresholds they give,
    λ_min = 6M³/m⁴ and τ_min = 88M⁶/m⁴ of :func:`corollary_thresholds` at
    Λ = 0, stored as ``lambda_threshold`` and ``tau_threshold``, are finite.

    ``volume`` (48 radial Gauss nodes × sphere order 16) and ``boundary``
    (order 24 on both spheres) are the node sets, each a :class:`NodeSet` in
    shells of one radius r, with ψ − ψ_ref = 2 ln(ρ/r) ≤ 0 per shell: exactly
    0 on the inner sphere.  ``weighted_nodes(λ, τ)`` compresses both sets to
    the nodes whose relative weights at (λ, τ) are not all 0.0.
    """

    x0: np.ndarray
    rho: float
    d: float
    m: float = field(init=False)
    M: float = field(init=False)
    lambda_threshold: float = field(init=False)
    tau_threshold: float = field(init=False)
    volume: NodeSet = field(init=False, repr=False, compare=False)
    boundary: NodeSet = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        named = f"(rho = {self.rho}, d = {self.d})"
        if not (np.isfinite(self.rho) and np.isfinite(self.d) and self.rho > 0 and self.d > 0):
            raise ValueError(f"annulus radii must be positive and finite {named}")
        x0 = np.asarray(self.x0, dtype=float)
        object.__setattr__(self, "x0", x0)
        x0.setflags(write=False)
        # M = inf, from an overflow or from a ρ² that underflows to 0, is
        # rejected below
        with np.errstate(over="ignore", divide="ignore"):
            sup_d2 = 2.0 / np.float64(self.rho)**2  # diagonal and off-diagonal partials alike
            total = float(self.psi_ref + 3 * (2.0 / self.rho) + 3 * sup_d2 + 3 * sup_d2)
        object.__setattr__(self, "m", min(1.0, 2.0 / (self.rho + self.d)))
        object.__setattr__(self, "M", max(total, 1.0))
        # m⁴ is 0 where ρ + d overflows or m⁴ underflows
        limits = corollary_thresholds(0.0, self.m, self.M) if self.m**4 > 0 else None
        if limits is None or not np.isfinite([limits.lambda_min, limits.tau_min]).all():
            raise ValueError(f"annulus radii put the admissible thresholds outside "
                             f"the float range {named}")
        object.__setattr__(self, "lambda_threshold", limits.lambda_min)
        object.__setattr__(self, "tau_threshold", limits.tau_min)

        sphere = gauss_product_rule(24)
        radii = (self.rho, self.rho + self.d)
        rules = {"volume": _radial_rule(x0, self.rho, self.d, 48, 16),
                 "boundary": (np.vstack([x0 + s * sphere.points() for s in radii]),
                              np.concatenate([s**2 * sphere.weights for s in radii]),
                              np.array(radii))}
        for name, (nodes, weights, r) in rules.items():
            # ψ − ψ_ref = 2 ln(ρ/r) from the shell radius, not from |x − x₀|,
            # whose rounding can put an inner-sphere node outside radius ρ
            object.__setattr__(self, name, NodeSet(nodes, weights, 2.0 * np.log(self.rho / r)))

    def weighted_shells(self, pairs) -> tuple:
        """(volume, boundary) over the shells where some relative weight at
        some (λ, τ) of ``pairs`` is not 0.0; see :meth:`NodeSet.weighted_shells`."""
        return (self.volume.weighted_shells(pairs, self.psi_ref, _VOLUME_POWERS),
                self.boundary.weighted_shells(pairs, self.psi_ref, _BOUNDARY_POWERS))

    def weighted_nodes(self, lam: float, tau: float) -> tuple:
        """(volume, boundary) at (λ, τ), each without its zero-weight nodes.

        volume is (nodes, quad weights, w3, w1, w0) and boundary is (nodes,
        quad weights, b3, b1), where w_p is e^{2τφ}φ^p relative to the common
        factor.
        """
        return tuple((nodes, weights, *rel[:, 0])
                     for nodes, weights, rel in self.weighted_shells([(lam, tau)]))

    @property
    def psi_ref(self) -> float:
        """Max of ψ on the closed annulus (at the inner radius)."""
        return 2.0 * np.log((self.rho + self.d) / self.rho)


@dataclass(frozen=True)
class CarlemanResult:
    """Both sides of the weighted inequality in the common factored scale."""

    lhs_factored: float
    rhs_factored: float
    lam: float
    tau: float

    @property
    def holds(self) -> bool:
        return self.lhs_factored <= self.rhs_factored

    @property
    def ratio(self) -> float:
        if self.lhs_factored == 0.0:
            return np.inf
        return self.rhs_factored / self.lhs_factored


def _relative_exponents(dpsi: np.ndarray, lam: float, tau: float,
                        psi_ref: float, powers: tuple) -> np.ndarray:
    """log of e^{2τφ}φ^p / e^{2τφ_ref + 3λψ_ref}, one row per power p.

    dpsi = ψ − ψ_ref ≤ 0.  The weight part 2τφ_ref(e^{λ·dpsi} − 1) is
    computed once, through its log to dodge the overflow in 2τφ_ref itself.
    """
    ldp = lam * dpsi
    with np.errstate(divide="ignore"):
        q = np.log(2.0 * tau) + lam * psi_ref + np.log(-np.expm1(ldp))
    t1 = np.where(ldp == 0.0, 0.0, -np.exp(np.minimum(q, _LOG_FLOAT_MAX)))
    return np.array([t1 + p * ldp + (p - 3) * lam * psi_ref for p in powers])


def _squares(v: TestFunction, x: np.ndarray) -> tuple:
    """v² and |∇v|² at the nodes x."""
    g = np.asarray(v.gradient(x))
    return np.asarray(v.value(x)) ** 2, np.einsum("ij,ij->i", g, g)


def _require_finite(pairs, values: np.ndarray, what: str) -> None:
    """Raise ``OverflowError`` at the first pair (λ, τ) whose row of
    ``values`` is not finite."""
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        lam, tau = pairs[int(np.argmax(bad))]
        raise OverflowError(f"a Carleman {what} leaves the float range at "
                            f"lam = {lam:.6g}, tau = {tau:.6g}")


def carleman_sides(suite, setup: CarlemanSetup, pairs) -> list:
    """Evaluate both sides of the annulus Carleman inequality for every test
    function of ``suite`` at every weight pair (λ, τ) of ``pairs``.

    lhs = ∫ e^{2τφ}(m⁴λ⁴τ³φ³v² + m²λ²τφ|∇v|²)
    rhs = 8∫ e^{2τφ}(Δv)² + 48∫_Γ e^{2τφ}(M³λ³τ³φ³v² + Mλτφ|∇v|²)

    with φ = e^{λψ}, integrated over the setup's node sets; both sides are
    divided by the common factor exp(2τφ_ref + 3λψ_ref).  Returns one list of
    :class:`CarlemanResult` per pair, in suite order.

    Every pair is checked before any v is evaluated, and so is every
    coefficient: ``OverflowError`` names the first (λ, τ) where a coefficient,
    or afterwards a side, is not a finite float.  The weights are built
    per shell (:meth:`CarlemanSetup.weighted_shells`); each v is evaluated
    once, on the shells where some pair's weight is not 0.0, and reduced at
    once against every pair's weight row, so no (members × nodes) array is
    formed.  A node set with no such shell is not evaluated at all.
    """
    pairs = list(pairs)
    for lam, tau in pairs:
        if not (np.isfinite(lam) and np.isfinite(tau)):
            raise ValueError(f"lam and tau must be finite (lam = {lam}, tau = {tau})")
        if lam < setup.lambda_threshold * (1.0 - 1e-12):
            raise ValueError("weight exponent below the admissible threshold")
        if tau < setup.tau_threshold * (1.0 - 1e-12):
            raise ValueError("tau below the admissible threshold")
    m, M = np.float64(setup.m), np.float64(setup.M)

    # coefficients[j, i]: the coefficient of term i at pair j, in numpy
    # floats, so that one past the float range is inf and raises here
    with np.errstate(over="ignore"):
        coefficients = np.array([[m**4 * lam**4 * tau**3, m**2 * lam**2 * tau, 8.0,
                                  48.0 * M**3 * lam**3 * tau**3, 48.0 * M * lam * tau]
                                 for lam, tau in np.array(pairs, dtype=float)])
    _require_finite(pairs, coefficients, "coefficient")
    # rows[i, j]: quadrature weight × relative weight × coefficients[j, i];
    # lhs and rhs are sums of rows against v's squares
    (xv, wv, rel_v), (xb, wb, rel_b) = setup.weighted_shells(pairs)
    lhs, rhs = np.zeros((2, len(pairs), len(suite)))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite side raises below
        rows_v = coefficients.T[:3, :, None] * rel_v * wv
        rows_b = coefficients.T[3:, :, None] * rel_b * wb
        for i, v in enumerate(suite):
            if len(xv):
                v2, g2 = _squares(v, xv)
                lhs[:, i] = rows_v[0] @ v2 + rows_v[1] @ g2
                rhs[:, i] = rows_v[2] @ np.asarray(v.laplacian(xv)) ** 2
            if len(xb):
                v2, g2 = _squares(v, xb)
                rhs[:, i] = rhs[:, i] + rows_b[0] @ v2 + rows_b[1] @ g2
    _require_finite(pairs, np.hstack((lhs, rhs)), "side")
    return [[CarlemanResult(lhs_factored=left, rhs_factored=right, lam=lam, tau=tau)
             for left, right in zip(lhs[j].tolist(), rhs[j].tolist())]
            for j, (lam, tau) in enumerate(pairs)]


@dataclass(frozen=True)
class CorollaryThresholds:
    lambda_min: float
    tau_min: float
    alternate: tuple


def corollary_thresholds(big_lambda: float, m: float, M: float) -> CorollaryThresholds:
    """Both admissible (λ_min, τ_min) pairs for the perturbed operator, found
    in numpy floats: one past the float range is inf, not an ``OverflowError``."""
    if m <= 0 or M <= 0 or big_lambda < 0:
        raise ValueError("m, M must be positive and the operator bound nonnegative")
    m, M = np.float64(m), np.float64(M)
    with np.errstate(over="ignore", divide="ignore"):
        primary = (6.0 * M**3 / m**4, max(88.0 * M**6, 16.0 * big_lambda) / m**4)
        alternate = (max(6.0 * M**3, 16.0 * big_lambda) / m**4, 88.0 * M**6 / m**4)
    return CorollaryThresholds(lambda_min=float(primary[0]), tau_min=float(primary[1]),
                               alternate=(float(alternate[0]), float(alternate[1])))


# ---------------------------------------------------------------------------
# Continuation from boundary data
# ---------------------------------------------------------------------------

def continuation_constants(rho: float, d: float, lam_w: float):
    """(α, β, γ) of the continuation interpolation step, log-space safe.

    α = λ(ρ+d)^{2λ}/(2(ρ+3d/4)^{2λ+1}), β = λ(ρ+d)^{2λ}/ρ^{2λ+1},
    γ = β/(α+β) ∈ (0, 1).
    """
    if rho <= 0 or d <= 0 or lam_w <= 0:
        raise ValueError("rho, d, lam_w must be positive")
    log_alpha = (np.log(lam_w) + 2.0 * lam_w * np.log(rho + d)
                 - np.log(2.0) - (2.0 * lam_w + 1.0) * np.log(rho + 0.75 * d))
    log_beta = (np.log(lam_w) + 2.0 * lam_w * np.log(rho + d)
                - (2.0 * lam_w + 1.0) * np.log(rho))
    # gamma = 1/(1 + alpha/beta), stable even when alpha, beta overflow;
    # clamp into the open interval when alpha/beta under- or overflows
    gamma = 1.0 / (1.0 + np.exp(min(log_alpha - log_beta, _LOG_FLOAT_MAX)))
    gamma = float(np.clip(gamma, np.finfo(float).tiny,
                          np.nextafter(1.0, 0.0)))
    with np.errstate(over="ignore"):
        alpha = float(np.exp(log_alpha))
        beta = float(np.exp(log_beta))
    return alpha, beta, gamma


@dataclass(frozen=True)
class ContinuationCheck:
    lhs: float
    rhs: float
    gamma: float

    @property
    def c_emp(self) -> float:
        return self.rhs / self.lhs if self.lhs > 0 else np.inf


def _h1_norm(u: TestFunction, nodes: np.ndarray, weights: np.ndarray) -> float:
    """(∫ u² + |∇u|²)^{1/2} by the quadrature rule (nodes, weights)."""
    vv = np.asarray(u.value(nodes))
    gg = np.sum(np.asarray(u.gradient(nodes)) ** 2, axis=1)
    return float(np.sqrt(np.sum(weights * (vv**2 + gg))))


def continuation_check(u: TestFunction, x_tilde, r: float,
                       geom: ObstacleGeometry) -> ContinuationCheck:
    """Both sides of the boundary-data continuation estimate.

    lhs = r²‖u‖_{H¹(B(x̃,r/4)∩Ω)}; rhs = ‖u‖_{H²(Ω)}^{1−γ/2}·(Cauchy data
    on B(x̃,r)∩Γ)^{γ/2}, γ at weight exponent 2.  Ω is truncated to the
    shell a < |x| < 3 and the H² norm uses ‖u‖² + ‖∇u‖² + ‖Δu‖².
    """
    xt = np.asarray(x_tilde, dtype=float)
    _, _, gamma = continuation_constants(r / 2.0, r / 2.0, 2.0)

    pts, w, _ = _radial_rule(xt, 0.0, r / 4.0, n_radial=24, sphere_order=12)
    inside = ~geom.contains(pts)
    if float(np.sum(w[inside])) < 1e-8:
        raise ValueError("continuation ball has negligible exterior measure")
    h1_local = _h1_norm(u, pts[inside], w[inside])

    a = geom.radius
    spts, sw, _ = _radial_rule(np.zeros(3), a, 3.0 - a, n_radial=40, sphere_order=20)
    sv = np.asarray(u.value(spts))
    sg = np.sum(np.asarray(u.gradient(spts)) ** 2, axis=1)
    sl = np.asarray(u.laplacian(spts))
    h2 = float(np.sqrt(np.sum(sw * (sv**2 + sg + sl**2))))

    # patch rule must resolve the r-ball on the boundary
    rule = gauss_product_rule(max(32, int(np.ceil(12.0 * geom.radius / r))))
    bpts = geom.boundary_points(rule)
    ds = geom.surface_element(rule.mu, rule.phi) * rule.weights
    patch = np.linalg.norm(bpts - xt, axis=1) <= r
    bv = np.asarray(u.value(bpts))
    bg = np.sum(np.asarray(u.gradient(bpts)) ** 2, axis=1)
    cauchy = (float(np.sqrt(np.sum(ds[patch] * bv[patch] ** 2)))
              + float(np.sqrt(np.sum(ds[patch] * bg[patch]))))

    lhs = r**2 * h1_local
    rhs = h2 ** (1.0 - gamma / 2.0) * cauchy ** (gamma / 2.0)
    return ContinuationCheck(lhs=lhs, rhs=rhs, gamma=gamma)


# ---------------------------------------------------------------------------
# Three-sphere inequality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThreeSphereFit:
    alpha: float
    C: float
    norms: np.ndarray

    @property
    def monotonicity_violations(self) -> int:
        n = self.norms
        return int(np.sum((n[:, 0] > n[:, 1] * (1 + 1e-12))
                          | (n[:, 1] > n[:, 2] * (1 + 1e-12))))


# The rule of each three-sphere ball: 32 radial Gauss nodes × the order-14
# sphere rule.
_BALL_RADIAL_NODES, _BALL_SPHERE_ORDER = 32, 14


def _resolved_kr(n_radial: int, sphere_order: int) -> float:
    """The largest kR at which the rule of :func:`_radial_rule` integrates the
    H¹ integrand of a wave of wavenumber k over a ball of radius R to rounding.

    That integrand is a constant plus cos(2k x·d + c).  On the sphere of
    radius s about the centre its degree-n part (Jacobi–Anger) has weight
    j_n(2ks), and the order-p rule is exact to degree 2p + 1.  Along a radius
    it is s² times e^{iωt} in t ∈ [−1, 1], ω <= kR, whose Legendre weights are
    j_n(ω), and the q-node Gauss rule is exact to degree 2q − 3 beside s².
    With j_n(z) <= z^n/(2n+1)!! (DLMF 10.14.4), each bound is the z at which
    the first weight the rule does not integrate reaches the rounding unit.
    """
    def rounding_argument(n: int) -> float:  # z^n = eps·(2n+1)!!
        log_double_factorial = lgamma(2 * n + 2) - n * log(2.0) - lgamma(n + 1)
        return exp((log(np.finfo(float).eps) + log_double_factorial) / n)

    return min(rounding_argument(2 * sphere_order + 2) / 2.0,
               rounding_argument(2 * n_radial - 2))


def three_sphere_check(family, y, r: float) -> ThreeSphereFit:
    """Fit the largest exponent α̂ with a single constant across a family.

    For each u the three H¹ ball norms (n₁, n₂, n₃) at radii (r, 2r, 3r)
    must satisfy r·n₂ ≤ C·n₁^α n₃^{1−α}; α̂ comes from the log-log
    regression of ln(r n₂/n₃) on ln(n₁/n₃) and C is then the smallest
    constant making the inequality hold for every member.  Raises
    ``ValueError`` unless r is positive and finite and the ball rules resolve
    the family's largest wavenumber k on the largest ball (k·3r at most
    :func:`_resolved_kr`), and ``RuntimeError`` if a ball norm is zero or not
    finite (a zero member, or an r so small that the ball weights underflow
    or so large that they overflow), since the fit takes logarithms of their
    ratios.
    """
    if len(family) < 2:
        raise ValueError("family must have at least two members")
    if not (np.isfinite(r) and r > 0):
        raise ValueError(f"ball radius must be positive and finite (r = {r})")
    kr = max(u.wavenumber for u in family) * 3.0 * r
    resolved = _resolved_kr(_BALL_RADIAL_NODES, _BALL_SPHERE_ORDER)
    if kr > resolved:
        raise ValueError(f"k*3r = {kr:.6g} exceeds {resolved:.4g}, the largest the "
                         f"ball rules resolve")
    y = np.asarray(y, dtype=float)
    # an overflow here is a non-finite norm, raised below
    with np.errstate(over="ignore", invalid="ignore"):
        balls = [_radial_rule(y, 0.0, f * r, _BALL_RADIAL_NODES, _BALL_SPHERE_ORDER)[:2]
                 for f in (1.0, 2.0, 3.0)]
        norms = np.array([[_h1_norm(u, *ball) for ball in balls] for u in family])
    if not np.all(np.isfinite(norms) & (norms > 0)):
        raise RuntimeError(f"a ball norm is zero or not finite at r = {r}")
    if np.any(norms[:, 0] > norms[:, 1] * (1 + 1e-12)) or \
       np.any(norms[:, 1] > norms[:, 2] * (1 + 1e-12)):
        raise RuntimeError("ball-norm monotonicity violated; quadrature suspect")
    xs = np.log(norms[:, 0] / norms[:, 2])
    ys = np.log(r * norms[:, 1] / norms[:, 2])
    var = float(np.var(xs))
    if var > 1e-20:
        alpha = float(np.cov(xs, ys, bias=True)[0, 1] / var)
    else:
        alpha = 0.5
    alpha = float(np.clip(alpha, 0.05, 0.95))
    log_c = float(np.max(ys - alpha * xs))
    return ThreeSphereFit(alpha=alpha, C=float(np.exp(log_c)), norms=norms)


# ---------------------------------------------------------------------------
# Chain lower bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainBound:
    log_i_final: float
    log_i_closed: float
    log_lower_bound: float
    log_simplified_bound: float
    eta: float

    @property
    def iteration_residual(self) -> float:
        scale = max(1.0, abs(self.log_i_closed))
        return abs(self.log_i_final - self.log_i_closed) / scale


def chain_lower_bound(n_steps, i0: float, m_tilde: float, c: float,
                      alpha: float, r: float) -> ChainBound:
    """Iterate the smallness-propagation recursion and invert it.

    Recursion: I_{k+1} = (C/ρ₀) M^{1−α} I_k^α with ρ₀ = r, iterated in log
    space; closed form I_k = (C/ρ₀)^{(1−α^k)/(1−α)} M^{1−α^k} I₀^{α^k}.
    The final lower bound is (C r)^{γ/α^N} with γ = 3/2 + 1/(1−α), the
    dimension being three, and the simplified form is e^{−C/r^η},
    η = 1 + 6|ln α|.  Raises ``OverflowError`` if the log lower bound is not
    a finite float.
    """
    n = int(getattr(n_steps, "count", n_steps))
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not all(np.isfinite(v) and v > 0 for v in (i0, m_tilde, c, r)):
        raise ValueError(f"i0, m_tilde, c, r must be positive and finite "
                         f"(i0 = {i0}, m_tilde = {m_tilde}, c = {c}, r = {r})")
    log_cr = np.log(c / r)
    log_i = np.log(i0)
    for _ in range(n):
        log_i = log_cr + (1.0 - alpha) * np.log(m_tilde) + alpha * log_i
    frac = (1.0 - alpha**n) / (1.0 - alpha)
    log_closed = (frac * log_cr + (1.0 - alpha**n) * np.log(m_tilde)
                  + alpha**n * np.log(i0))
    beta = 1.0 / (1.0 - alpha)
    gamma = 1.5 + beta
    # α^N underflows and γ/α^N overflows long before the chain's norms do
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        log_lower = (gamma / np.float64(alpha)**n) * np.log(c * r) if n else np.log(i0)
    if not np.isfinite(log_lower):
        raise OverflowError(f"the log lower bound (gamma/alpha^N) ln(c r) leaves the "
                            f"float range at N = {n} chain steps (alpha = {alpha})")
    eta = 1.0 + 6.0 * abs(np.log(alpha))
    log_simplified = -c / r**eta
    return ChainBound(log_i_final=float(log_i), log_i_closed=float(log_closed),
                      log_lower_bound=float(log_lower),
                      log_simplified_bound=float(log_simplified), eta=eta)


# ---------------------------------------------------------------------------
# Boundary witness set
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessReport:
    indices: np.ndarray
    delta: float

    @property
    def empty(self) -> bool:
        return self.indices.size == 0


def lemma42_witness(values, nodes, x_tilde, r_star: float,
                    delta: float) -> WitnessReport:
    """Nodes in B(x̃, r*) where |u| ≥ δ; empty result is flagged, not raised."""
    values = np.asarray(values)
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    xt = np.asarray(x_tilde, dtype=float)
    in_ball = np.linalg.norm(nodes - xt, axis=1) <= r_star
    hits = np.flatnonzero(in_ball & (np.abs(values) >= delta))
    return WitnessReport(indices=hits, delta=delta)
