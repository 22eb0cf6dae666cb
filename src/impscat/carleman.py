"""Weighted-inequality verification: Carleman estimate, continuation, chains.

The central object is the annular Carleman setup with weight φ = e^{λψ},
ψ(x) = ln((ρ+d)²/|x−x₀|²).  At the admissible thresholds the exponents
2τφ reach magnitudes like e^{10⁴}, so every weighted quantity here is kept
in a factored form: both sides of the inequality are reported relative to
a common factor exp(L) with L = 2τφ_ref + 3λψ_ref evaluated at the inner
radius where the weight peaks.  L itself overflows floats, so it is carried
as an arbitrary-precision value and the per-node relative exponents

    E_i = 2τφ_ref·expm1(λ(ψ_i − ψ_ref)) + (power)·λ(ψ_i − ψ_ref) + shift

are computed through logs of magnitudes, never through e^{λψ} directly.
Terms whose relative exponent is below the float floor contribute exactly
zero in the factored scale; the comparison between the two sides is then a
comparison of the surviving (inner-boundary dominated) contributions.

The setup owns its node sets and ψ − ψ_ref on them, built once per annulus.
The relative weights depend only on (λ, τ), not on v: the setup builds them
once per (λ, τ), keeps the most recent pair, and drops every node whose
weights are all exactly 0.0.  A check at any v then evaluates v only on the
nodes that carry weight.  At the admissible thresholds that is the inner
sphere alone: every volume weight, and so every lhs, is 0.0 relative to the
common factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import mpmath as mp
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

    kind: str
    value: callable
    gradient: callable
    laplacian: callable

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

        return TestFunction("plane-wave", val, grad, lap)

    @staticmethod
    def quadratic(const: float, linear, quad) -> "TestFunction":
        b = np.asarray(linear, dtype=float)
        a = np.asarray(quad, dtype=float)
        a = 0.5 * (a + a.T)

        def val(x):
            x = np.atleast_2d(x)
            return const + x @ b + np.einsum("pi,ij,pj->p", x, a, x)

        def grad(x):
            x = np.atleast_2d(x)
            return b[None, :] + 2.0 * x @ a

        def lap(x):
            x = np.atleast_2d(x)
            return np.full(x.shape[0], 2.0 * np.trace(a))

        return TestFunction("quadratic", val, grad, lap)

    @staticmethod
    def point_source(k: float, source) -> "TestFunction":
        """cos(k|x−y|)/|x−y|: real Helmholtz solution away from the source."""
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

        return TestFunction("point-source", val, grad, lap)


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
    """Nodes, weights and each node's shell radius over {inner < |x − center|
    < inner + width}.

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
    return pts.reshape(-1, 3), w.ravel(), np.repeat(s, rule.weights.size)


@dataclass(frozen=True)
class CarlemanSetup:
    """Annulus {ρ < |x − x₀| < ρ+d} with the log weight ψ and its norms.

    m = min(1, 2/(ρ+d)) bounds |∇ψ| from below; M bounds the C² norm of ψ
    from above, taken as the sum of the sup norms of ψ and all first and
    second partials (10 multi-index terms), floored at 1.  ψ is radial and
    decreasing, so each sup is taken at |x − x₀| = ρ in closed form:
    sup ψ = ψ_ref, sup|∂ψ| = 2/ρ, sup|∂²ψ| = 2/ρ².  ``volume`` (48 radial
    Gauss nodes × sphere order 16) and ``boundary`` (order 24 on both
    spheres) are the node sets, each (nodes, weights, ψ − ψ_ref), with
    ψ − ψ_ref = 2 ln(ρ/r) ≤ 0 taken from the radius r of the node's shell:
    exactly 0 on the inner sphere.

    ``weighted_nodes(λ, τ)`` compresses both sets to the nodes whose relative
    weights are not all 0.0; the setup keeps the result for the most recent
    (λ, τ) only.
    """

    x0: np.ndarray
    rho: float
    d: float
    m: float = field(init=False)
    M: float = field(init=False)
    volume: tuple = field(init=False, repr=False, compare=False)
    boundary: tuple = field(init=False, repr=False, compare=False)
    _weighted: dict = field(init=False, repr=False, compare=False,
                            default_factory=dict)

    def __post_init__(self):
        if not (np.isfinite(self.rho) and np.isfinite(self.d) and self.rho > 0 and self.d > 0):
            raise ValueError(f"annulus radii must be positive and finite "
                             f"(rho = {self.rho}, d = {self.d})")
        x0 = np.asarray(self.x0, dtype=float)
        object.__setattr__(self, "x0", x0)
        x0.setflags(write=False)
        sup_d2 = 2.0 / self.rho**2  # diagonal and off-diagonal partials alike
        total = float(self.psi_ref) + 3 * (2.0 / self.rho) + 3 * sup_d2 + 3 * sup_d2
        object.__setattr__(self, "m", min(1.0, 2.0 / (self.rho + self.d)))
        object.__setattr__(self, "M", max(total, 1.0))

        sphere = gauss_product_rule(24)
        radii = (self.rho, self.rho + self.d)
        rules = {"volume": _radial_rule(x0, self.rho, self.d, 48, 16),
                 "boundary": (np.vstack([x0 + s * sphere.points() for s in radii]),
                              np.concatenate([s**2 * sphere.weights for s in radii]),
                              np.repeat(radii, sphere.weights.size))}
        for name, (nodes, weights, r) in rules.items():
            # ψ − ψ_ref = 2 ln(ρ/r) from the shell radius, not from |x − x₀|,
            # whose rounding can put an inner-sphere node outside radius ρ
            dpsi = 2.0 * np.log(self.rho / r)
            object.__setattr__(self, name, (nodes, weights, dpsi))

    def weighted_nodes(self, lam: float, tau: float) -> tuple:
        """(volume, boundary) at (λ, τ), each without its zero-weight nodes.

        volume is (nodes, quad weights, w3, w1, w0) and boundary is (nodes,
        quad weights, b3, b1), where w_p is e^{2τφ}φ^p relative to the common
        factor.  Built on the first call for (λ, τ) and kept until a call
        with another pair.
        """
        key = (lam, tau)
        if key not in self._weighted:
            self._weighted.clear()
            self._weighted[key] = tuple(
                _drop_unweighted(*node_set, lam, tau, self.psi_ref, powers)
                for node_set, powers in ((self.volume, (3, 1, 0)),
                                         (self.boundary, (3, 1))))
        return self._weighted[key]

    @property
    def lambda_threshold(self) -> float:
        return 6.0 * self.M**3 / self.m**4

    @property
    def tau_threshold(self) -> float:
        return 88.0 * self.M**6 / self.m**4

    @property
    def psi_ref(self) -> float:
        """Max of ψ on the closed annulus (at the inner radius)."""
        return 2.0 * np.log((self.rho + self.d) / self.rho)


@dataclass(frozen=True)
class CarlemanResult:
    """Both sides of the weighted inequality in the common factored scale."""

    lhs_factored: float
    rhs_factored: float
    log_common_factor: object
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


def _drop_unweighted(nodes, weights, dpsi, lam, tau, psi_ref, powers) -> tuple:
    """(nodes, weights, one weight row per power) on the nodes where some
    relative weight e^{E} is not 0.0; the dropped nodes add exactly 0."""
    rel = np.exp(_relative_exponents(dpsi, lam, tau, psi_ref, powers))
    keep = np.any(rel != 0.0, axis=0)
    return (nodes[keep], weights[keep], *rel[:, keep])


def carleman_sides(v: TestFunction, setup: CarlemanSetup, lam: float,
                   tau: float) -> CarlemanResult:
    """Evaluate both sides of the annulus Carleman inequality for v.

    lhs = ∫ e^{2τφ}(m⁴λ⁴τ³φ³v² + m²λ²τφ|∇v|²)
    rhs = 8∫ e^{2τφ}(Δv)² + 48∫_Γ e^{2τφ}(M³λ³τ³φ³v² + Mλτφ|∇v|²)

    with φ = e^{λψ}, integrated over the setup's node sets; both sides are
    divided by the common factor exp(2τφ_ref + 3λψ_ref) before being returned.
    v is evaluated only on the nodes whose weights at (λ, τ) are not all 0.0
    (``CarlemanSetup.weighted_nodes``).
    """
    if not (np.isfinite(lam) and np.isfinite(tau)):
        raise ValueError(f"lam and tau must be finite (lam = {lam}, tau = {tau})")
    if lam < setup.lambda_threshold * (1.0 - 1e-12):
        raise ValueError("weight exponent below the admissible threshold")
    if tau < setup.tau_threshold * (1.0 - 1e-12):
        raise ValueError("tau below the admissible threshold")
    m, M, psi_ref = setup.m, setup.M, setup.psi_ref

    (xv, wv, w3, w1, w0), (xb, wb, b3, b1) = setup.weighted_nodes(lam, tau)
    v2 = np.asarray(v.value(xv)) ** 2
    g2 = np.sum(np.asarray(v.gradient(xv)) ** 2, axis=1)
    l2 = np.asarray(v.laplacian(xv)) ** 2
    lhs = float(np.sum(wv * (m**4 * lam**4 * tau**3 * w3 * v2
                             + m**2 * lam**2 * tau * w1 * g2)))
    rhs = 8.0 * float(np.sum(wv * w0 * l2))

    vb2 = np.asarray(v.value(xb)) ** 2
    gb2 = np.sum(np.asarray(v.gradient(xb)) ** 2, axis=1)
    rhs += 48.0 * float(np.sum(wb * (M**3 * lam**3 * tau**3 * b3 * vb2
                                     + M * lam * tau * b1 * gb2)))

    log_cf = 2.0 * tau * mp.exp(lam * psi_ref) + 3.0 * lam * psi_ref
    return CarlemanResult(lhs_factored=lhs, rhs_factored=rhs,
                          log_common_factor=log_cf, lam=lam, tau=tau)


@dataclass(frozen=True)
class CorollaryThresholds:
    lambda_min: float
    tau_min: float
    alternate: tuple


def corollary_thresholds(big_lambda: float, m: float, M: float) -> CorollaryThresholds:
    """Both admissible (λ_min, τ_min) pairs for the perturbed operator."""
    if m <= 0 or M <= 0 or big_lambda < 0:
        raise ValueError("m, M must be positive and the operator bound nonnegative")
    primary = (6.0 * M**3 / m**4, max(88.0 * M**6, 16.0 * big_lambda) / m**4)
    alternate = (max(6.0 * M**3, 16.0 * big_lambda) / m**4, 88.0 * M**6 / m**4)
    return CorollaryThresholds(lambda_min=primary[0], tau_min=primary[1],
                               alternate=alternate)


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


def three_sphere_check(family, y, r: float) -> ThreeSphereFit:
    """Fit the largest exponent α̂ with a single constant across a family.

    For each u the three H¹ ball norms (n₁, n₂, n₃) at radii (r, 2r, 3r)
    must satisfy r·n₂ ≤ C·n₁^α n₃^{1−α}; α̂ comes from the log-log
    regression of ln(r n₂/n₃) on ln(n₁/n₃) and C is then the smallest
    constant making the inequality hold for every member.
    """
    if len(family) < 2:
        raise ValueError("family must have at least two members")
    y = np.asarray(y, dtype=float)
    balls = [_radial_rule(y, 0.0, f * r, n_radial=32, sphere_order=14)[:2]
             for f in (1.0, 2.0, 3.0)]
    norms = np.array([[_h1_norm(u, *ball) for ball in balls] for u in family])
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
    η = 1 + 6|ln α|.
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
    log_lower = (gamma / alpha**n) * np.log(c * r) if n else np.log(i0)
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
