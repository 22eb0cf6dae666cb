"""Obstacle geometry, geometric-assumption checks, and cone-ball chains.

The obstacle is the sphere of radius ``a``, the one shape whose layer
operators the solver diagonalizes.  The exterior domain must satisfy a
uniform exterior-sphere / interior-cone property (parameters ρ and θ); on
top of it a boundary-cap growth law 𝓑(x̃,r) ∩ ∂Ω ⊂ B(x̃, C r^κ) is probed
empirically.

The cone-ball chain marches a sequence of balls B(x_k, ρ_k) from a boundary
point along the cone axis out to |x| ~ R/8 with geometric ratio
μ = (3 + 2 sinθ)/(3 + sinθ); it drives the propagation-of-smallness
lower bounds in :mod:`impscat.carleman`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .specfun import QuadratureRule, gauss_product_rule


class GeometryError(ValueError):
    """Raised when a geometric construction or containment check fails."""


@dataclass(frozen=True)
class ObstacleGeometry:
    """Sphere with cone/exterior-ball data.

    Parameters
    ----------
    radius : float
        Sphere radius a > 0.
    exterior_sphere_radius : float
        Radius ρ of the uniform exterior (into-the-obstacle) contact ball.
    cone_half_angle : float
        Interior-cone half angle θ, strictly inside (0, π/2).
    """

    radius: float = 1.0
    exterior_sphere_radius: float = 0.5
    cone_half_angle: float = math.pi / 6.0

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise GeometryError(f"sphere radius must be positive and finite "
                                f"(radius = {self.radius})")
        if not 0.0 < self.cone_half_angle < math.pi / 2.0:
            raise GeometryError("cone half angle must lie strictly in (0, pi/2)")
        if not (math.isfinite(self.exterior_sphere_radius)
                and self.exterior_sphere_radius > 0):
            raise GeometryError(f"exterior sphere radius must be positive and finite "
                                f"(rho = {self.exterior_sphere_radius})")

    def boundary_points(self, rule: QuadratureRule) -> np.ndarray:
        """Boundary nodes x = a x̂ on a quadrature grid, shape (npts, 3)."""
        return rule.points() * self.radius

    def surface_element(self, mu, phi) -> np.ndarray:
        """ds/dΩ = a² at the directions (mu, phi)."""
        shape = np.broadcast(np.atleast_1d(mu), np.atleast_1d(phi)).shape
        return np.full(shape, self.radius * self.radius)

    def contains(self, x: np.ndarray) -> np.ndarray:
        """True where points lie strictly inside the obstacle."""
        return np.linalg.norm(np.atleast_2d(x), axis=1) < self.radius

    def distance_to_boundary(self, x: np.ndarray) -> np.ndarray:
        """dist(x, ∂D) = ||x| − a|."""
        return np.abs(np.linalg.norm(np.atleast_2d(x), axis=1) - self.radius)


# ---------------------------------------------------------------------------
# Exterior contact point (uniform exterior-sphere property)
# ---------------------------------------------------------------------------

def exterior_contact_point(geom: ObstacleGeometry, x_tilde: np.ndarray) -> np.ndarray:
    """Center x₀ = x̃(1 − ρ/a) of the contact ball B(x₀, ρ) touching ∂Ω only at x̃.

    x₀ = x̃ − ρ x̂ sits inside the obstacle; for ρ > a the ball reaches past
    the center and meets the sphere away from x̃, so that raises.
    """
    x_tilde = np.asarray(x_tilde, dtype=float)
    a, rho = geom.radius, geom.exterior_sphere_radius
    if not abs(np.linalg.norm(x_tilde) - a) <= 1e-10 * max(1.0, a):
        raise GeometryError("point does not lie on the obstacle boundary")
    if rho > a:
        raise GeometryError(
            "contact ball intersects the boundary away from the contact point"
        )
    return x_tilde * (1.0 - rho / a)


# ---------------------------------------------------------------------------
# Cone-ball chain
# ---------------------------------------------------------------------------

def chain_ratio(theta: float) -> float:
    """Geometric ratio μ = (3 + 2 sinθ)/(3 + sinθ) ∈ (1, 2)."""
    s = math.sin(theta)
    return (3.0 + 2.0 * s) / (3.0 + s)


def chain_ball_count(r: float, big_r: float, theta: float) -> int:
    """Number of chain steps N = [ln(R/4r) / ln μ] (integer part)."""
    if r <= 0:
        raise ValueError("r must be positive")
    if big_r < 4.0 * r:
        raise ValueError("need R >= 4r")
    ratio = math.log(big_r / (4.0 * r)) / math.log(chain_ratio(theta))
    # guard against floating noise at exact-integer ratios
    return int(math.floor(ratio + 1e-12))


@dataclass(frozen=True)
class ConeChain:
    """Ball chain (x_k, ρ_k, d_k), k = 0..N, marching along the cone axis ξ."""

    centers: np.ndarray
    radii: np.ndarray
    distances: np.ndarray
    ratio: float
    axis: np.ndarray
    count: int = field(default=0)

    def nesting_residuals(self) -> np.ndarray:
        """|x_{k+1} − x_k| + ρ_{k+1} − 2 ρ_k; nesting requires <= 0."""
        steps = np.linalg.norm(np.diff(self.centers, axis=0), axis=1)
        return steps + self.radii[1:] - 2.0 * self.radii[:-1]


def build_cone_chain(x_tilde: np.ndarray, r: float, geom: ObstacleGeometry,
                     big_r: float) -> ConeChain:
    """Construct the cone-ball chain from boundary point x̃ out to |x| ~ R/8.

    d₀ = r/2, ρ_k = d_k sinθ / 3, d_{k+1} = μ d_k, x_{k+1} = x_k + (μ−1) d_k ξ
    (step length (μ−1) d_k along +ξ; this is the sign that actually marches
    away from the boundary while reproducing d_{k+1} = μ d_k).
    Raises :class:`GeometryError` if any B(x_k, 3ρ_k) leaves the domain
    Ω = (exterior of the obstacle) ∩ B(0, R).
    """
    x_tilde = np.asarray(x_tilde, dtype=float)
    if r <= 0:
        raise GeometryError("chain base radius must be positive")
    if big_r <= 4.0 * geom.radius:
        raise GeometryError("outer radius R must exceed 4 sup_K |x|")
    theta = geom.cone_half_angle
    x0c = exterior_contact_point(geom, x_tilde)
    xi = (x_tilde - x0c) / np.linalg.norm(x_tilde - x0c)
    mu = chain_ratio(theta)
    n_balls = chain_ball_count(r, big_r, theta)
    c = math.sin(theta) / 3.0
    dists = (r / 2.0) * mu ** np.arange(n_balls + 1)
    centers = x_tilde[None, :] + dists[:, None] * xi[None, :]
    radii = c * dists
    chain = ConeChain(centers=centers, radii=radii, distances=dists,
                      ratio=mu, axis=xi, count=n_balls)
    dist_bnd = geom.distance_to_boundary(centers)
    outer_ok = np.linalg.norm(centers, axis=1) + 3.0 * radii <= big_r
    if np.any(dist_bnd <= 3.0 * radii) or not np.all(outer_ok):
        raise GeometryError("a chain ball B(x_k, 3ρ_k) exits the domain")
    return chain


# ---------------------------------------------------------------------------
# GA2: boundary-cap growth exponent
# ---------------------------------------------------------------------------

def check_GA2(geom: ObstacleGeometry, radii, seed: int = 0) -> tuple[float, float]:
    """Empirical (C, κ) with sup{|y − x̃| : y ∈ ∂D ∩ 𝓑(x̃,r)} <= C r^κ.

    For each of 8 boundary points x̃, drawn from the nodes of the order-96
    product rule, and each probe radius r the cap spread s(r) is computed on
    those nodes and the worst case over x̃ is kept; (C, κ) come from a
    least-squares fit of log s on log r.
    """
    radii = np.asarray(radii, dtype=float)
    if np.any(radii <= 0):
        raise ValueError("probe radii must be positive")
    rule = gauss_product_rule(96)
    bnd = geom.boundary_points(rule)
    rng = np.random.default_rng(seed)
    idx = rng.choice(bnd.shape[0], size=8, replace=False)
    spreads = np.zeros_like(radii)
    for i in idx:
        x_t = bnd[i]
        x0 = exterior_contact_point(geom, x_t)
        dist_to_center = np.linalg.norm(bnd - x0, axis=1)
        dist_to_xt = np.linalg.norm(bnd - x_t, axis=1)
        rho = geom.exterior_sphere_radius
        for j, r in enumerate(radii):
            in_cap = dist_to_center <= rho + r
            s_r = float(np.max(dist_to_xt[in_cap])) if np.any(in_cap) else 0.0
            spreads[j] = max(spreads[j], s_r)
    pos = spreads > 0
    if np.count_nonzero(pos) < 2:
        raise GeometryError("boundary grid too coarse for the GA2 probe radii")
    slope, intercept = np.polyfit(np.log(radii[pos]), np.log(spreads[pos]), 1)
    kappa = float(min(1.0, max(slope, 1e-12)))
    return float(np.exp(intercept)), kappa
