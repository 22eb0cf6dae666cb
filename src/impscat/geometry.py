"""Obstacle geometry, geometric-assumption checks, and cone-ball chains.

The obstacle is either a sphere of radius ``a`` or a radially perturbed
sphere r(x̂) = a + Σ c_j B_j(x̂) in real orthonormal harmonics.  The exterior
domain must satisfy a uniform exterior-sphere / interior-cone property
(parameters ρ and θ); on top of it a boundary-cap growth law
𝓑(x̃,r) ∩ ∂Ω ⊂ B(x̃, C r^κ) is probed empirically.

The cone-ball chain marches a sequence of balls B(x_k, ρ_k) from a boundary
point along the cone axis out to |x| ~ R/8 with geometric ratio
μ = (3 + 2 sinθ)/(3 + sinθ); it drives the propagation-of-smallness
lower bounds in :mod:`impscat.carleman`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .specfun import (
    QuadratureRule,
    gauss_product_rule,
    harmonic_degrees,
    real_sph_harmonic_all,
    sph_harmonic_all,
    sph_harmonic_all_dtheta,
    to_real_basis,
)


class GeometryError(ValueError):
    """Raised when a geometric construction or containment check fails."""


@dataclass(frozen=True)
class ObstacleGeometry:
    """Sphere or radially perturbed sphere with cone/exterior-ball data.

    Parameters
    ----------
    radius : float
        Base sphere radius a > 0.
    perturbation : ndarray or None
        Real harmonic coefficients of the radial perturbation (flat
        degree-major indexing); None or empty means an exact sphere.
    exterior_sphere_radius : float
        Radius ρ of the uniform exterior (into-the-obstacle) contact ball.
    cone_half_angle : float
        Interior-cone half angle θ, strictly inside (0, π/2).
    """

    radius: float = 1.0
    perturbation: np.ndarray | None = None
    exterior_sphere_radius: float = 0.5
    cone_half_angle: float = math.pi / 6.0

    def __post_init__(self):
        if self.radius <= 0:
            raise GeometryError("sphere radius must be positive")
        if not 0.0 < self.cone_half_angle < math.pi / 2.0:
            raise GeometryError("cone half angle must lie strictly in (0, pi/2)")
        if self.exterior_sphere_radius <= 0:
            raise GeometryError("exterior sphere radius must be positive")
        if self.perturbation is not None:
            pert = np.asarray(self.perturbation, dtype=float)
            object.__setattr__(self, "perturbation", pert)
            pert.setflags(write=False)
            rule = gauss_product_rule(max(16, 2 * self._pert_band()))
            if np.any(self.boundary_radius(rule.mu, rule.phi) <= 0):
                raise GeometryError("perturbed radius must stay positive")

    def _pert_band(self) -> int:
        if self.perturbation is None or self.perturbation.size == 0:
            return 0
        return int(math.isqrt(self.perturbation.size - 1))

    @property
    def is_sphere(self) -> bool:
        return self.perturbation is None or not np.any(self.perturbation)

    @property
    def kind(self) -> str:
        return "sphere" if self.is_sphere else "perturbed_sphere"

    # -- boundary parametrization ------------------------------------------

    def boundary_radius(self, mu, phi) -> np.ndarray:
        r = np.full(np.broadcast(np.atleast_1d(mu), np.atleast_1d(phi)).shape,
                    self.radius)
        if not self.is_sphere:
            basis = real_sph_harmonic_all(self._pert_band(), mu, phi)
            r = r + self.perturbation @ basis
        return r

    def boundary_points(self, rule: QuadratureRule) -> np.ndarray:
        """Boundary nodes x = r(x̂) x̂ on a quadrature grid, shape (npts, 3)."""
        return rule.points() * self.boundary_radius(rule.mu, rule.phi)[:, None]

    def outward_normal(self, mu, phi) -> np.ndarray:
        """Unit normal pointing from the obstacle into the exterior domain."""
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        sin_t = np.sqrt(np.maximum(0.0, 1.0 - mu * mu))
        rhat = np.column_stack((sin_t * np.cos(phi), sin_t * np.sin(phi), mu))
        if self.is_sphere:
            return rhat
        nb = self._pert_band()
        r = self.boundary_radius(mu, phi)
        dr_dtheta = self.perturbation @ _real_harmonic_dtheta(nb, mu, phi)
        dr_dphi = self.perturbation @ _real_harmonic_dphi(nb, mu, phi)
        that = np.column_stack((mu * np.cos(phi), mu * np.sin(phi), -sin_t))
        phat = np.column_stack((-np.sin(phi), np.cos(phi), np.zeros_like(phi)))
        nvec = rhat - (dr_dtheta / r)[:, None] * that \
            - (dr_dphi / (r * sin_t))[:, None] * phat
        return nvec / np.linalg.norm(nvec, axis=1, keepdims=True)

    def surface_element(self, mu, phi) -> np.ndarray:
        """ds/dΩ: Jacobian of the radial graph against the unit sphere."""
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        r = self.boundary_radius(mu, phi)
        if self.is_sphere:
            return r * r
        nb = self._pert_band()
        sin_t = np.sqrt(np.maximum(0.0, 1.0 - mu * mu))
        dr_dtheta = self.perturbation @ _real_harmonic_dtheta(nb, mu, phi)
        dr_dphi = self.perturbation @ _real_harmonic_dphi(nb, mu, phi)
        return r * np.sqrt(r * r + dr_dtheta**2 + (dr_dphi / sin_t) ** 2)

    def contains(self, x: np.ndarray) -> np.ndarray:
        """True where points lie strictly inside the obstacle."""
        x = np.atleast_2d(x)
        s = np.linalg.norm(x, axis=1)
        mu = np.divide(x[:, 2], s, out=np.ones_like(s), where=s > 0)
        phi = np.arctan2(x[:, 1], x[:, 0])
        return s < self.boundary_radius(np.clip(mu, -1, 1), phi)

    def diameter(self, rule: QuadratureRule | None = None) -> float:
        if self.is_sphere:
            return 2.0 * self.radius
        rule = rule or gauss_product_rule(4 * max(1, self._pert_band()))
        return 2.0 * float(np.max(self.boundary_radius(rule.mu, rule.phi)))

    def distance_to_boundary(self, x: np.ndarray,
                             rule: QuadratureRule | None = None) -> np.ndarray:
        """dist(x, ∂D), by dense sampling for perturbed spheres."""
        x = np.atleast_2d(x)
        if self.is_sphere:
            return np.abs(np.linalg.norm(x, axis=1) - self.radius)
        rule = rule or gauss_product_rule(4 * max(4, self._pert_band()))
        bnd = self.boundary_points(rule)
        return np.min(np.linalg.norm(x[:, None, :] - bnd[None, :, :], axis=2), axis=1)


def _real_harmonic_dtheta(band_limit: int, mu, phi) -> np.ndarray:
    return to_real_basis(band_limit, sph_harmonic_all_dtheta(band_limit, mu, phi))


def _real_harmonic_dphi(band_limit: int, mu, phi) -> np.ndarray:
    y = sph_harmonic_all(band_limit, mu, phi)
    degs = harmonic_degrees(band_limit)
    orders = np.arange(y.shape[0]) - degs * (degs + 1)
    return to_real_basis(band_limit, 1j * orders[:, None] * y)


# ---------------------------------------------------------------------------
# Exterior contact point (uniform exterior-sphere property)
# ---------------------------------------------------------------------------

def exterior_contact_point(geom: ObstacleGeometry, x_tilde: np.ndarray,
                           n_check: int = 64) -> np.ndarray:
    """Center x₀ of the contact ball B(x₀, ρ) touching ∂Ω only at x̃.

    x₀ = x̃ − ρ ν(x̃) with ν the obstacle-outward normal, so the ball sits
    inside the obstacle.  Contact is verified by dense boundary sampling.
    """
    x_tilde = np.asarray(x_tilde, dtype=float)
    s = np.linalg.norm(x_tilde)
    mu = np.clip(x_tilde[2] / s, -1.0, 1.0)
    phi = math.atan2(x_tilde[1], x_tilde[0])
    r_here = float(geom.boundary_radius(mu, phi)[0])
    if abs(s - r_here) > 1e-10 * max(1.0, r_here):
        raise GeometryError("point does not lie on the obstacle boundary")
    rho = geom.exterior_sphere_radius
    nu = geom.outward_normal(mu, phi)[0]
    x0 = x_tilde - rho * nu
    rule = gauss_product_rule(n_check)
    bnd = geom.boundary_points(rule)
    dists = np.linalg.norm(bnd - x0, axis=1)
    near = dists < rho * (1.0 - 1e-9)
    if np.any(near):
        far_from_contact = np.linalg.norm(bnd[near] - x_tilde, axis=1) > 1e-6
        if np.any(far_from_contact):
            raise GeometryError(
                "contact ball intersects the boundary away from the contact point"
            )
    return x0


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
    if big_r <= 4.0 * geom.diameter() / 2.0:
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
        x0 = exterior_contact_point(geom, x_t, n_check=96)
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
