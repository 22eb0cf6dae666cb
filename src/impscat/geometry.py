"""Obstacle geometry, geometric-assumption checks, and cone-ball chains.

The obstacle is the sphere of radius ``a``, the one shape whose layer
operators the solver diagonalizes.  The exterior domain must satisfy a
uniform exterior-sphere / interior-cone property (parameters ρ and θ); on
a sphere every 0 < ρ < a qualifies and ρ = a/2 is taken.  The boundary-cap
growth law 𝓑(x̃,r) ∩ ∂Ω ⊂ B(x̃, C r^κ) then has a closed form, the same at
every boundary point.

The cone-ball chain marches a sequence of balls B(x_k, ρ_k) from a boundary
point along the cone axis out to |x| ~ R/8 with geometric ratio
μ = (3 + 2 sinθ)/(3 + sinθ); it drives the propagation-of-smallness
lower bounds in :mod:`impscat.carleman`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class GeometryError(ValueError):
    """Raised when a geometric construction or containment check fails."""


def _norms(x) -> np.ndarray:
    """|x| of each row of x (n, 3), through hypot: ``np.linalg.norm`` squares
    the entries, which overflows from |x| ≈ 1.3e154 on."""
    x = np.atleast_2d(x)
    return np.hypot(np.hypot(x[:, 0], x[:, 1]), x[:, 2])


@dataclass(frozen=True)
class ObstacleGeometry:
    """Sphere with cone/exterior-ball data.

    Parameters
    ----------
    radius : float
        Sphere radius a > 0.
    cone_half_angle : float
        Interior-cone half angle θ, strictly inside (0, π/2).
    """

    radius: float = 1.0
    cone_half_angle: float = math.pi / 6.0

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise GeometryError(f"sphere radius must be positive and finite "
                                f"(radius = {self.radius})")
        if not 0.0 < self.cone_half_angle < math.pi / 2.0:
            raise GeometryError("cone half angle must lie strictly in (0, pi/2)")

    @property
    def exterior_sphere_radius(self) -> float:
        """Radius ρ = a/2 of the uniform exterior (into-the-obstacle) contact
        ball; any 0 < ρ < a touches the sphere at one point only."""
        return self.radius / 2.0

    def surface_element(self, mu, phi) -> np.ndarray:
        """ds/dΩ = a² at the directions (mu, phi)."""
        shape = np.broadcast(np.atleast_1d(mu), np.atleast_1d(phi)).shape
        return np.full(shape, self.radius * self.radius)

    def distance_to_boundary(self, x: np.ndarray) -> np.ndarray:
        """dist(x, ∂D) = ||x| − a|."""
        return np.abs(_norms(x) - self.radius)


# ---------------------------------------------------------------------------
# Exterior contact point (uniform exterior-sphere property)
# ---------------------------------------------------------------------------

def exterior_contact_point(geom: ObstacleGeometry, x_tilde: np.ndarray) -> np.ndarray:
    """Center x₀ = x̃(1 − ρ/a) of the contact ball B(x₀, ρ) touching ∂Ω only at x̃.

    x₀ = x̃ − ρ x̂ sits inside the obstacle.  Raises if x̃ is not on the sphere.
    """
    x_tilde = np.asarray(x_tilde, dtype=float)
    a = geom.radius
    if not abs(_norms(x_tilde)[0] - a) <= 1e-10 * max(1.0, a):
        raise GeometryError("point does not lie on the obstacle boundary")
    return x_tilde * (1.0 - geom.exterior_sphere_radius / a)


# ---------------------------------------------------------------------------
# Cone-ball chain
# ---------------------------------------------------------------------------

def chain_ratio(theta: float) -> float:
    """Geometric ratio μ = (3 + 2 sinθ)/(3 + sinθ) ∈ (1, 2)."""
    s = math.sin(theta)
    return (3.0 + 2.0 * s) / (3.0 + s)


def chain_ball_count(r: float, big_r: float, theta: float) -> int:
    """Number of chain steps N = [ln(R/4r) / ln μ] (integer part).  Raises
    ``OverflowError`` where R/4r leaves the float range."""
    if r <= 0:
        raise ValueError("r must be positive")
    if big_r < 4.0 * r:
        raise ValueError("need R >= 4r")
    span = big_r / (4.0 * r)
    if math.isinf(span):
        raise OverflowError(f"R/(4r) leaves the float range (R = {big_r}, r = {r})")
    ratio = math.log(span) / math.log(chain_ratio(theta))
    # guard against floating noise at exact-integer ratios
    return int(math.floor(ratio + 1e-12))


@dataclass(frozen=True)
class ConeChain:
    """Ball chain (x_k, ρ_k), k = 0..N, marching along the cone axis ξ; the
    distances d_k = 3ρ_k / sinθ grow by ``ratio`` μ per ball."""

    centers: np.ndarray
    radii: np.ndarray
    ratio: float

    @property
    def count(self) -> int:
        return len(self.radii) - 1  # N: the balls are k = 0..N

    def nesting_residuals(self) -> np.ndarray:
        """|x_{k+1} − x_k| + ρ_{k+1} − 2 ρ_k relative to |x_k| + |x_{k+1}| +
        ρ_{k+1} + 2 ρ_k, the size of its operands; nesting requires <= 0.
        An exactly nested chain reads as rounding, about 1e-16, at any scale."""
        norms = _norms(self.centers)
        steps = _norms(np.diff(self.centers, axis=0))
        inner, outer = self.radii[1:], 2.0 * self.radii[:-1]
        return (steps + inner - outer) / (norms[:-1] + norms[1:] + inner + outer)


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
    chain = ConeChain(centers=centers, radii=radii, ratio=mu)
    dist_bnd = geom.distance_to_boundary(centers)
    outer_ok = _norms(centers) + 3.0 * radii <= big_r
    if np.any(dist_bnd <= 3.0 * radii) or not np.all(outer_ok):
        raise GeometryError("a chain ball B(x_k, 3ρ_k) exits the domain")
    return chain


# ---------------------------------------------------------------------------
# GA2: boundary-cap growth exponent
# ---------------------------------------------------------------------------

def check_GA2(geom: ObstacleGeometry, radii) -> tuple[float, float]:
    """(C, κ) with sup{|y − x̃| : y ∈ ∂D ∩ 𝓑(x̃,r)} <= C r^κ.

    With x₀ the contact center, the cap spread s(r) = sup{|y − x̃| : y ∈ ∂D,
    |y − x₀| <= ρ + r} is the same at every x̃ of the sphere: s² =
    a((ρ + r)² − ρ²)/(a − ρ) = 2r(a + r) at ρ = a/2, until the cap is the
    whole sphere at r = 2(a − ρ) = a, and s = 2a beyond (the cap formula is
    evaluated at min(r, a), so that no probe radius overflows it).  (C, κ)
    come from a least-squares fit of log s on log r at the probe radii, which
    must be finite and positive, at least two of them distinct.
    """
    radii = np.asarray(radii, dtype=float)
    if not (np.all(np.isfinite(radii)) and np.all(radii > 0)
            and np.unique(radii).size >= 2):
        raise ValueError("probe radii must be finite and positive, at least two distinct")
    a = geom.radius
    cap = np.minimum(radii, a)
    spreads = np.where(radii < a, np.sqrt(2.0 * cap * (a + cap)), 2.0 * a)
    slope, intercept = np.polyfit(np.log(radii), np.log(spreads), 1)
    kappa = float(min(1.0, max(slope, 1e-12)))
    return float(np.exp(intercept)), kappa
