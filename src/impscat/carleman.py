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

The setup's node sets are shell rules (:class:`ShellRule`); ψ − ψ_ref takes
one value per shell: 48 in the volume and 2 on the boundary.  The relative
weights depend only on (λ, τ), not on v, so :func:`carleman_sides` computes
them per shell for every pair it is given.  Both node sets are whole shells
about x₀, so each side is a sum over the shells where some weight at some
pair is not exactly 0.0 of radial weight × 4π × the sphere means of v's
squares, which every family gives in closed form: no node is built.  At the
admissible thresholds that is the inner sphere alone, and every lhs is 0.0
relative to the common factor.

Test functions come as parameter families (:class:`PlaneWaves`,
:class:`Quadratics`): read-only records with one member per row and one
evaluator, ``sphere_means(center, radii, laplacian=False)``, which gives
the means of v², |∇v|² and, if asked, (Δv)² of every member over the
spheres |x − center| = s in closed form.  :func:`carleman_sides` and
:func:`three_sphere_check` integrate from those means alone; both take a
sequence of families and loop over families, never over members.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import exp, factorial, lgamma, log
from typing import NamedTuple

import numpy as np

from .specfun import QuadratureRule, _gauss_legendre, gauss_product_rule

_LOG_FLOAT_MAX = 709.0


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------

def _store(family, name: str, value, shape: tuple) -> np.ndarray:
    """Set ``family.name`` to a read-only float copy of ``value`` broadcast to
    ``shape``; ``ValueError`` unless it broadcasts and is finite."""
    what = f"{type(family).__name__} {name}"
    try:
        array = np.array(np.broadcast_to(np.asarray(value, dtype=float), shape))
    except ValueError:
        raise ValueError(f"{what} of shape {np.shape(value)} does not fit {shape}") from None
    if not np.isfinite(array).all():
        raise ValueError(f"{what} must be finite")
    array.setflags(write=False)
    object.__setattr__(family, name, array)
    return array


def _store_positions(family, size: int) -> None:
    """Make ``family.positions`` (None, or ``size`` integers) a read-only
    copy; :func:`_suite_positions` checks that they number a suite."""
    if family.positions is not None:
        positions = np.array(family.positions)
        if positions.shape != (size,) or positions.dtype.kind not in "iu":
            raise ValueError(f"{type(family).__name__} positions must be {size} integers")
        positions.setflags(write=False)
        object.__setattr__(family, "positions", positions)


@dataclass(frozen=True, eq=False)
class PlaneWaves:
    """The plane waves v = cos(k·x·d + c), one member per row of ``directions``
    (normalised on construction); ``k`` and ``phases`` are one value per
    member, or one for all.

    A test-function family is a read-only record of its members' parameters:
    it has ``size``, ``wavenumber`` (the largest k of an oscillation, 0.0 for
    polynomials), ``positions`` (the members' places in a suite, or None: see
    :func:`carleman_sides`) and ``sphere_means(center, radii,
    laplacian=False)``, which returns the means of v², |∇v|² and, if asked,
    (Δv)² over each sphere |x − center| = s of ``radii``, each of shape
    (size, len(radii)).
    """

    k: np.ndarray
    directions: np.ndarray
    phases: np.ndarray = 0.0
    positions: np.ndarray | None = None

    def __post_init__(self):
        d = np.atleast_2d(np.asarray(self.directions, dtype=float))
        if d.ndim != 2 or d.shape[1] != 3 or not len(d):
            raise ValueError(f"PlaneWaves directions of shape {d.shape} are not "
                             f"one or more 3-vectors")
        norm = np.linalg.norm(d, axis=1, keepdims=True)
        if not np.all(np.isfinite(norm) & (norm > 0)):
            raise ValueError("PlaneWaves directions must be finite and nonzero")
        _store(self, "directions", d / norm, d.shape)
        if np.any(_store(self, "k", self.k, (len(d),)) < 0):
            raise ValueError("PlaneWaves k must be nonnegative")
        _store(self, "phases", self.phases, (len(d),))
        _store_positions(self, len(d))

    @property
    def size(self) -> int:
        return len(self.k)

    @property
    def wavenumber(self) -> float:
        return float(np.max(self.k))

    def sphere_means(self, center: np.ndarray, radii: np.ndarray,
                     laplacian: bool = False) -> tuple:
        """With θ = k·x·d + c and θ_c its value at ``center``, the sphere mean
        of cos 2θ is cos 2θ_c·j₀(2ks) (Funk–Hecke), j₀(z) = sin z / z and
        j₀(0) = 1.  So v² = cos²θ has the mean cos²θ_c·j₀ + ½(1 − j₀),
        |∇v|² = k² sin²θ the mean k²(sin²θ_c·j₀ + ½(1 − j₀)), and
        (Δv)² = k⁴v².  In these forms no term cancels: 1 − j₀ comes from its
        series where it is small (:func:`_one_minus_j0`)."""
        k = self.k[:, None]
        theta = (self.k * (self.directions @ center) + self.phases)[:, None]
        z = 2.0 * k * radii
        j0, gap = np.sinc(z / np.pi), 0.5 * _one_minus_j0(z)
        v2 = np.cos(theta)**2 * j0 + gap
        g2 = k**2 * (np.sin(theta)**2 * j0 + gap)
        return (v2, g2, k**4 * v2) if laplacian else (v2, g2)


# 1 − j₀(z) = Σ_{m >= 1} (−1)^{m+1} z^{2m}/(2m + 1)!, highest power first for
# np.polyval in z²: below z = 1 the first term left out is under 1e-18 of the sum
_ONE_MINUS_J0 = [(-1.0)**(m + 1) / factorial(2 * m + 1) for m in range(9, 0, -1)] + [0.0]


def _one_minus_j0(z: np.ndarray) -> np.ndarray:
    """1 − sin z / z, by its series below z = 1, where the difference would
    cancel, and directly above (where z is its own divisor: the max keeps the
    unused branch's 0/0 out)."""
    return np.where(z < 1.0, np.polyval(_ONE_MINUS_J0, z * z),
                    1.0 - np.sin(z) / np.maximum(z, 1.0))


@dataclass(frozen=True, eq=False)
class Quadratics:
    """The quadratics v = const + b·x + x·A·x, one member per matrix of
    ``quad`` (A, symmetrised on construction); ``const`` and ``linear`` (b) are
    one value per member, or one for all.  A family as :class:`PlaneWaves`
    describes, of wavenumber 0.0."""

    const: np.ndarray
    linear: np.ndarray
    quad: np.ndarray
    positions: np.ndarray | None = None

    def __post_init__(self):
        a = np.asarray(self.quad, dtype=float)
        a = a[None] if a.ndim == 2 else a
        if a.ndim != 3 or a.shape[1:] != (3, 3) or not len(a):
            raise ValueError(f"Quadratics quad of shape {a.shape} is not one or more "
                             f"3×3 matrices")
        _store(self, "quad", 0.5 * (a + a.transpose(0, 2, 1)), a.shape)
        _store(self, "const", self.const, (len(a),))
        _store(self, "linear", self.linear, (len(a), 3))
        _store_positions(self, len(a))

    @property
    def size(self) -> int:
        return len(self.const)

    wavenumber = 0.0

    def sphere_means(self, center: np.ndarray, radii: np.ndarray,
                     laplacian: bool = False) -> tuple:
        """From the isotropic moments of the unit sphere, with c′ = v(center) and
        g = b + 2A·center: mean v² = c′² + s²(|g|² + 2c′ tr A)/3 + s⁴((tr A)² +
        2 tr A²)/15, mean |∇v|² = |g|² + (4/3)s² tr A² and (Δv)² = (2 tr A)²."""
        a_center = self.quad @ center
        c = (self.const + self.linear @ center + a_center @ center)[:, None]
        g = self.linear + 2.0 * a_center
        g2 = np.einsum("mc,mc->m", g, g)[:, None]
        trace = np.trace(self.quad, axis1=1, axis2=2)[:, None]
        trace_sq = np.einsum("mij,mij->m", self.quad, self.quad)[:, None]  # tr A², A symmetric
        s2 = radii**2
        v2 = c * c + s2 * ((g2 + 2.0 * c * trace) / 3.0 + s2 * (trace**2 + 2.0 * trace_sq) / 15.0)
        grad2 = g2 + (4.0 / 3.0) * s2 * trace_sq
        if not laplacian:
            return v2, grad2
        return v2, grad2, np.broadcast_to((2.0 * trace)**2, v2.shape)


def random_test_suite(size: int, seed: int = 0) -> list:
    """Mixed suite of plane waves (k uniform in [0.5, 4]) and quadratic
    polynomials: member i is the i-th seeded draw, a plane wave for even i.
    Returned as a :class:`PlaneWaves` and a :class:`Quadratics` family that
    carry those positions; a family with no member is left out."""
    rng = np.random.default_rng(seed)
    waves, quadratics = [], []
    for i in range(size):
        if i % 2 == 0:
            waves.append((rng.uniform(0.5, 4.0), rng.normal(size=3),
                          rng.uniform(0, 2 * np.pi)))
        else:
            quadratics.append((rng.normal(), rng.normal(size=3), rng.normal(size=(3, 3))))
    return [family(*map(np.array, zip(*members)), positions=np.arange(first, size, 2))
            for family, members, first in ((PlaneWaves, waves, 0), (Quadratics, quadratics, 1))
            if members]


def _suite_positions(suite) -> list:
    """The suite position of each member of each family of ``suite``: the
    family's ``positions`` where it carries them, else the next ``size``
    places after the members before it.  ``ValueError`` unless they number
    the members 0, 1, ..., n − 1 once each."""
    out, start = [], 0
    for family in suite:
        out.append(np.arange(start, start + family.size) if family.positions is None
                   else family.positions)
        start += family.size
    if not np.array_equal(np.sort(np.concatenate([np.empty(0, int)] + out)), np.arange(start)):
        raise ValueError("the families' member positions must number the suite's "
                         "members 0, 1, ..., n - 1 once each")
    return out


def _shell_sums(suite, center: np.ndarray, radii: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(T, R, members): rows[t] @ (4π × the mean of the t-th square over the
    sphere |x − center| = s of each of ``radii``)ᵀ for every member of the
    families of ``suite``, in suite order, from each family's
    ``sphere_means``: a shell rule's sum with its radial weights in rows,
    exact in the sphere and with no node built.  rows has shape (T, R,
    len(radii)), T = 3 asking for (Δv)²; no radius evaluates nothing."""
    positions = _suite_positions(suite)
    out = np.zeros((len(rows), rows.shape[1], sum(map(len, positions))))
    if len(radii):
        for family, columns in zip(suite, positions):
            means = family.sphere_means(center, radii, len(rows) == 3)
            for total, row, mean in zip(out, rows, means):
                total[:, columns] = row @ (4.0 * np.pi * mean).T
    return out


# ---------------------------------------------------------------------------
# Carleman setup on an annulus
# ---------------------------------------------------------------------------

class ShellRule(NamedTuple):
    """A rule about ``center`` in shells: shell s is the ``sphere`` rule scaled
    to radius ``radii[s]``, its weights times ``radial[s]`` (a radial weight
    times r²).  A family's sphere means integrate over it with no node
    (:func:`_shell_sums`)."""

    center: np.ndarray
    radii: np.ndarray
    radial: np.ndarray
    sphere: QuadratureRule

    @property
    def size(self) -> int:
        return self.radii.size * self.sphere.npts


def _radial_rule(center, inner: float, width: float, n_radial: int,
                 sphere_order: int) -> ShellRule:
    """The rule over {inner < |x − center| < inner + width}: radial
    Gauss-Legendre (with the r² Jacobian) times the sphere product rule;
    ``inner = 0`` gives a ball."""
    t, wt = _gauss_legendre(n_radial)
    s = inner + 0.5 * width * (t + 1.0)
    return ShellRule(np.asarray(center, dtype=float), s, 0.5 * width * wt * s**2,
                     gauss_product_rule(sphere_order))


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
    (order 24 on both spheres) are shell rules, with ψ − ψ_ref = 2 ln(ρ/r)
    ≤ 0 on the shell of radius r: exactly 0 on the inner sphere.
    """

    x0: np.ndarray
    rho: float
    d: float
    m: float = field(init=False)
    M: float = field(init=False)
    lambda_threshold: float = field(init=False)
    tau_threshold: float = field(init=False)
    volume: ShellRule = field(init=False, repr=False, compare=False)
    boundary: ShellRule = field(init=False, repr=False, compare=False)
    _weights: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        named = f"(rho = {self.rho}, d = {self.d})"
        if not (np.isfinite(self.rho) and np.isfinite(self.d) and self.rho > 0 and self.d > 0):
            raise ValueError(f"annulus radii must be positive and finite {named}")
        x0 = np.array(self.x0, dtype=float)  # a copy: the caller's array stays writeable
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

        radii = np.array([self.rho, self.rho + self.d])
        object.__setattr__(self, "volume", _radial_rule(x0, self.rho, self.d, 48, 16))
        object.__setattr__(self, "boundary",
                           ShellRule(x0, radii, radii**2, gauss_product_rule(24)))

    def _shell_weights(self, pairs) -> tuple:
        """((rule, rel) of ``volume``, (rule, rel) of ``boundary``): rel[i, j, s]
        is e^{E} for the set's i-th power of φ at ``pairs[j]``
        (:func:`_relative_exponents`) on shell s, with ψ − ψ_ref = 2 ln(ρ/r)
        from the shell radius r: |x − x₀| may round an inner-sphere node
        outside radius ρ.

        The weights of the most recent ``pairs`` are kept, read-only, so that
        a second call at the same pairs (a job's node counts after its
        :func:`carleman_sides`) computes none."""
        key = tuple(map(tuple, np.asarray(pairs, dtype=float).tolist()))
        held = self._weights.get("recent")
        if held is None or held[0] != key:
            sets = []
            for rule, powers in ((self.volume, _VOLUME_POWERS),
                                 (self.boundary, _BOUNDARY_POWERS)):
                dpsi = 2.0 * np.log(self.rho / rule.radii)
                rel = np.stack([np.exp(_relative_exponents(dpsi, lam, tau, self.psi_ref, powers))
                                for lam, tau in key], axis=1)
                rel.setflags(write=False)
                sets.append((rule, rel))
            held = self._weights["recent"] = (key, tuple(sets))
        return held[1]

    @property
    def psi_ref(self) -> float:
        """Max of ψ on the closed annulus (at the inner radius)."""
        return 2.0 * np.log((self.rho + self.d) / self.rho)


@dataclass(frozen=True)
class CarlemanResult:
    """Both sides of the weighted inequality in the common factored scale."""

    lhs_factored: float
    rhs_factored: float

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


def _require_finite(pairs, values: np.ndarray, what: str) -> None:
    """Raise ``OverflowError`` at the first pair (λ, τ) whose row of
    ``values`` is not finite."""
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        lam, tau = pairs[int(np.argmax(bad))]
        raise OverflowError(f"a Carleman {what} leaves the float range at "
                            f"lam = {lam:.6g}, tau = {tau:.6g}")


def carleman_sides(suite, setup: CarlemanSetup, pairs) -> list:
    """Evaluate both sides of the annulus Carleman inequality for every member
    of the test-function families of ``suite`` at every weight pair (λ, τ) of
    ``pairs``.

    lhs = ∫ e^{2τφ}(m⁴λ⁴τ³φ³v² + m²λ²τφ|∇v|²)
    rhs = 8∫ e^{2τφ}(Δv)² + 48∫_Γ e^{2τφ}(M³λ³τ³φ³v² + Mλτφ|∇v|²)

    with φ = e^{λψ}, integrated over the setup's node sets; both sides are
    divided by the common factor exp(2τφ_ref + 3λψ_ref).  Returns one list of
    :class:`CarlemanResult` per pair, in suite order: a family's members sit
    at its ``positions``, or, where it carries none, right after the members
    of the families before it (:func:`random_test_suite`'s two families
    interleave).

    Every pair is checked before any v is evaluated, and so is every
    coefficient: ``OverflowError`` names the first (λ, τ) where a coefficient,
    or afterwards a side, is not a finite float.  No pair gives no list and
    checks nothing.  The weights are built per shell
    (:meth:`CarlemanSetup._shell_weights`).  Both node sets are whole shells
    about x₀, so each family is asked once per set for its ``sphere_means``
    at the radii of the shells where some pair's weight is not 0.0, and those
    are reduced at once against every pair's weight row (:func:`_shell_sums`):
    no node is built.  (Δv)² is asked for on the volume set alone, and a set
    with no such shell is not evaluated at all.
    """
    pairs, suite = list(pairs), list(suite)
    if not pairs:
        return []
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
    # rows[i, j, s]: coefficients[j, i] × relative weight × radial weight on
    # shell s; lhs and rhs are sums of rows against v's sphere means
    sums = []
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite side raises below
        for (rule, rel), terms in zip(setup._shell_weights(pairs), (slice(3), slice(3, 5))):
            keep = np.any(rel != 0.0, axis=(0, 1))
            rows = coefficients.T[terms, :, None] * rel[..., keep] * rule.radial[keep]
            sums.append(_shell_sums(suite, rule.center, rule.radii[keep], rows))
        (v2, g2, l2), (b2, bg2) = sums
        lhs, rhs = v2 + g2, l2 + (b2 + bg2)
    _require_finite(pairs, np.hstack((lhs, rhs)), "side")
    return [[CarlemanResult(lhs_factored=left, rhs_factored=right)
             for left, right in zip(lhs[j].tolist(), rhs[j].tolist())]
            for j in range(len(pairs))]


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


# ---------------------------------------------------------------------------
# Three-sphere inequality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThreeSphereFit:
    alpha: float
    C: float
    norms: np.ndarray

    @property
    def alpha_fitted(self) -> bool:
        """Whether α came from the regression: False where the members'
        ln(n₁/n₃) do not spread (variance <= 1e-20), and α is the fallback
        0.5 (at k = 1 every unit plane wave has the same ball norms)."""
        return _alpha_fittable(self.norms)

    @property
    def monotonicity_violations(self) -> int:
        n = self.norms
        return int(np.sum((n[:, 0] > n[:, 1] * (1 + 1e-12))
                          | (n[:, 1] > n[:, 2] * (1 + 1e-12))))


# The rule of each three-sphere ball: 32 radial Gauss nodes × the order-14
# sphere rule.  Its sphere part is integrated exactly, from the sphere means,
# but the resolution bound (:func:`_resolved_kr`) still counts the order-14
# rule's, so the set of refused (k, r) has not changed.
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


def three_sphere_check(families, y, r: float) -> ThreeSphereFit:
    """Fit the largest exponent α̂ with a single constant across the members
    of the test-function families ``families``.

    For each u the three H¹ ball norms (n₁, n₂, n₃) at radii (r, 2r, 3r)
    must satisfy r·n₂ ≤ C·n₁^α n₃^{1−α}; α̂ comes from the log-log
    regression of ln(r n₂/n₃) on ln(n₁/n₃) and C is then the smallest
    constant making the inequality hold for every member.  Where ln(n₁/n₃)
    does not spread over the members there is no slope to fit: α̂ is 0.5,
    and the fit's ``alpha_fitted`` is False.  The fit's ``norms`` has one
    row per member, in suite order (as :func:`carleman_sides` orders them).
    Each ball is a shell rule about y, integrated from the families' sphere
    means (:func:`_shell_sums`) with no node built.
    Raises ``ValueError`` unless there are at least two members, r is
    positive and finite and the ball rules resolve
    the family's largest wavenumber k on the largest ball (k·3r at most
    :func:`_resolved_kr`), and ``RuntimeError`` if a ball norm is zero or not
    finite (a zero member, or an r so small that the ball weights underflow
    or so large that they overflow), since the fit takes logarithms of their
    ratios.  Past that, it raises ``ValueError`` if the center y is so far
    out that its rounding is not small on the ball's scale (max|y_i|·2⁻⁵² >
    1e-8·r): the sphere means start from y, so a plane wave's phase k·d·y,
    and a quadratic's value at y, would round by more than 1e-8 of their
    change across the ball.
    """
    families = list(families)
    if sum(family.size for family in families) < 2:
        raise ValueError("family must have at least two members")
    if not (np.isfinite(r) and r > 0):
        raise ValueError(f"ball radius must be positive and finite (r = {r})")
    kr = max(family.wavenumber for family in families) * 3.0 * r
    resolved = _resolved_kr(_BALL_RADIAL_NODES, _BALL_SPHERE_ORDER)
    if kr > resolved:
        raise ValueError(f"k*3r = {kr:.6g} exceeds {resolved:.4g}, the largest the "
                         f"ball rules resolve")
    y = np.asarray(y, dtype=float)
    # an overflow here is a non-finite norm, raised below
    with np.errstate(over="ignore", invalid="ignore"):
        balls = [_radial_rule(y, 0.0, f * r, _BALL_RADIAL_NODES, _BALL_SPHERE_ORDER)
                 for f in (1.0, 2.0, 3.0)]
        norms = np.sqrt(np.array([
            _shell_sums(families, ball.center, ball.radii,
                        np.broadcast_to(ball.radial, (2, 1, ball.radii.size))).sum(axis=(0, 1))
            for ball in balls]).T)
    if not np.all(np.isfinite(norms) & (norms > 0)):
        raise RuntimeError(f"a ball norm is zero or not finite at r = {r}")
    if not np.max(np.abs(y)) * 2.0**-52 <= 1e-8 * r:
        raise ValueError(f"center {y.tolist()} is too far out for ball radius r = {r}: "
                         f"a plane wave's phase k*d*y and a quadratic's value at y "
                         f"round by more than 1e-8 of their change across the ball")
    if np.any(norms[:, 0] > norms[:, 1] * (1 + 1e-12)) or \
       np.any(norms[:, 1] > norms[:, 2] * (1 + 1e-12)):
        raise RuntimeError("ball-norm monotonicity violated; quadrature suspect")
    xs = np.log(norms[:, 0] / norms[:, 2])
    ys = np.log(r * norms[:, 1] / norms[:, 2])
    if _alpha_fittable(norms):
        alpha = float(np.cov(xs, ys, bias=True)[0, 1] / np.var(xs))
    else:
        alpha = 0.5
    alpha = float(np.clip(alpha, 0.05, 0.95))
    log_c = float(np.max(ys - alpha * xs))
    return ThreeSphereFit(alpha=alpha, C=float(np.exp(log_c)), norms=norms)


def _alpha_fittable(norms: np.ndarray) -> bool:
    """Whether ln(n₁/n₃), the regressor of the fit, spreads over the members
    (variance > 1e-20), so that a slope can be fitted."""
    return float(np.var(np.log(norms[:, 0] / norms[:, 2]))) > 1e-20


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
