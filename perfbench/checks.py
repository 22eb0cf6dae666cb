"""Correctness checks on the files each CLI job writes.

Every check runs outside the timed region.  A check returns an error string,
or ``None`` when the job's output is correct.  Reference values that depend
only on a job's config (the Mie far field, the energy identity) are computed
once per config and reused on later passes.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from impscat import forward, geometry
from impscat.layer_ops import ImpedanceField
from impscat.specfun import gauss_product_rule

MIE_TOL = 1e-8
ENERGY_TOL = 1e-8
CHAIN_TOL = 1e-12


def _context(cfg) -> forward.WaveContext:
    omega = np.asarray(cfg.get("omega", [0.0, 0.0, 1.0]), dtype=float)
    return forward.WaveContext(k=float(cfg.get("k", 1.0)),
                               omega=omega / np.linalg.norm(omega))


def _read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Checker:
    """Checks job outputs; caches per-config references."""

    def __init__(self):
        self._reference = {}

    def check(self, subcommand: str, config_path: str, exit_code: int):
        with open(config_path) as fh:
            cfg = json.load(fh)
        if exit_code != 0:
            return f"exit code {exit_code}"
        with open(cfg["summary"]) as fh:
            summary = json.load(fh)
        handler = getattr(self, "_" + subcommand.replace("-", "_"))
        return handler(config_path, cfg, summary)

    def _cached(self, key, compute):
        if key not in self._reference:
            self._reference[key] = compute()
        return self._reference[key]

    def _farfield(self, key, cfg, summary):
        """Relative L² distance to the Mie series on the CSV's nodes."""
        rows = _read_csv(cfg["output"])
        rule = gauss_product_rule(int(cfg["band_limit"]))
        theta = np.array([float(r["theta"]) for r in rows])
        phi = np.array([float(r["phi"]) for r in rows])
        if theta.size != rule.npts or \
                np.max(np.abs(np.cos(theta) - rule.mu)) > 1e-12 or \
                np.max(np.abs(phi - rule.phi)) > 1e-12:
            return "far-field CSV nodes differ from the Gauss product rule"
        samples = np.array([float(r["re_uinf"]) + 1j * float(r["im_uinf"])
                            for r in rows])
        mie = self._cached(key, lambda: forward.mie_farfield(
            _context(cfg), float(cfg.get("radius", 1.0)),
            float(cfg["impedance"]), rule=rule))
        err = math.sqrt(float(np.real(rule.integrate(
            np.abs(samples - mie.samples) ** 2)))) / mie.norm()
        if not err <= MIE_TOL:
            return f"Mie relative L2 error {err:.3e} > {MIE_TOL:g}"
        return None

    def _stability_sweep(self, key, cfg, summary):
        """Dominance, δ nondecreasing in ε, energy identity at the largest ε."""
        if summary.get("dominated") is not True:
            return "sweep not dominated by its fitted curve"
        rows = sorted(_read_csv(cfg["output"]), key=lambda r: float(r["epsilon"]))
        deltas = [float(r["delta"]) for r in rows]
        if len(rows) != len(cfg["eps_list"]):
            return f"sweep CSV has {len(rows)} rows for {len(cfg['eps_list'])} eps"
        if any(b < a for a, b in zip(deltas, deltas[1:])):
            return f"delta decreases with epsilon: {deltas}"
        residual = self._cached(key, lambda: _energy_residual(cfg))
        if not residual <= ENERGY_TOL:
            return f"energy identity relative residual {residual:.3e} > {ENERGY_TOL:g}"
        return None

    def _carleman_check(self, key, cfg, summary):
        reports = summary["reports"]
        expected = 3 * int(cfg["suite_size"])
        if len(reports) != expected:
            return f"{len(reports)} Carleman reports, expected {expected}"
        failed = sum(1 for r in reports if not r["pass"])
        if failed or summary["all_pass"] is not True:
            return f"{failed} Carleman reports fail"
        return None

    def _three_sphere(self, key, cfg, summary):
        alpha, c = summary["alpha"], summary["C"]
        if summary["monotonicity_violations"] != 0:
            return f"{summary['monotonicity_violations']} monotonicity violations"
        if not (0.0 < alpha < 1.0 and isinstance(c, float) and math.isfinite(c)):
            return f"three-sphere fit alpha {alpha}, C {c}"
        return None

    def _chain(self, key, cfg, summary):
        expected = geometry.chain_ball_count(0.1, 8.0, math.pi / 6)
        if summary["count"] != expected:
            return f"chain has {summary['count']} balls, expected {expected}"
        if not summary["max_nesting_residual"] <= CHAIN_TOL:
            return f"nesting residual {summary['max_nesting_residual']:.3e}"
        if not summary["iteration_residual"] <= CHAIN_TOL:
            return f"exponent residual {summary['iteration_residual']:.3e}"
        return None


def _energy_residual(cfg) -> float:
    """Boundary energy identity for the largest-ε perturbed impedance.

    The residual Im ∫u ∂ν ū + ∫λ|u|² is relative to ∫|u|².  The rule order
    N + deg λ integrates λ|u|² exactly.
    """
    geom = geometry.ObstacleGeometry(radius=float(cfg.get("radius", 1.0)))
    coeffs = max(cfg["eps_list"]) * np.asarray(cfg["perturbation"], dtype=float)
    coeffs[0] += float(cfg["impedance"]) * math.sqrt(4.0 * math.pi)
    lam = ImpedanceField(coefficients=coeffs)
    ctx = _context(cfg)
    n = int(cfg["band_limit"])
    phi = forward.solve_density(ctx, geom, lam, None, n)
    rule = gauss_product_rule(n + lam.band_limit)
    u, dnu, rule = forward.boundary_traces(phi, ctx, geom, lam, rule=rule)
    residual = forward.energy_identity(geom, lam, u, dnu, rule)
    ds = geom.surface_element(rule.mu, rule.phi) * rule.weights
    return abs(residual) / float(np.sum(ds * np.abs(u) ** 2))
