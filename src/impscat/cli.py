"""Command-line entry point: batch jobs, JSON configs, CSV/JSON outputs.

One subcommand per job type.  Every subcommand takes the same arguments:
a JSON config file plus repeated ``--set key=value`` overrides.  All
outputs are written atomically (temp file in the target directory, then
rename); every JSON summary embeds the fully resolved config.  Exit codes:
0 success, 1 configuration/validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import carleman, forward, geometry, layer_ops, stability
from .specfun import gauss_product_rule

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2

# upper limit of suite_size and family_size: every member is built before
# any check runs
MAX_SUITE_SIZE = 10_000


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

DEFAULTS = {
    "k": 1.0,
    "omega": [0.0, 0.0, 1.0],
    "radius": 1.0,
    "impedance": 1.0,
    "band_limit": 24,
    "seed": 0,
    "output": None,
}


def load_config(path: str, overrides) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    merged = dict(DEFAULTS)
    merged.update(cfg)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, raw = item.split("=", 1)
        try:
            merged[key] = json.loads(raw)
        except json.JSONDecodeError:
            merged[key] = raw
    return merged


def _is_number(value, integer: bool = False) -> bool:
    """An int (or, unless ``integer``, a float); JSON ``true``/``false`` load
    as bool, a subclass of int, and are not numbers."""
    kinds = int if integer else (int, float)
    return isinstance(value, kinds) and not isinstance(value, bool)


def _is_number_list(value) -> bool:
    return isinstance(value, list) and all(_is_number(v) for v in value)


def _get(cfg: dict, key: str, default, integer: bool = False):
    """Subcommand key ``key``; an absent key takes ``default``, stored in
    ``cfg`` so the summary embeds it.  If the default is a number, so must
    the value be (an int if ``integer``); if a list, a list of numbers.  A
    float, alone or in the list, must be finite; an int of any size passes."""
    value = cfg.setdefault(key, default)
    if _is_number(default) and not _is_number(value, integer):
        raise ConfigError(f"{key} must be {'an integer' if integer else 'a number'}")
    if isinstance(default, list) and not _is_number_list(value):
        raise ConfigError(f"{key} must be a list of numbers")
    entries = value if isinstance(value, list) else [value]
    if not all(math.isfinite(v) for v in entries if isinstance(v, float)):
        raise ConfigError(f"{key} must be finite ({key} = {value})")
    return value


def _get_point(cfg: dict, key: str, default: list) -> np.ndarray:
    """List key ``key`` of 3 numbers, as a point."""
    value = _get(cfg, key, default)
    if len(value) != 3:
        raise ConfigError(f"{key} must be a list of 3 numbers ({key} = {value})")
    return np.asarray(value, dtype=float)


def _get_size(cfg: dict, key: str, default: int, least: int) -> int:
    """Integer key ``key`` in [least, MAX_SUITE_SIZE]."""
    value = _get(cfg, key, default, integer=True)
    if not least <= value <= MAX_SUITE_SIZE:
        raise ConfigError(f"{key} must be an integer in [{least}, {MAX_SUITE_SIZE}]")
    return value


def validate_common(cfg: dict) -> list:
    problems = []
    if not (_is_number(cfg["k"]) and cfg["k"] > 0 and math.isfinite(cfg["k"])):
        problems.append("k must be a positive finite number")
    om = np.asarray(cfg["omega"] if _is_number_list(cfg["omega"]) else [], dtype=float)
    if om.shape != (3,) or not abs(np.linalg.norm(om) - 1.0) <= 1e-9:
        problems.append("omega must be a 3-vector of unit length")
    if not (_is_number(cfg["radius"]) and cfg["radius"] > 0):
        problems.append("radius must be positive")
    if not (_is_number(cfg["band_limit"], integer=True) and cfg["band_limit"] >= 1):
        problems.append("band_limit must be an integer >= 1")
    imp = cfg["impedance"]
    if _is_number(imp):
        if not (np.isfinite(float(imp)) and imp >= 0):
            problems.append("impedance must be finite and nonnegative")
    elif not _is_number_list(imp):
        problems.append("impedance must be a number or a coefficient list")
    if not _is_number(cfg.get("seed", 0), integer=True):
        problems.append("seed must be an integer")
    if not all(isinstance(cfg.get(key), (str, type(None))) for key in ("output", "summary")):
        problems.append("output and summary must each be null or a path")
    elif cfg.get("output") and cfg.get("summary") and (
            os.path.realpath(cfg["output"]) == os.path.realpath(cfg["summary"])):
        problems.append("output and summary must be different files")
    return problems


def build_impedance(cfg: dict) -> layer_ops.ImpedanceField:
    imp = cfg["impedance"]
    if _is_number(imp):
        return layer_ops.ImpedanceField.constant(float(imp))
    return layer_ops.ImpedanceField(coefficients=np.asarray(imp, dtype=float),
                                    bound=np.inf)


def build_context(cfg: dict) -> forward.WaveContext:
    om = np.asarray(cfg["omega"], dtype=float)
    return forward.WaveContext(k=float(cfg["k"]), omega=om / np.linalg.norm(om))


def build_geometry(cfg: dict) -> geometry.ObstacleGeometry:
    return geometry.ObstacleGeometry(radius=float(cfg["radius"]))


# ---------------------------------------------------------------------------
# Atomic writers
# ---------------------------------------------------------------------------

def atomic_write_text(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def farfield_csv(ff: forward.FarField) -> str:
    """One ``theta,phi,re_uinf,im_uinf`` row per node, in the rule's
    ring-major order, every float as ``%.17g``.  θ takes one value per ring
    and φ one per azimuth, so each is formatted once and only the samples
    are formatted per row."""
    rule = ff.rule
    theta = np.arccos(np.clip(rule.mu[::rule.azimuths], -1.0, 1.0))
    rings = ["%.17g," % t for t in theta.tolist()]
    azimuths = ["%.17g," % p for p in rule.phi[:rule.azimuths].tolist()]
    prefixes = [t + p for t in rings for p in azimuths]
    rows = zip(prefixes, ff.samples.real.tolist(), ff.samples.imag.tolist())
    return "theta,phi,re_uinf,im_uinf\n" + "".join(
        "%s%.17g,%.17g\n" % row for row in rows)


def sweep_csv(sweep: stability.StabilitySweep) -> str:
    fit = (sweep.c_fit, sweep.sigma_fit)
    return "epsilon,delta,dsup,bound,C_fit,sigma_fit\n" + "".join(
        "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n" % (r.epsilon, r.delta, r.dsup, r.bound, *fit)
        for r in sweep.records)


def emit_summary(cfg: dict, payload: dict):
    record = {"config": _jsonable(cfg), **_jsonable(payload)}
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if cfg.get("summary"):
        atomic_write_text(cfg["summary"], text)
    else:
        sys.stdout.write(text)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return str(obj)
    return obj


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def cmd_forward(cfg: dict) -> int:
    ctx = build_context(cfg)
    geom = build_geometry(cfg)
    lam = build_impedance(cfg)
    phi = forward.solve_density(ctx, geom, lam, band_limit=cfg["band_limit"])
    emit_summary(cfg, {
        "density_norm": float(np.linalg.norm(phi.coeffs)),
        "tail_fraction": phi.tail_fraction(),
    })
    return EXIT_OK


def cmd_farfield(cfg: dict) -> int:
    ctx = build_context(cfg)
    geom = build_geometry(cfg)
    lam = build_impedance(cfg)
    ff = forward.solve_farfield(ctx, geom, lam, cfg["band_limit"])
    if cfg.get("output"):
        atomic_write_text(cfg["output"], farfield_csv(ff))
    emit_summary(cfg, {"farfield_l2_norm": ff.norm()})
    return EXIT_OK


def cmd_mie(cfg: dict) -> int:
    imp = cfg["impedance"]
    if not _is_number(imp):
        raise ConfigError("mie requires a constant impedance")
    ctx = build_context(cfg)
    ff = forward.mie_farfield(ctx, float(cfg["radius"]), float(imp))
    if cfg.get("output"):
        atomic_write_text(cfg["output"], farfield_csv(ff))
    emit_summary(cfg, {"farfield_l2_norm": ff.norm()})
    return EXIT_OK


def cmd_carleman_check(cfg: dict) -> int:
    """Both Carleman sides for every suite member at 1, 2 and 4 times the
    admissible (λ, τ), from one ``carleman_sides`` call.  ``weighted_nodes``
    counts, per multiple, the nodes whose weight relative to the common
    factor is not 0.0: at these thresholds no volume node is left, so every
    lhs is 0.0 and every ratio infinite."""
    rho = float(_get(cfg, "rho", 1.0))
    d = float(_get(cfg, "d", 1.0))
    size = _get_size(cfg, "suite_size", 50, least=1)
    setup = carleman.CarlemanSetup(x0=np.zeros(3), rho=rho, d=d)
    suite = carleman.random_test_suite(size, seed=cfg["seed"])
    multiples = (1.0, 2.0, 4.0)
    pairs = [(mult * setup.lambda_threshold, mult * setup.tau_threshold)
             for mult in multiples]
    sides = carleman.carleman_sides(suite, setup, pairs)
    reports = []
    weighted = []
    all_pass = True
    for mult, (lam_w, tau), results in zip(multiples, pairs, sides):
        for i, res in enumerate(results):
            all_pass &= res.holds
            reports.append({"check": "carleman", "test_function": i,
                            "threshold_multiple": mult,
                            "lhs": res.lhs_factored, "rhs": res.rhs_factored,
                            "ratio": res.ratio, "pass": bool(res.holds)})
        volume, boundary = setup.weighted_nodes(lam_w, tau)
        weighted.append({"threshold_multiple": mult,
                         "volume_weighted": len(volume[0]),
                         "volume_total": len(setup.volume[0]),
                         "boundary_weighted": len(boundary[0]),
                         "boundary_total": len(setup.boundary[0])})
    emit_summary(cfg, {"reports": reports, "all_pass": bool(all_pass),
                       "m": setup.m, "M": setup.M, "weighted_nodes": weighted})
    return EXIT_OK if all_pass else EXIT_NUMERICAL


def cmd_three_sphere(cfg: dict) -> int:
    k = float(cfg["k"])
    r = float(_get(cfg, "ball_radius", 0.2))
    y = _get_point(cfg, "center", [2.0, 0.0, 0.0])
    size = _get_size(cfg, "family_size", 8, least=2)
    rng = np.random.default_rng(cfg["seed"])
    family = [
        carleman.TestFunction.plane_wave(k, rng.normal(size=3),
                                         rng.uniform(0, 2 * np.pi))
        for _ in range(size)
    ]
    fit = carleman.three_sphere_check(family, y, r)
    emit_summary(cfg, {"alpha": fit.alpha, "C": fit.C,
                       "monotonicity_violations": fit.monotonicity_violations})
    return EXIT_OK


def cmd_chain(cfg: dict) -> int:
    r = float(_get(cfg, "r", 0.1))
    big_r = float(_get(cfg, "R", 8.0))
    theta = float(_get(cfg, "cone_half_angle", np.pi / 6))
    geom = geometry.ObstacleGeometry(radius=float(cfg["radius"]),
                                     cone_half_angle=theta)
    x_tilde = _get_point(cfg, "x_tilde", [0.0, 0.0, float(cfg["radius"])])
    chain = geometry.build_cone_chain(x_tilde, r, geom, big_r)
    bound = carleman.chain_lower_bound(chain, i0=float(_get(cfg, "i0", 1.0)),
                                       m_tilde=float(_get(cfg, "m_tilde", 1.0)),
                                       c=float(_get(cfg, "c", 0.5)),
                                       alpha=float(_get(cfg, "alpha", 0.5)), r=r)
    emit_summary(cfg, {
        "count": chain.count, "ratio": chain.ratio,
        "max_nesting_residual": float(np.max(chain.nesting_residuals()))
        if chain.count else 0.0,
        "log_lower_bound": bound.log_lower_bound,
        "log_simplified_bound": bound.log_simplified_bound,
        "eta": bound.eta,
        "iteration_residual": bound.iteration_residual,
    })
    return EXIT_OK


def cmd_stability_sweep(cfg: dict) -> int:
    ctx = build_context(cfg)
    geom = build_geometry(cfg)
    base = build_impedance(cfg)
    shape_cfg = cfg.setdefault("perturbation", [0.0, 0.0, 1.0, 0.0])  # number or list
    if _is_number(shape_cfg):
        shape = np.array([float(shape_cfg) * np.sqrt(4.0 * np.pi)])
    elif _is_number_list(shape_cfg):
        shape = np.asarray(shape_cfg, dtype=float)
    else:
        raise ConfigError("perturbation must be a number or a coefficient list")
    eps_list = _get(cfg, "eps_list", [0.0125, 0.025, 0.05, 0.1])
    sweep = stability.stability_sweep(base, shape, eps_list, ctx, geom,
                                      cfg["band_limit"])
    if cfg.get("output"):
        atomic_write_text(cfg["output"], sweep_csv(sweep))
    emit_summary(cfg, {"C_fit": sweep.c_fit, "sigma_fit": sweep.sigma_fit,
                       "dominated": sweep.dominated()})
    return EXIT_OK


def cmd_lemma51(cfg: dict) -> int:
    ctx = build_context(cfg)
    geom = build_geometry(cfg)
    lam = build_impedance(cfg)
    candidates = _get(cfg, "r_candidates", [2.0, 4.0, 8.0, 16.0, 32.0])
    if not candidates:
        raise ConfigError("r_candidates must be a non-empty list of numbers")
    report = stability.lemma51_check(ctx, geom, lam, candidates, cfg["band_limit"])
    payload = {"qualifying_radius": report.qualifying_radius,
               "found": report.found,
               "radii": report.radii,
               "sup_scattered": report.sup_scattered}
    emit_summary(cfg, payload)
    return EXIT_OK if report.found else EXIT_NUMERICAL


def cmd_reconstruct(cfg: dict) -> int:
    ctx = build_context(cfg)
    geom = build_geometry(cfg)
    truth = _get(cfg, "true_impedance", cfg["impedance"])
    if not _is_number(truth):
        raise ConfigError("reconstruct requires a constant true_impedance")
    noise = float(_get(cfg, "noise", 0.0))
    if noise < 0:
        raise ConfigError(f"noise must be nonnegative (noise = {noise})")
    band = cfg["band_limit"]
    rule = gauss_product_rule(band)
    data = forward.solve_farfield(ctx, geom,
                                  layer_ops.ImpedanceField.constant(float(truth)),
                                  band, rule)
    if noise > 0:
        rng = np.random.default_rng(cfg["seed"])
        pert = rng.normal(size=data.samples.shape) \
            + 1j * rng.normal(size=data.samples.shape)
        data = forward.FarField(
            samples=data.samples * (1.0 + noise * pert), rule=rule
        )
    prior = build_impedance(cfg)
    report = stability.reconstruct(data, ctx, geom, prior,
                                   reg=float(_get(cfg, "reg", 1e-6)), band_limit=band)
    emit_summary(cfg, {
        "misfit": report.misfit,
        "converged": report.converged,
        "iterations": report.iterations,
        "recovered_constant": report.impedance.coefficients[0] / np.sqrt(4 * np.pi),
        "coefficients": report.impedance.coefficients,
    })
    return EXIT_OK if report.converged else EXIT_NUMERICAL


def cmd_ga2_check(cfg: dict) -> int:
    geom = build_geometry(cfg)
    radii = _get(cfg, "radii", [0.4, 0.2, 0.1, 0.05])
    c, kappa = geometry.check_GA2(geom, radii)
    emit_summary(cfg, {"C": c, "kappa": kappa})
    return EXIT_OK


HANDLERS = {
    "forward": cmd_forward,
    "farfield": cmd_farfield,
    "mie": cmd_mie,
    "carleman-check": cmd_carleman_check,
    "three-sphere": cmd_three_sphere,
    "chain": cmd_chain,
    "stability-sweep": cmd_stability_sweep,
    "lemma51": cmd_lemma51,
    "reconstruct": cmd_reconstruct,
    "ga2-check": cmd_ga2_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impscat",
        description="Impedance obstacle scattering and continuation checks",
    )
    parser.add_argument("command", choices=HANDLERS)
    parser.add_argument("config", help="JSON config file")
    parser.add_argument("--set", action="append", default=[], dest="overrides",
                        metavar="KEY=VALUE",
                        help="override config key KEY (flat, taken as written); "
                             "VALUE is parsed as JSON, or else kept as a string")
    return parser


def _error_record(kind: str, message: str):
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        problems = validate_common(cfg)
        if problems:
            raise ConfigError("; ".join(problems))
        return HANDLERS[args.command](cfg)
    except (ValueError, IndexError, OSError) as exc:  # ConfigError is a ValueError
        _error_record("validation", str(exc))
        return EXIT_VALIDATION
    except (RuntimeError, np.linalg.LinAlgError, ArithmeticError, MemoryError) as exc:
        _error_record("numerical", str(exc))
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
