"""Command-line entry point: batch jobs, JSON configs, CSV/JSON outputs.

One subcommand per job type.  Every subcommand takes the same arguments:
a JSON config file plus repeated ``--set key=value`` overrides.  All
outputs are written atomically (temp file in the target directory, then
rename); every JSON summary embeds the fully resolved config.  A summary
is written in one pass by ``summary_text``: keys sorted, a two-space
indent, ASCII escapes, a non-finite scalar as ``"inf"``, ``"-inf"`` or
``"nan"`` and a non-finite array element as ``NaN`` or ``±Infinity``, and
one newline at the end (what ``json.dumps(..., indent=2, sort_keys=True)``
writes).  Exit codes: 0 success, 1 configuration/validation error, 2
numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from json.encoder import encode_basestring_ascii

import numpy as np

from . import carleman, forward, geometry, layer_ops, stability
from .specfun import QuadratureRule, gauss_product_rule

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
    """An int of any size if ``integer``, else a float or an int within the
    float range (the int-float comparison is exact); JSON ``true``/``false``
    load as bool, a subclass of int, and are not numbers."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        return False
    return integer or isinstance(value, float) or abs(value) <= sys.float_info.max


def _is_number_list(value) -> bool:
    return isinstance(value, list) and all(_is_number(v) for v in value)


def _get(cfg: dict, key: str, default, integer: bool = False):
    """Subcommand key ``key``; an absent key takes ``default``, stored in
    ``cfg`` so the summary embeds it.  If the default is a number, so must
    the value be (an int if ``integer``); if a list, a list of numbers.  A
    float, alone or in the list, must be finite."""
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
    if om.shape != (3,) or not abs(math.hypot(*om) - 1.0) <= 1e-9:
        problems.append("omega must be a 3-vector of unit length")
    if not (_is_number(cfg["radius"]) and cfg["radius"] > 0):
        problems.append("radius must be a positive number")
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
    """Write ``text`` to a temp file in the directory of ``path``, then
    rename it to ``path``.  A failure leaves no temp file behind, and an
    ``OSError`` names ``path``, not the temp file, with its strerror."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _farfield_rows(rule: QuadratureRule) -> str:
    """The far-field CSV of ``rule`` as one ``%`` template: the header, then
    per node its ring's θ and its azimuth's φ, each formatted ``%.17g,``
    once, and ``%.17g,%.17g`` for the two sample values.  The θ and φ text
    holds no ``%``, so the template takes exactly 2·npts floats."""
    theta = np.arccos(np.clip(rule.mu[::rule.azimuths], -1.0, 1.0))
    rings = ["%.17g," % t for t in theta.tolist()]
    azimuths = ["%.17g,%%.17g,%%.17g\n" % p for p in rule.phi[:rule.azimuths].tolist()]
    # a ring's rows are θ + φ_0, θ + φ_1, …: θ before the first and between
    return "theta,phi,re_uinf,im_uinf\n" + "".join(t + t.join(azimuths) for t in rings)


def farfield_csv(ff: forward.FarField) -> str:
    """One ``theta,phi,re_uinf,im_uinf`` row per node, in the rule's
    ring-major order, every float as ``%.17g``.  The text the rule fixes
    (the header, each ring's θ and each azimuth's φ, each formatted once)
    becomes one template, ``_farfield_rows``, and a single ``%`` fills in
    the sample values, into the same bytes as a per-row writer.  A sample
    count other than the rule's node count is a ValueError."""
    rule, samples = ff.rule, ff.samples
    if samples.shape != (rule.npts,):
        raise ValueError(f"{samples.size} far-field samples of shape {samples.shape} "
                         f"for the {rule.npts} nodes of the order-{rule.order} rule")
    values = np.column_stack((samples.real, samples.imag)).ravel().tolist()
    return _farfield_rows(rule) % tuple(values)


def sweep_csv(sweep: stability.StabilitySweep) -> str:
    fit = (sweep.c_fit, sweep.sigma_fit)
    return "epsilon,delta,dsup,bound,C_fit,sigma_fit\n" + "".join(
        "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n" % (r.epsilon, r.delta, r.dsup, r.bound, *fit)
        for r in sweep.records)


def _float_text(value) -> str:
    """A float outside an array: ``repr`` if finite, else its str quoted
    (``"inf"``, ``"-inf"``, ``"nan"``)."""
    text = float.__repr__(value)
    return text if math.isfinite(value) else f'"{text}"'


def _element_text(value) -> str:
    """A float inside an array: ``repr`` if finite, else ``NaN`` or
    ``±Infinity``."""
    if math.isfinite(value):
        return float.__repr__(value)
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


# the text of a value by its exact type, outside an array and inside one
_ATOMS = {str: encode_basestring_ascii, int: int.__repr__, type(None): lambda _: "null",
          bool: {True: "true", False: "false"}.__getitem__,
          float: _float_text, np.float64: _float_text}
_ELEMENTS = {**_ATOMS, float: _element_text, np.float64: _element_text}


def _write(value, indent: str, out: list, atoms: dict):
    """Append the text of ``value`` to ``out``, ``indent`` being that of its
    line.  An exact type in ``atoms`` is written by it, and a dict (keys
    sorted), list or tuple item by item, one item a line.  An array is
    written as its ``tolist()``, by ``_ELEMENTS``, and any other numpy
    scalar as its ``item()``.  A str, int or float subclass is written as
    its base; anything else is a TypeError."""
    text = atoms.get(type(value))
    if text is not None:
        out.append(text(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        opening, separator = "{\n" + inner, ",\n" + inner
        for key, item in sorted(value.items()):
            text = atoms.get(type(item))
            if text is None:
                out.append(f"{opening}{encode_basestring_ascii(key)}: ")
                _write(item, inner, out, atoms)
            else:
                out.append(f"{opening}{encode_basestring_ascii(key)}: {text(item)}")
            opening = separator
        out.append("\n" + indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        opening, separator = "[\n" + inner, ",\n" + inner
        for item in value:
            text = atoms.get(type(item))
            if text is None:
                out.append(opening)
                _write(item, inner, out, atoms)
            else:
                out.append(opening + text(item))
            opening = separator
        out.append("\n" + indent + "]")
    elif atoms is _ATOMS and isinstance(value, np.ndarray):
        _write(value.tolist(), indent, out, _ELEMENTS)
    elif atoms is _ATOMS and isinstance(value, np.generic) and not isinstance(value.item(), np.generic):
        # a longdouble's item() is itself: it falls through to the TypeError
        _write(value.item(), indent, out, atoms)
    else:
        for base in (str, int, float):
            if isinstance(value, base):
                out.append(atoms[base](value))
                return
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def summary_text(cfg: dict, payload: dict) -> str:
    """The JSON summary of a job: ``payload`` and, under ``"config"``, the
    resolved ``cfg``, in the layout the module docstring gives, the bytes of
    ``json.dumps(..., indent=2, sort_keys=True)`` on the record with numpy
    values made Python ones.  Every key is a str."""
    out = []
    _write({"config": cfg, **payload}, "", out, _ATOMS)
    out.append("\n")
    return "".join(out)


def emit_summary(cfg: dict, payload: dict):
    """Write the job's summary, the text of :func:`summary_text` (sorted
    keys, two-space indent, ASCII escapes, non-finite scalars quoted, one
    newline at the end), to ``cfg["summary"]`` by :func:`atomic_write_text`
    if set, else to stdout."""
    text = summary_text(cfg, payload)
    if cfg.get("summary"):
        atomic_write_text(cfg["summary"], text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def cmd_farfield(cfg: dict) -> int:
    ctx = build_context(cfg)
    geom = build_geometry(cfg)
    lam = build_impedance(cfg)
    wave = forward.solve_density(ctx, geom, lam, band_limit=cfg["band_limit"])
    ff = forward.farfield(wave, ctx)
    if cfg.get("output"):
        atomic_write_text(cfg["output"], farfield_csv(ff))
    emit_summary(cfg, {"farfield_l2_norm": ff.norm(), "tail_fraction": wave.tail_fraction})
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
    admissible (λ, τ), from one ``carleman_sides`` call.  The summary counts,
    per multiple, the nodes whose weight relative to the common factor is
    not 0.0, from the per-shell weights, with no node built: at these
    thresholds no volume node is left, so every lhs is 0.0 and every ratio
    infinite."""
    rho = float(_get(cfg, "rho", 1.0))
    d = float(_get(cfg, "d", 1.0))
    size = _get_size(cfg, "suite_size", 50, least=1)
    setup = carleman.CarlemanSetup(x0=np.zeros(3), rho=rho, d=d)
    suite = carleman.random_test_suite(size, seed=cfg["seed"])
    multiples = (1.0, 2.0, 4.0)
    pairs = [(mult * setup.lambda_threshold, mult * setup.tau_threshold)
             for mult in multiples]
    sides = carleman.carleman_sides(suite, setup, pairs)
    # per pair, the nodes where some power's relative weight is not 0.0: a
    # weight is one value per shell
    volume, boundary = (rule.sphere.npts * np.count_nonzero(np.any(rel != 0.0, axis=0), axis=-1)
                        for rule, rel in setup._shell_weights(pairs))
    reports = []
    weighted = []
    all_pass = True
    for mult, results, n_volume, n_boundary in zip(multiples, sides, volume, boundary):
        for i, res in enumerate(results):
            all_pass &= res.holds
            reports.append({"check": "carleman", "test_function": i,
                            "threshold_multiple": mult,
                            "lhs": res.lhs_factored, "rhs": res.rhs_factored,
                            "ratio": res.ratio, "pass": bool(res.holds)})
        weighted.append({"threshold_multiple": mult,
                         "volume_weighted": int(n_volume),
                         "volume_total": setup.volume.size,
                         "boundary_weighted": int(n_boundary),
                         "boundary_total": setup.boundary.size})
    emit_summary(cfg, {"reports": reports, "all_pass": bool(all_pass),
                       "m": setup.m, "M": setup.M, "weighted_nodes": weighted})
    return EXIT_OK if all_pass else EXIT_NUMERICAL


def cmd_three_sphere(cfg: dict) -> int:
    k = float(cfg["k"])
    r = float(_get(cfg, "ball_radius", 0.2))
    y = _get_point(cfg, "center", [2.0, 0.0, 0.0])
    size = _get_size(cfg, "family_size", 8, least=2)
    rng = np.random.default_rng(cfg["seed"])
    draws = [(rng.normal(size=3), rng.uniform(0, 2 * np.pi)) for _ in range(size)]
    family = carleman.PlaneWaves(k, [d for d, _ in draws], [c for _, c in draws])
    fit = carleman.three_sphere_check([family], y, r)
    emit_summary(cfg, {"alpha": fit.alpha, "C": fit.C, "alpha_fitted": fit.alpha_fitted,
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
                       "dominated": sweep.dominated(), "delta_slope": sweep.delta_slope})
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


# built once per process: ``parse_args`` keeps no state between calls, and
# the ``append`` action copies its default before it appends
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
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
