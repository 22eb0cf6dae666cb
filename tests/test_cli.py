"""CLI: config parsing, exit codes, deterministic artifacts."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import impscat

from impscat import carleman, stability
from impscat.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    HANDLERS,
    MAX_SUITE_SIZE,
    ConfigError,
    build_parser,
    emit_summary,
    farfield_csv,
    load_config,
    main,
    sweep_csv,
    validate_common,
)
from impscat.forward import FarField, WaveContext, mie_farfield, solve_density
from impscat.geometry import ObstacleGeometry
from impscat.layer_ops import ImpedanceField
from impscat.specfun import gauss_product_rule
from impscat.stability import StabilityRecord, StabilitySweep

from oracle import Recorded


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestConfig:
    def test_defaults_filled(self, tmp_path):
        path = write_config(tmp_path, "c.json", {"k": 2.0})
        cfg = load_config(path, [])
        assert cfg["band_limit"] == 24
        assert cfg["impedance"] == 1.0
        assert cfg["seed"] == 0

    def test_overrides(self, tmp_path):
        path = write_config(tmp_path, "c.json", {"k": 2.0})
        cfg = load_config(path, ["k=3.5", "band_limit=12"])
        assert cfg["k"] == 3.5
        assert cfg["band_limit"] == 12

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path), [])

    def test_override_key_is_flat(self, tmp_path):
        # a dot in KEY is part of the key, not a path into the config
        path = write_config(tmp_path, "c.json", {})
        cfg = load_config(path, ["a.b=3", "k.x=abc"])
        assert cfg["a.b"] == 3 and cfg["k.x"] == "abc"
        assert "a" not in cfg and cfg["k"] == 1.0

    def test_bad_override_format(self, tmp_path):
        path = write_config(tmp_path, "c.json", {})
        with pytest.raises(ConfigError):
            load_config(str(path), ["keyonly"])

    def test_validation_collects_problems(self):
        cfg = dict(k=-1.0, omega=[0, 0, 2.0], radius=0.0, band_limit=0,
                   impedance=-2.0)
        problems = validate_common(cfg)
        assert len(problems) == 5


class TestParser:
    @pytest.mark.parametrize("argv", [["no-such-command", "c.json"], ["farfield"], []])
    def test_bad_command_line_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", sorted(HANDLERS))
    def test_set_parses_the_same_before_and_after_the_config(self, command):
        parser = build_parser()
        after = parser.parse_args([command, "c.json", "--set", "k=2", "--set", "seed=3"])
        before = parser.parse_args([command, "--set", "k=2", "c.json", "--set", "seed=3"])
        assert vars(before) == vars(after) == {
            "command": command, "config": "c.json", "overrides": ["k=2", "seed=3"]}

    def test_forward_is_not_a_command(self, tmp_path, capsys):
        # a solve's summary is the farfield job's; there is no density job
        path = write_config(tmp_path, "c.json", {})
        assert "forward" not in HANDLERS
        with pytest.raises(SystemExit) as exc:
            main(["forward", path])
        assert exc.value.code == 2
        assert "invalid choice: 'forward'" in capsys.readouterr().err

    def test_main_shares_one_parser_and_no_overrides(self, tmp_path, capsys, monkeypatch):
        # main parses with the parser built at import; the ``append`` default
        # of --set must not carry the first call's overrides into the second
        def refuse():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(impscat.cli, "build_parser", refuse)
        path = write_config(tmp_path, "c.json", {})
        assert main(["ga2-check", path, "--set", "k=2"]) == EXIT_OK
        first = json.loads(capsys.readouterr().out)
        assert main(["ga2-check", path]) == EXIT_OK
        second = json.loads(capsys.readouterr().out)
        assert first["config"]["k"] == 2 and second["config"]["k"] == 1.0
        assert first["C"] == second["C"]


class TestExitCodes:
    def test_mie_success(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json",
                            {"k": 1.0, "impedance": 1.0,
                             "output": str(tmp_path / "ff.csv")})
        assert main(["mie", path]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert "farfield_l2_norm" in summary
        assert summary["config"]["k"] == 1.0

    def test_negative_impedance(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", {"impedance": -1.0})
        assert main(["farfield", path]) == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert "impedance" in err["message"]

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_wavenumber(self, tmp_path, capsys, value):
        path = write_config(tmp_path, "c.json", {"band_limit": 4})
        assert main(["farfield", path, "--set", f"k={value}"]) == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert "k must be a positive finite number" in err["message"]

    def test_output_and_summary_on_one_file(self, tmp_path, capsys):
        # the summary would replace the CSV
        path = write_config(tmp_path, "c.json", {"band_limit": 4})
        out = tmp_path / "x.out"
        same = tmp_path / "sub" / ".." / "x.out"
        for summary in (out, same):
            code = main(["farfield", path, "--set", f"output={out}",
                         "--set", f"summary={summary}"])
            assert code == EXIT_VALIDATION
            assert "different files" in json.loads(capsys.readouterr().err)["message"]
        assert not out.exists()

    def test_output_and_summary_on_two_files(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", {"band_limit": 12})
        out, summary = tmp_path / "x.out", tmp_path / "y.out"
        assert main(["farfield", path, "--set", f"output={out}",
                     "--set", f"summary={summary}"]) == EXIT_OK
        assert out.read_text().startswith("theta,phi,re_uinf,im_uinf\n")
        assert "farfield_l2_norm" in json.loads(summary.read_text())

    def test_farfield_reports_the_solve_tail_fraction(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", {"k": 2.0, "band_limit": 16})
        assert main(["farfield", path]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        wave = solve_density(WaveContext(k=2.0, omega=np.array([0.0, 0.0, 1.0])),
                             ObstacleGeometry(), ImpedanceField.constant(1.0), band_limit=16)
        assert summary["tail_fraction"] == wave.tail_fraction
        assert 0.0 < wave.tail_fraction <= 1e-8

    def test_zero_band_limit(self, tmp_path):
        path = write_config(tmp_path, "c.json", {"band_limit": 0})
        assert main(["farfield", path]) == EXIT_VALIDATION

    @pytest.mark.parametrize("command,value", [
        ("farfield", "NaN"), ("farfield", "Infinity"), ("farfield", "[NaN]"),
        ("farfield", "[3.5, NaN, 0, 0]"), ("mie", "NaN"), ("mie", "Infinity"),
    ])
    def test_non_finite_impedance(self, tmp_path, capsys, command, value):
        path = write_config(tmp_path, "c.json", {})
        assert main([command, path, "--set", f"impedance={value}"]) == EXIT_VALIDATION
        assert json.loads(capsys.readouterr().err)["error"] == "validation"

    @pytest.mark.parametrize("command,key", [
        ("farfield", "k"), ("farfield", "radius"), ("farfield", "band_limit"),
        ("farfield", "impedance"), ("stability-sweep", "perturbation"),
        ("reconstruct", "true_impedance"), ("carleman-check", "suite_size"),
        ("carleman-check", "rho"), ("reconstruct", "noise"),
    ])
    def test_boolean_is_not_a_number(self, tmp_path, capsys, command, key):
        path = write_config(tmp_path, "c.json", {})
        assert main([command, path, "--set", f"{key}=true"]) == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert key in err["message"]

    @pytest.mark.parametrize("command,key,value", [
        ("carleman-check", "rho", "[1]"), ("three-sphere", "center", "{}"),
        ("ga2-check", "radii", "[{}]"), ("ga2-check", "seed", "1.5"),
        ("farfield", "omega", "{}"), ("farfield", "omega", "[false, false, true]"),
        ("farfield", "impedance", "[[1]]"), ("farfield", "output", "5"),
        ("farfield", "summary", "[]"), ("stability-sweep", "perturbation", "[{}]"),
        ("stability-sweep", "eps_list", "[true, 0.05]"),
        ("stability-sweep", "eps_list", "[]"), ("stability-sweep", "eps_list", "[0.0]"),
        ("stability-sweep", "eps_list", "[-0.1]"),
        ("stability-sweep", "eps_list", "[0.1, Infinity]"),
        ("stability-sweep", "eps_list", "[0.1, NaN]"),
        ("chain", "i0", "NaN"), ("chain", "m_tilde", "Infinity"), ("chain", "c", "NaN"),
        ("chain", "R", "Infinity"), ("three-sphere", "ball_radius", "NaN"),
        ("three-sphere", "center", "[2, 0, NaN]"), ("ga2-check", "radii", "[NaN, 0.2, 0.1]"),
        ("reconstruct", "noise", "Infinity"), ("three-sphere", "center", "[1, 2]"),
        ("chain", "x_tilde", "[0, 0, 1, 0]"), ("lemma51", "r_candidates", "[]"),
    ])
    def test_wrong_json_type_is_validation(self, tmp_path, capsys, command, key, value):
        path = write_config(tmp_path, "c.json", {"band_limit": 4})
        assert main([command, path, "--set", f"{key}={value}"]) == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert key in err["message"]

    @pytest.mark.parametrize("value", ["0", "[]", "[0, 0, 0, 0]"])
    def test_zero_perturbation_is_validation(self, tmp_path, capsys, monkeypatch, value):
        # a perturbation with no nonzero coefficient is refused before any
        # solve, not reported as a fit with no admissible record (exit 2)
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran before the perturbation was checked")

        monkeypatch.setattr(stability, "solve_farfield", no_solve)
        path = write_config(tmp_path, "c.json", {"band_limit": 8})
        assert main(["stability-sweep", path, "--set", f"perturbation={value}"]) \
            == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        record = json.loads(err)
        assert record["error"] == "validation"
        assert "perturbation" in record["message"]

    @pytest.mark.parametrize("key,value", [
        ("k", "1" + "0" * 400), ("impedance", "1" + "0" * 400),
        ("omega", "[1%s, 0, 0]" % ("0" * 400)), ("r_candidates", "[1%s]" % ("0" * 400)),
        ("r", "1" + "0" * 400), ("radius", "1" + "0" * 400),
    ])
    def test_integer_beyond_float_is_a_validation_error(self, tmp_path, capsys, key, value):
        # a number key takes an int only within the float range: past it the
        # config is refused, by key, before any float conversion
        command = {"r_candidates": "lemma51", "r": "chain"}.get(key, "farfield")
        path = write_config(tmp_path, "c.json", {"band_limit": 4})
        assert main([command, path, "--set", f"{key}={value}"]) == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert key in err["message"]

    def test_eta_key_is_ignored(self, tmp_path, capsys):
        # the coupling is max(1, k), derived at the solve; a leftover key
        # changes nothing, as any key a subcommand does not read
        path = write_config(tmp_path, "c.json", {"band_limit": 12})
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        assert main(["farfield", path, "--set", f"output={outs[0]}"]) == EXIT_OK
        assert main(["farfield", path, "--set", f"output={outs[1]}",
                     "--set", "eta=3.5"]) == EXIT_OK
        capsys.readouterr()
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("config,code,found", [
        ({}, EXIT_OK, True),
        ({"k": 4, "impedance": 0, "r_candidates": [1.1]}, EXIT_NUMERICAL, False),
    ])
    def test_lemma51_writes_its_summary(self, tmp_path, capsys, config, code, found):
        path = write_config(tmp_path, "c.json", config)
        assert main(["lemma51", path]) == code
        summary = json.loads(capsys.readouterr().out)
        assert summary["found"] is found
        assert len(summary["radii"]) == len(summary["sup_scattered"])

    def test_unwritable_output_is_validation(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", {"band_limit": 16})
        out = str(tmp_path / "absent" / "ff.csv")
        assert main(["farfield", path, "--set", f"output={out}"]) == EXIT_VALIDATION
        assert json.loads(capsys.readouterr().err)["error"] == "validation"

    def test_missing_config(self, capsys):
        assert main(["farfield", "/nonexistent/cfg.json"]) == EXIT_VALIDATION

    def test_resolution_failure_is_numerical(self, tmp_path, capsys):
        # ka = 6 at band limit 4: the density tail check fails
        path = write_config(tmp_path, "c.json", {"k": 6.0, "band_limit": 4})
        code = main(["farfield", path])
        assert code == EXIT_NUMERICAL
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numerical"

    def test_overflowing_hankel_is_numerical(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", {"k": 1e-3, "band_limit": 120})
        assert main(["farfield", path]) == EXIT_NUMERICAL
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numerical"
        assert "overflows at degree 65" in err["message"]

    def test_memory_error_is_numerical(self, tmp_path, capsys, monkeypatch):
        # the handler raises as an allocation would, without allocating
        def exhausted(cfg):
            raise MemoryError("no room")

        monkeypatch.setitem(HANDLERS, "farfield", exhausted)
        path = write_config(tmp_path, "c.json", {})
        assert main(["farfield", path]) == EXIT_NUMERICAL
        assert json.loads(capsys.readouterr().err) == {"error": "numerical", "message": "no room"}


class TestArtifacts:
    def test_summary_text_is_pinned(self, capsys):
        # numpy scalars and arrays, tuples, inf and NaN, nested: the exact
        # text of the summary, indent and all
        payload = {"scalars": [np.float64(0.1), np.int64(-3), np.float32(0.25), np.bool_(True)],
                   "nested": {"pair": (1, (np.float64("inf"), None)), "text": "x"},
                   "array": np.array([[1.5, np.inf], [np.nan, -0.0]]),
                   "non_finite": [float("nan"), -np.inf, np.float64("-inf")],
                   "plain": [0.1, -0.0, 7, False, 1e300]}
        emit_summary({"k": 2.0, "seed": np.int64(5)}, payload)
        assert capsys.readouterr().out == (
            '{\n  "array": [\n    [\n      1.5,\n      Infinity\n    ],\n    [\n'
            '      NaN,\n      -0.0\n    ]\n  ],\n  "config": {\n    "k": 2.0,\n'
            '    "seed": 5\n  },\n  "nested": {\n    "pair": [\n      1,\n      [\n'
            '        "inf",\n        null\n      ]\n    ],\n    "text": "x"\n  },\n'
            '  "non_finite": [\n    "nan",\n    "-inf",\n    "-inf"\n  ],\n'
            '  "plain": [\n    0.1,\n    -0.0,\n    7,\n    false,\n    1e+300\n  ],\n'
            '  "scalars": [\n    0.1,\n    -3,\n    0.25,\n    true\n  ]\n}\n')

    def test_farfield_csv_header_and_determinism(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        path = write_config(tmp_path, "c.json", {"k": 1.0, "impedance": 1.0})
        assert main(["farfield", path, "--set", f"output={out1}"]) == EXIT_OK
        assert main(["farfield", path, "--set", f"output={out2}"]) == EXIT_OK
        capsys.readouterr()
        text1, text2 = out1.read_text(), out2.read_text()
        assert text1 == text2
        assert text1.splitlines()[0] == "theta,phi,re_uinf,im_uinf"

    def test_farfield_csv_matches_csv_writer(self):
        # the csv.writer + f-string rows the CSV was first written with
        rule = gauss_product_rule(6)
        rng = np.random.default_rng(8)
        samples = rng.normal(size=rule.npts) + 1j * rng.normal(size=rule.npts)
        samples[:4] = [-0.0, 5e-324, 1e300, complex(-1e-300, -0.0)]
        ff = FarField(samples=samples, rule=rule)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["theta", "phi", "re_uinf", "im_uinf"])
        theta = np.arccos(np.clip(ff.rule.mu, -1.0, 1.0))
        for t, p, s in zip(theta, ff.rule.phi, ff.samples):
            writer.writerow([f"{t:.17g}", f"{p:.17g}", f"{s.real:.17g}", f"{s.imag:.17g}"])
        assert farfield_csv(ff) == buf.getvalue()

    @staticmethod
    def _per_row_csv(ff):
        # every row formats its four floats, as the writer first did
        theta = np.arccos(np.clip(ff.rule.mu, -1.0, 1.0))
        rows = zip(theta.tolist(), ff.rule.phi.tolist(),
                   ff.samples.real.tolist(), ff.samples.imag.tolist())
        return "theta,phi,re_uinf,im_uinf\n" + "".join(
            "%.17g,%.17g,%.17g,%.17g\n" % row for row in rows)

    @pytest.mark.parametrize("band_limit", [1, 2, 24, 40])
    def test_farfield_csv_matches_per_row_reference(self, band_limit):
        rule = gauss_product_rule(band_limit)
        rng = np.random.default_rng(band_limit)
        samples = rng.normal(size=rule.npts) + 1j * rng.normal(size=rule.npts)
        samples *= 10.0 ** rng.integers(-300, 300, size=rule.npts)
        samples[:4] = [-0.0, 5e-324, np.inf, complex(np.nan, -0.0)]
        ff = FarField(samples=samples, rule=rule)
        text = farfield_csv(ff)
        assert text == self._per_row_csv(ff)
        assert text.count("\n") == 1 + (band_limit + 1) * (2 * band_limit + 2)

    def test_mie_csv_matches_per_row_reference(self):
        ff = mie_farfield(WaveContext(k=3.0, omega=np.array([0.6, 0.0, 0.8])), 1.0, 0.5)
        assert ff.rule is gauss_product_rule(ff.rule.order)  # the default rule
        assert farfield_csv(ff) == self._per_row_csv(ff)

    def test_high_frequency_farfield(self, tmp_path, capsys):
        # the dense synthesis matrix would need 8.8 GiB here
        path = write_config(tmp_path, "c.json", {})
        code = main(["farfield", path, "--set", "k=100", "--set", "band_limit=130"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["farfield_l2_norm"] > 0

    def test_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        path = write_config(tmp_path, "c.json", {
            "k": 1.0, "impedance": 1.0, "band_limit": 12,
            "eps_list": [0.05, 0.1], "output": str(out),
        })
        assert main(["stability-sweep", path]) == EXIT_OK
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "epsilon,delta,dsup,bound,C_fit,sigma_fit"
        assert len(lines) == 3
        eps = [float(line.split(",")[0]) for line in lines[1:]]
        assert eps == sorted(eps)

    def test_sweep_summary_reports_the_slope(self, tmp_path, capsys):
        # δ'(0), the far-field distance per unit ε at ε = 0, as the sweep finds it
        path = write_config(tmp_path, "c.json", {"k": 1.0, "impedance": 1.0, "band_limit": 12,
                                                 "eps_list": [0.05, 0.1]})
        assert main(["stability-sweep", path]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        ctx = WaveContext(k=1.0, omega=np.array([0.0, 0.0, 1.0]))
        sweep = stability.stability_sweep(ImpedanceField.constant(1.0), [0.0, 0.0, 1.0, 0.0],
                                          [0.05, 0.1], ctx, ObstacleGeometry(), 12)
        assert summary["delta_slope"] == sweep.delta_slope > 0.0

    def test_sweep_csv_matches_csv_writer(self):
        # the csv.writer + f-string rows the CSV was first written with
        values = [0.0, -0.0, 5e-324, np.inf, np.nan, 1e300, 0.1, -2.5]
        records = [StabilityRecord(*values[i:i + 4]) for i in (0, 2, 4)]
        sweep = StabilitySweep(records=records, c_fit=np.float64(1.25), sigma_fit=0.5,
                               delta_slope=0.25)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["epsilon", "delta", "dsup", "bound", "C_fit", "sigma_fit"])
        for rec in sweep.records:
            writer.writerow([f"{rec.epsilon:.17g}", f"{rec.delta:.17g}",
                             f"{rec.dsup:.17g}", f"{rec.bound:.17g}",
                             f"{sweep.c_fit:.17g}", f"{sweep.sigma_fit:.17g}"])
        assert sweep_csv(sweep) == buf.getvalue()

    def test_chain_summary(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", {"r": 0.1, "R": 8.0})
        assert main(["chain", path]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["count"] == 22
        assert summary["iteration_residual"] <= 1e-12

    def test_chain_nesting_residual_is_relative(self, tmp_path, capsys):
        # at |x| ≈ 1e49 the absolute residual is rounding of about 1e33
        path = write_config(tmp_path, "c.json", {})
        assert main(["chain", path, "--set", "R=1e50"]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["max_nesting_residual"] <= 1e-15

    def test_chain_far_outer_radius_writes_one_error_record(self, tmp_path, capsys):
        # at R = 1e300 the chain's norms stay finite and the log lower bound
        # overflows: one numerical record, and no numpy warning (an error here)
        path = write_config(tmp_path, "c.json", {})
        assert main(["chain", path, "--set", "R=1e300"]) == EXIT_NUMERICAL
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        record = json.loads(err)
        assert record["error"] == "numerical"
        assert "N = 5179 chain steps" in record["message"]

    def test_three_sphere_summary(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", {"k": 2.0, "seed": 7})
        assert main(["three-sphere", path]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert 0.0 < summary["alpha"] < 1.0
        assert summary["monotonicity_violations"] == 0

    @pytest.mark.parametrize("k,fitted", [(None, False), (2.0, True)])
    def test_three_sphere_says_whether_alpha_was_fitted(self, tmp_path, capsys, k, fitted):
        # at the default k = 1 every member has one norm triple: α is the fallback
        path = write_config(tmp_path, "c.json", {} if k is None else {"k": k})
        assert main(["three-sphere", path]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["alpha_fitted"] is fitted
        assert (summary["alpha"] == 0.5) is not fitted

    def test_seeded_determinism(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", {"k": 2.0, "seed": 3})
        main(["three-sphere", path])
        first = capsys.readouterr().out
        main(["three-sphere", path])
        second = capsys.readouterr().out
        assert first == second

    def test_summary_independent_of_cpu_count(self, tmp_path):
        # a fresh interpreter per count, so import-time defaults see the patch
        path = write_config(tmp_path, "c.json", {"k": 1.0, "impedance": 1.0})
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(impscat.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / "summary.json"
        texts = []
        for count in (1, 64):
            code = (f"import os, sys; os.cpu_count = lambda: {count}; "
                    "from impscat.cli import main; "
                    f"sys.exit(main(['mie', {path!r}, '--set', 'summary={out}']))")
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           timeout=120)
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("radius,code,kind", [
        ("-0.2", EXIT_VALIDATION, "validation"), ("0", EXIT_VALIDATION, "validation"),
        ("1e-300", EXIT_NUMERICAL, "numerical"),
    ])
    def test_three_sphere_degenerate_ball_is_an_error(self, tmp_path, capsys, radius,
                                                      code, kind):
        # a NaN constant is never written: a typed error and no summary
        path = write_config(tmp_path, "c.json", {})
        assert main(["three-sphere", path, "--set", f"ball_radius={radius}"]) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["error"] == kind

    def test_ga2_summary(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", {})
        assert main(["ga2-check", path]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert 0.0 < summary["kappa"] <= 1.0

    @pytest.mark.parametrize("command", ["chain", "ga2-check"])
    def test_small_radius(self, tmp_path, capsys, command):
        # the contact ball has radius a/2, so it fits a sphere of radius 0.3
        path = write_config(tmp_path, "c.json", {})
        assert main([command, path, "--set", "radius=0.3"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["config"]["radius"] == 0.3


class TestReconstructCommand:
    def test_prior_equal_to_truth_converges(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", {
            "k": 1.0, "impedance": 1.0, "true_impedance": 1.0, "band_limit": 12,
        })
        assert main(["reconstruct", path]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["converged"] is True
        assert summary["iterations"] == 0


    def test_negative_noise_is_validation(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", {"band_limit": 8})
        assert main(["reconstruct", path, "--set", "noise=-0.5"]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        err = json.loads(err)
        assert err["error"] == "validation"
        assert "noise" in err["message"]


class TestCarlemanCommand:
    def test_summary_embeds_defaults(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", {})
        assert main(["carleman-check", path]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert {"rho": 1.0, "d": 1.0, "suite_size": 50}.items() <= summary["config"].items()
        assert len(summary["reports"]) == 150

    def test_small_suite_all_pass(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", {"suite_size": 4})
        assert main(["carleman-check", path]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["all_pass"] is True
        assert all(rep["pass"] for rep in summary["reports"])
        assert {"check", "lhs", "rhs", "ratio", "pass"} <= set(
            summary["reports"][0])

    def test_summary_counts_weighted_nodes(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", {"suite_size": 1})
        assert main(["carleman-check", path]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["weighted_nodes"] == [
            {"threshold_multiple": mult, "volume_weighted": 0, "volume_total": 27744,
             "boundary_weighted": 1250, "boundary_total": 2500}
            for mult in (1.0, 2.0, 4.0)]
        assert all(rep["lhs"] == 0.0 and rep["ratio"] == "inf"
                   for rep in summary["reports"])

    def test_weighted_nodes_counted_without_a_second_node_build(self, tmp_path, capsys):
        # the counts come from the per-shell weights, and the sides from
        # sphere means: no node is built at all
        path = write_config(tmp_path, "c.json", {"suite_size": 2})
        assert main(["carleman-check", path]) == EXIT_OK
        weighted = json.loads(capsys.readouterr().out)["weighted_nodes"]
        assert [(entry["volume_weighted"], entry["boundary_weighted"])
                for entry in weighted] == [(0, 1250)] * 3

    def test_weights_computed_once_per_job(self, tmp_path, capsys, monkeypatch):
        # the counts read the per-shell weights that carleman_sides made: one
        # weight row per node set and pair (2 × 3), not a second pass of them
        calls = []
        relative_exponents = carleman._relative_exponents

        def counted(dpsi, *args):
            calls.append(dpsi.size)
            return relative_exponents(dpsi, *args)

        monkeypatch.setattr(carleman, "_relative_exponents", counted)
        path = write_config(tmp_path, "c.json", {"suite_size": 2})
        assert main(["carleman-check", path]) == EXIT_OK
        assert sorted(calls) == [2, 2, 2, 48, 48, 48]
        weighted = json.loads(capsys.readouterr().out)["weighted_nodes"]
        assert [(entry["volume_weighted"], entry["boundary_weighted"])
                for entry in weighted] == [(0, 1250)] * 3

    @pytest.mark.parametrize("key,value", [("rho", "NaN"), ("d", "NaN"), ("d", "Infinity")])
    def test_non_finite_annulus_is_validation(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, "c.json", {"suite_size": 1})
        assert main(["carleman-check", path, "--set", f"{key}={value}"]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        err = json.loads(err)
        assert err["error"] == "validation"
        assert f"{key} = {float(value)}" in err["message"]

    @pytest.mark.parametrize("key,value", [("rho", 1e100), ("d", 1e300),
                                           ("rho", 1e-100), ("rho", 1e-200)])
    def test_thresholds_out_of_float_range_is_validation(self, tmp_path, capsys,
                                                         key, value):
        # m⁴ underflows to 0 (rho = 1e100, d = 1e300), M³ overflows (rho =
        # 1e-100) or ρ² underflows to 0 (rho = 1e-200); under pytest a numpy
        # warning is an error, so the record is all there is on stderr
        path = write_config(tmp_path, "c.json", {"suite_size": 1})
        assert main(["carleman-check", path, "--set", f"{key}={value}"]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        record = json.loads(err)
        assert record["error"] == "validation"
        assert f"{key} = {value}" in record["message"]
        assert "rho = " in record["message"] and "d = " in record["message"]

    @pytest.mark.parametrize("rho", ["1e-5", "1e-10"])
    def test_sides_out_of_float_range_is_numerical(self, tmp_path, capsys, rho):
        # the thresholds are finite floats, but the coefficient m⁴λ⁴τ³ is not:
        # one numerical record naming λ and τ, and no numpy warning (an error here)
        path = write_config(tmp_path, "c.json", {"suite_size": 2})
        assert main(["carleman-check", path, "--set", f"rho={rho}"]) == EXIT_NUMERICAL
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        record = json.loads(err)
        assert record["error"] == "numerical"
        assert "leaves the float range at lam = " in record["message"]
        assert ", tau = " in record["message"]

    def test_one_sides_call_and_no_volume_closure(self, tmp_path, capsys, monkeypatch):
        # at the default annulus no volume shell carries weight: each family
        # is asked once for its sphere means, on the inner sphere (its 1,250
        # nodes unbuilt) alone, and (Δv)² is not asked for
        calls, suites = [], []
        sides, suite_of = carleman.carleman_sides, carleman.random_test_suite

        def counted(*args):
            calls.append(args)
            return sides(*args)

        def watched_suite(size, seed=0):
            suites.append([Recorded(family) for family in suite_of(size, seed)])
            return suites[-1]

        monkeypatch.setattr(carleman, "carleman_sides", counted)
        monkeypatch.setattr(carleman, "random_test_suite", watched_suite)
        path = write_config(tmp_path, "c.json", {"suite_size": 5})
        assert main(["carleman-check", path]) == EXIT_OK
        assert len(json.loads(capsys.readouterr().out)["reports"]) == 15
        assert len(calls) == 1
        [suite] = suites
        assert [family.size for family in suite] == [3, 2]
        for family in suite:
            [(center, radii, laplacian)] = family.mean_calls
            assert center.tolist() == [0.0, 0.0, 0.0] and radii.tolist() == [1.0]
            assert not laplacian

    @pytest.mark.parametrize("command,key,value", [
        ("carleman-check", "suite_size", 0), ("carleman-check", "suite_size", -4),
        ("carleman-check", "suite_size", MAX_SUITE_SIZE + 1),
        ("carleman-check", "suite_size", 10**400),
        ("three-sphere", "family_size", 1),
        ("three-sphere", "family_size", MAX_SUITE_SIZE + 1),
    ])
    def test_suite_size_out_of_range(self, tmp_path, capsys, command, key, value):
        path = write_config(tmp_path, "c.json", {})
        assert main([command, path, "--set", f"{key}={value}"]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        err = json.loads(err)
        assert err["error"] == "validation"
        assert key in err["message"]


def fresh(args: list, check: bool = True) -> subprocess.CompletedProcess:
    """A fresh interpreter, run with ``args``, that imports this impscat."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(impscat.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # the warning filters of the in-process tests (pyproject's filterwarnings)
    flags = ["-W", "error::RuntimeWarning", "-W", "error::UserWarning"]
    return subprocess.run([sys.executable, *flags, *args], env=env, check=check,
                          timeout=120, capture_output=True, text=True)


def run_fresh(code: str) -> str:
    """Standard output of ``code`` run by a fresh interpreter."""
    return fresh(["-c", code]).stdout


@pytest.mark.parametrize("overrides,code,kind", [
    (["ball_radius=1e200"], EXIT_VALIDATION, "validation"),  # k·3r unresolved
    (["k=1e-300", "ball_radius=1e200"], EXIT_NUMERICAL, "numerical"),  # weights overflow
])
def test_three_sphere_huge_ball_writes_one_error_record(tmp_path, overrides, code, kind):
    # stderr is the JSON error record alone: no numpy warning before it
    path = write_config(tmp_path, "c.json", {})
    argv = ["three-sphere", path] + [arg for item in overrides for arg in ("--set", item)]
    proc = fresh(["-m", "impscat.cli", *argv], check=False)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == kind


@pytest.mark.parametrize("impedance", ["1e300", "[1e300, 0, 1e299, 0]"],
                         ids=["constant", "degree-1"])
def test_huge_impedance_farfield_writes_no_warning(tmp_path, impedance):
    # the residual check scales by max|rhs|, so no norm overflows
    path = write_config(tmp_path, "c.json", {})
    proc = fresh(["-m", "impscat.cli", "farfield", path, "--set", f"impedance={impedance}"])
    assert proc.stderr == ""
    assert math.isfinite(json.loads(proc.stdout)["farfield_l2_norm"])


@pytest.mark.parametrize("command,override,code,message", [
    ("farfield", "omega=[0,0,1e300]", EXIT_VALIDATION, "omega must be a 3-vector"),
    ("chain", "x_tilde=[1e300,0,0]", EXIT_VALIDATION, "not lie on the obstacle boundary"),
    ("chain", "R=1e308", EXIT_NUMERICAL, "(R = 1e+308, r = 0.1)"),
    ("chain", "r=1e-310", EXIT_NUMERICAL, "(R = 8.0, r = 1e-310)"),
    ("lemma51", "r_candidates=[1e308]", EXIT_VALIDATION, "4*max(r_candidates) = inf"),
])
def test_out_of_range_input_writes_one_error_record(tmp_path, command, override, code,
                                                    message):
    # lengths through hypot, and R/4r and the lemma51 ladder top checked
    # before use: no numpy warning and no bare conversion error
    path = write_config(tmp_path, "c.json", {})
    proc = fresh(["-m", "impscat.cli", command, path, "--set", override], check=False)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    record = json.loads(proc.stderr)
    assert record["error"] == ("validation" if code == EXIT_VALIDATION else "numerical")
    assert message in record["message"]


def test_ga2_check_past_the_obstacle_writes_no_warning(tmp_path):
    path = write_config(tmp_path, "c.json", {})
    proc = fresh(["-m", "impscat.cli", "ga2-check", path, "--set", "radii=[1e-300,1e300]"])
    assert proc.stderr == ""
    summary = json.loads(proc.stdout)
    assert (summary["C"], summary["kappa"]) == (1.6817928305073696e-75, 0.25025085832972)


@pytest.mark.parametrize("override,ka", [("radius=1e300", "1e+300"), ("k=1e6", "1e+06")])
def test_mie_past_degree_400_writes_one_error_record(tmp_path, override, ka):
    # int(ka) + 8 > 400: refused before any table is built
    path = write_config(tmp_path, "c.json", {})
    proc = fresh(["-m", "impscat.cli", "mie", path, "--set", override], check=False)
    assert proc.returncode == EXIT_NUMERICAL
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    record = json.loads(proc.stderr)
    assert record["error"] == "numerical"
    assert f"ka = {ka} starts past degree 400" in record["message"]


def test_huge_radius_forward_writes_one_error_record(tmp_path):
    # S₀² = (2a)² leaves the float range: the modal table raises before numpy warns
    path = write_config(tmp_path, "c.json", {})
    proc = fresh(["-m", "impscat.cli", "farfield", path, "--set", "radius=1e300"], check=False)
    assert proc.returncode == EXIT_NUMERICAL
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    record = json.loads(proc.stderr)
    assert record["error"] == "numerical"
    assert record["message"].endswith("overflows at degree 0, a = 1e+300")


def test_far_radius_farfield_writes_one_error_record(tmp_path):
    # S₀²k²a² overflows in c_n while S₀² is still finite: c_n raises before numpy warns
    path = write_config(tmp_path, "c.json", {})
    proc = fresh(["-m", "impscat.cli", "farfield", path, "--set", "radius=1e150"], check=False)
    assert proc.returncode == EXIT_NUMERICAL
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    record = json.loads(proc.stderr)
    assert record["error"] == "numerical"
    assert record["message"].endswith("c_n overflows at degree 0, ka = 1e+150")


def test_tiny_density_farfield_writes_the_tail_record(tmp_path):
    # at ka = 1e60 max|φ| ~ 1e-176: its squares underflow, so the tail
    # fraction scales by max|φ| first and still refuses the unresolved solve
    path = write_config(tmp_path, "c.json", {})
    proc = fresh(["-m", "impscat.cli", "farfield", path, "--set", "radius=1e60"], check=False)
    assert proc.returncode == EXIT_NUMERICAL
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    record = json.loads(proc.stderr)
    assert record["error"] == "numerical"
    assert re.fullmatch(r"density tail fraction \S+ exceeds 1\.0e-08", record["message"])


@pytest.mark.parametrize("center", ["[1e300, 0, 0]", "[1e17, 0, 0]"])
def test_far_center_three_sphere_writes_one_validation_record(tmp_path, capsys, center):
    # 0.2 is below the float spacing at the center: the sphere means start
    # from the center, and a plane wave's phase k·d·y rounds by more than
    # its change across the ball
    path = write_config(tmp_path, "c.json", {"k": 2.0})
    assert main(["three-sphere", path, "--set", f"center={center}"]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    record = json.loads(err)
    assert record["error"] == "validation"
    assert record["message"].startswith("center [") and "r = 0.2" in record["message"]


def test_three_sphere_default_summary_is_pinned(tmp_path, capsys):
    # the default center [2, 0, 0] is not refused: the summary is the one
    # the check gave before it refused far centers
    path = write_config(tmp_path, "c.json", {})
    assert main(["three-sphere", path]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["C"] == pytest.approx(0.2481612957605599, rel=1e-12)
    assert (summary["alpha"], summary["alpha_fitted"]) == (0.5, False)
    assert summary["monotonicity_violations"] == 0


def scipy_loaded_by(code: str) -> list:
    """The ``scipy`` modules in ``sys.modules`` after ``code`` runs in a fresh
    interpreter."""
    out = run_fresh(code + "\nimport json, sys\nprint(json.dumps(sorted("
                    "m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    return json.loads(out.splitlines()[-1])


def test_cli_import_leaves_mpmath_out():
    # mpmath is a test dependency only: the package never imports it
    run_fresh("import sys, impscat.cli; sys.exit('mpmath' in sys.modules)")


@pytest.mark.parametrize("module", ["impscat", "impscat.cli"])
def test_import_leaves_scipy_out(module):
    # scipy loads on first use: the import alone is numpy's
    assert scipy_loaded_by(f"import {module}") == []


@pytest.mark.parametrize("command,overrides", [
    ("carleman-check", ["suite_size=2"]), ("chain", []),
    ("three-sphere", ["family_size=2"]), ("ga2-check", []),
])
def test_jobs_without_a_solve_leave_scipy_out(tmp_path, command, overrides):
    path = write_config(tmp_path, "c.json", {})
    argv = [command, path] + [arg for item in overrides for arg in ("--set", item)]
    code = f"from impscat.cli import main\nassert main({argv!r}) == 0"
    assert scipy_loaded_by(code) == []


SOLVE = """
import numpy as np
import impscat as im
ctx = im.WaveContext(k=1.0, omega=np.array([0.0, 0.0, 1.0]))
im.solve_farfield(ctx, im.ObstacleGeometry(radius=1.0), {lam}, {band_limit})
"""


def test_constant_impedance_solve_loads_no_linalg():
    # a constant λ is a diagonal system, solved by one division, and the
    # Bessel and Hankel values are numpy recurrences: no scipy at all
    loaded = scipy_loaded_by(SOLVE.format(lam="im.ImpedanceField.constant(1.0)",
                                          band_limit=12))
    assert loaded == []


def test_constant_impedance_farfield_job_leaves_scipy_out(tmp_path):
    path = write_config(tmp_path, "c.json", {"output": str(tmp_path / "ff.csv")})
    code = f"from impscat.cli import main\nassert main({['farfield', path]!r}) == 0"
    assert scipy_loaded_by(code) == []


def test_variable_impedance_solve_loads_linalg_only():
    # a strongly variable λ (q = ‖AD⁻¹ − I‖₁ = 1.02) is solved by the banded
    # LU, the one use of scipy a solve makes
    lam = "im.ImpedanceField(coefficients=np.array([35.0, 0.0, 20.0, 0.0]))"
    loaded = scipy_loaded_by(SOLVE.format(lam=lam, band_limit=24))
    assert "scipy.linalg" in loaded
    assert not [m for m in loaded if m.startswith(("scipy.sparse", "scipy.special"))]


def test_certified_impedance_solve_leaves_scipy_out():
    # a near-constant λ (q = 0.05) is solved by Jacobi-certified GMRES, whose
    # products are numpy's: no LU, so no scipy at all
    lam = "im.ImpedanceField(coefficients=np.array([3.5, 0.0, 0.2, 0.0]))"
    assert scipy_loaded_by(SOLVE.format(lam=lam, band_limit=24)) == []


def test_stability_sweep_job_leaves_linalg_out(tmp_path):
    # a sweep from a constant λ₀ factors its base system by one division and
    # applies M_{ih} by numpy: no scipy at all
    path = write_config(tmp_path, "c.json", {"perturbation": [0.0, 0.3, -0.5, 0.2]})
    code = f"from impscat.cli import main\nassert main({['stability-sweep', path]!r}) == 0"
    assert scipy_loaded_by(code) == []
