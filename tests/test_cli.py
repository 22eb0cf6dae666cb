"""CLI: config parsing, exit codes, deterministic artifacts."""

import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import impscat

from impscat.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    HANDLERS,
    MAX_SUITE_SIZE,
    ConfigError,
    farfield_csv,
    load_config,
    main,
    sweep_csv,
    validate_common,
)
from impscat.forward import FarField
from impscat.specfun import gauss_product_rule
from impscat.stability import StabilityRecord, StabilitySweep


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

    def test_bad_override_format(self, tmp_path):
        path = write_config(tmp_path, "c.json", {})
        with pytest.raises(ConfigError):
            load_config(str(path), ["keyonly"])

    def test_validation_collects_problems(self):
        cfg = dict(k=-1.0, omega=[0, 0, 2.0], radius=0.0, band_limit=0,
                   impedance=-2.0)
        problems = validate_common(cfg)
        assert len(problems) == 5


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
        assert main(["forward", path]) == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert "impedance" in err["message"]

    def test_zero_band_limit(self, tmp_path):
        path = write_config(tmp_path, "c.json", {"band_limit": 0})
        assert main(["forward", path]) == EXIT_VALIDATION

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
        ("carleman-check", "rho"), ("reconstruct", "noise"), ("farfield", "eta"),
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
        ("reconstruct", "noise", "Infinity"),
    ])
    def test_wrong_json_type_is_validation(self, tmp_path, capsys, command, key, value):
        path = write_config(tmp_path, "c.json", {"band_limit": 4})
        assert main([command, path, "--set", f"{key}={value}"]) == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert key in err["message"]

    @pytest.mark.parametrize("key,value", [
        ("k", "1" + "0" * 400), ("eta", "1" + "0" * 400), ("impedance", "1" + "0" * 400),
        ("omega", "[1%s, 0, 0]" % ("0" * 400)),
    ])
    def test_integer_beyond_float_is_numerical(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, "c.json", {"band_limit": 4})
        assert main(["farfield", path, "--set", f"{key}={value}"]) == EXIT_NUMERICAL
        assert "too large" in json.loads(capsys.readouterr().err)["message"]

    def test_unwritable_output_is_validation(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", {"band_limit": 16})
        out = str(tmp_path / "absent" / "ff.csv")
        assert main(["farfield", path, "--set", f"output={out}"]) == EXIT_VALIDATION
        assert json.loads(capsys.readouterr().err)["error"] == "validation"

    def test_missing_config(self, capsys):
        assert main(["forward", "/nonexistent/cfg.json"]) == EXIT_VALIDATION

    def test_resolution_failure_is_numerical(self, tmp_path, capsys):
        # ka = 6 at band limit 4: plane-wave tail unresolved
        path = write_config(tmp_path, "c.json", {"k": 6.0, "band_limit": 4})
        with pytest.warns(UserWarning, match="plane-wave series tail"):
            code = main(["forward", path])
        assert code == EXIT_NUMERICAL
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numerical"

    def test_memory_error_is_numerical(self, tmp_path, capsys, monkeypatch):
        # the handler raises as an allocation would, without allocating
        def exhausted(cfg):
            raise MemoryError("no room")

        monkeypatch.setitem(HANDLERS, "farfield", exhausted)
        path = write_config(tmp_path, "c.json", {})
        assert main(["farfield", path]) == EXIT_NUMERICAL
        assert json.loads(capsys.readouterr().err) == {"error": "numerical", "message": "no room"}


class TestArtifacts:
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

    def test_high_frequency_farfield(self, tmp_path, capsys):
        # the dense synthesis matrix would need 8.8 GiB here
        path = write_config(tmp_path, "c.json", {})
        with pytest.warns(UserWarning, match="plane-wave series tail"):
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

    def test_sweep_csv_matches_csv_writer(self):
        # the csv.writer + f-string rows the CSV was first written with
        values = [0.0, -0.0, 5e-324, np.inf, np.nan, 1e300, 0.1, -2.5]
        records = [StabilityRecord(*values[i:i + 4]) for i in (0, 2, 4)]
        sweep = StabilitySweep(records=records, c_fit=np.float64(1.25), sigma_fit=0.5)
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

    def test_three_sphere_summary(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", {"k": 2.0, "seed": 7})
        assert main(["three-sphere", path]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert 0.0 < summary["alpha"] < 1.0
        assert summary["monotonicity_violations"] == 0

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

    def test_ga2_summary(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", {})
        assert main(["ga2-check", path]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert 0.0 < summary["kappa"] <= 1.0


class TestReconstructCommand:
    def test_prior_equal_to_truth_converges(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", {
            "k": 1.0, "impedance": 1.0, "true_impedance": 1.0, "band_limit": 12,
        })
        assert main(["reconstruct", path]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["converged"] is True
        assert summary["iterations"] == 0


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

    @pytest.mark.parametrize("key,value", [("rho", "NaN"), ("d", "NaN"), ("d", "Infinity")])
    def test_non_finite_annulus_is_validation(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, "c.json", {"suite_size": 1})
        assert main(["carleman-check", path, "--set", f"{key}={value}"]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        err = json.loads(err)
        assert err["error"] == "validation"
        assert f"{key} = {float(value)}" in err["message"]

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

