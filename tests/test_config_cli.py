import copy
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import iondeco
from iondeco import __version__
from iondeco.cli import _OVERRIDES, _simulate_series, main, read_curve_file
from iondeco.config import DEFAULTS, RunConfig
from iondeco.errors import ConfigError
from iondeco.fitting import invert_saturation
from iondeco.model import TWO_PI_KHZ
from iondeco.protocol import (AccumulatedCurve, format_table, read_trajectories,
                              run_trajectories, write_curve_csv)

_DESIGN = ["design", "--target-gamma-2pikhz", "0.1", "--target-big-gamma-2pikhz", "500"]


class TestRunConfig:
    def test_defaults_build(self):
        cfg = RunConfig()
        params = cfg.physical_params()
        assert params.omega_mw == pytest.approx(4.2 * TWO_PI_KHZ)
        assert cfg.rates().r1 == 0.0
        assert cfg.model_variant() == "full"

    def test_serialize_round_trip(self):
        cfg = RunConfig({"physical": {"i0": 3e-4, "alpha_deg": 60.0}})
        text = cfg.serialize()
        assert text == yaml.safe_dump(cfg.data, sort_keys=True)  # libyaml emits the same bytes
        again = RunConfig.parse(text)
        assert again.data == cfg.data
        assert again.hash() == cfg.hash()

    def test_hash_sensitive_to_values(self):
        a = RunConfig({"protocol": {"seed": 1}})
        b = RunConfig({"protocol": {"seed": 2}})
        assert a.hash() != b.hash()

    def test_unknown_section_location(self):
        with pytest.raises(ConfigError) as exc:
            RunConfig({"physics": {}})
        assert exc.value.location == "physics"

    def test_unknown_key_dotted_location(self):
        for key in ("omega_mw_khz", "gamma_lph_2pikhz"):
            with pytest.raises(ConfigError) as exc:
                RunConfig({"physical": {key: 4.2}})
            assert exc.value.location == f"physical.{key}"

    def test_type_errors(self):
        with pytest.raises(ConfigError):
            RunConfig({"protocol": {"n_max": 3.5}})
        with pytest.raises(ConfigError):
            RunConfig({"integrator": {"model": 7}})
        with pytest.raises(ConfigError):
            RunConfig({"physical": {"i0": "strong"}})

    def test_rates_override_needs_both(self):
        with pytest.raises(ConfigError) as exc:
            RunConfig({"rates": {"r1_2pikhz": 1.0}}).rates()
        assert exc.value.location == "rates"

    def test_rates_override_values(self):
        cfg = RunConfig({"rates": {"r1_2pikhz": 2.0, "r2_2pikhz": 4.0}})
        r = cfg.rates()
        assert r.r1 == pytest.approx(2.0 * TWO_PI_KHZ)
        assert r.r2 == pytest.approx(4.0 * TWO_PI_KHZ)

    @pytest.mark.parametrize("r1, r2", [(9000.0, 1.0), (1.0, 18000.0)],
                             ids=["r1-at-ceiling", "r2-at-ceiling"])
    def test_rates_override_beyond_saturation_ceiling(self, r1, r2):
        # r1 = P3(0) gamma3 < gamma3/2 and r2 = (P3(+1) + P3(-1)) gamma3 < gamma3
        # for any light; gamma3 is 18000 (2pi kHz) by default
        with pytest.raises(ConfigError) as exc:
            RunConfig({"rates": {"r1_2pikhz": r1, "r2_2pikhz": r2}}).rates()
        assert exc.value.location == "rates"

    def test_initial_section_rejected(self):
        # protocol.prep_error is the one prepared state
        with pytest.raises(ConfigError) as exc:
            RunConfig({"initial": {"n0": 0.8, "n1": 0.2}})
        assert exc.value.location == "initial"

    @pytest.mark.parametrize("doc, location", [
        ({"physical": {"i0": True}}, "physical.i0"),
        ({"physical": {"alpha_deg": False}}, "physical.alpha_deg"),
        ({"protocol": {"seed": True}}, "protocol.seed"),
        ({"detection": {"threshold": False}}, "detection.threshold"),
        ({"rates": {"r1_2pikhz": True, "r2_2pikhz": 1.0}}, "rates.r1_2pikhz"),
        ({"integrator": {"model": True}}, "integrator.model"),
    ])
    def test_bools_rejected(self, doc, location):
        # a bool is an int in Python, but no key takes one
        with pytest.raises(ConfigError) as exc:
            RunConfig(doc)
        assert exc.value.location == location
        with pytest.raises(ConfigError):
            RunConfig().set_path(location, True)

    @pytest.mark.parametrize("value", [0, 0.0, False, "", [], "text", [1], 4.2])
    def test_section_must_be_a_mapping(self, value):
        for section in DEFAULTS:
            with pytest.raises(ConfigError) as exc:
                RunConfig({section: value})
            assert exc.value.location == section

    @pytest.mark.parametrize("text", ["0", "false", "''", "[]", "text", "- physical"])
    def test_document_must_be_a_mapping(self, text):
        with pytest.raises(ConfigError):
            RunConfig.parse(text)

    def test_null_keeps_defaults(self):
        assert RunConfig.parse("").data == DEFAULTS
        assert RunConfig.parse("physical:\nprotocol: null\n").data == DEFAULTS
        assert RunConfig({"rates": {"r1_2pikhz": None}}).data == DEFAULTS

    # config_hash of documents as printed since the schema lost its
    # `initial` section: a value is stored as given, so dt_us: 100 and
    # dt_us: 100.0 are different documents
    @pytest.mark.parametrize("doc, digest", [
        ({}, "5f2de6c9ace12bf5"),
        ({"protocol": {"dt_us": 100, "n_max": 300}}, "fa453bd816ff6bc7"),
        ({"protocol": {"dt_us": 100.0, "n_max": 300}}, "5f2de6c9ace12bf5"),
        ({"physical": {"i0": 3e-4, "alpha_deg": 60, "b_field_2pikhz": 300}},
         "4f927ebc9375f4d6"),
        ({"rates": {"r1_2pikhz": 2, "r2_2pikhz": 4.0},
          "integrator": {"model": "adiabatic"}}, "481690a2db1ca876"),
        ({"detection": {"mode": "thresholded-counts", "threshold": 12,
                        "bright_rate_hz": 3500},
          "protocol": {"seed": 2**63, "prep_error": 0}}, "6cf6e44132efec9b"),
        ({"physical": None, "rates": {"r1_2pikhz": None}}, "5f2de6c9ace12bf5"),
        ("protocol:\n  dt_us: 100\n  probe_ms: 5\n"
         "physical:\n  i0: 3e-4\n  omega_mw_2pikhz: 4.2\n", "593df4162d4bc093"),
    ])
    def test_hash_pinned(self, doc, digest):
        cfg = RunConfig.parse(doc) if isinstance(doc, str) else RunConfig(doc)
        assert cfg.hash() == digest

    def test_set_path_changes_only_its_own_config(self):
        # a config copies DEFAULTS section by section: setting every leaf of
        # one reaches neither DEFAULTS nor another config, and both keep the
        # hash and serialized bytes they had when DEFAULTS was deep-copied
        defaults = copy.deepcopy(DEFAULTS)
        changed, untouched = RunConfig(), RunConfig()
        for section, keys in DEFAULTS.items():
            for key, value in keys.items():
                new = {str: "changed", int: 1, float: 1.0, type(None): 1.0}[type(value)]
                changed.set_path(f"{section}.{key}", new)
        assert DEFAULTS == defaults
        assert untouched.data == RunConfig().data == defaults
        for cfg, digest, text_digest in ((changed, "2a5e91e6813632ba", "6e3479419f7d0d50"),
                                         (untouched, "5f2de6c9ace12bf5", "16e9cf132883453c")):
            assert cfg.hash() == digest
            assert hashlib.sha256(cfg.serialize().encode()).hexdigest()[:16] == text_digest

    def test_set_path_rejects_unknown(self):
        cfg = RunConfig()
        with pytest.raises(ConfigError):
            cfg.set_path("physical.nope", 1.0)
        with pytest.raises(ConfigError):
            cfg.set_path("noseparator", 1.0)


class TestCliRates:
    def test_zero_light_defaults(self, capsys):
        assert main(["rates"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rates"]["r1_2pikhz"] == 0.0
        assert doc["effective"]["Gamma_2pikhz"] is None
        assert "config_hash" in doc["provenance"]

    def test_override_flags(self, capsys):
        assert main(["rates", "--i0", "1e-3", "--alpha-deg", "60"]) == 0
        doc = json.loads(capsys.readouterr().out)
        r1, r2 = doc["rates"]["r1_2pikhz"], doc["rates"]["r2_2pikhz"]
        assert r1 > 0 and r2 > 0
        # weak field at zero detuning/field: r2/r1 = 2 tan^2(alpha) = 6
        assert r2 / r1 == pytest.approx(6.0, rel=2e-2)


class TestCliSimulate:
    def test_pi_pulse_row(self, tmp_path, capsys):
        # Omega = 4.2 2pi-kHz; dt chosen so N = 50 lands on theta = pi
        dt_us = 0.5e6 / (50 * 4.2e3)
        out = tmp_path / "curve.csv"
        rc = main(["simulate", "--dt-us", str(dt_us), "--nmax", "50",
                   "--out", str(out)])
        assert rc == 0
        tau, p1, sigma = read_curve_file(out)
        assert sigma is None
        assert p1[-1] == pytest.approx(1.0, abs=1e-6)
        assert tau[-1] == pytest.approx(50 * dt_us * 1e-6, rel=1e-12)

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = tmp_path / "run.yaml"
        cfg.write_text("integrator:\n  model: adiabatic\n")
        args = ["simulate", "--config", str(cfg), "--i0", "2e-4",
                "--alpha-deg", "50", "--nmax", "80"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(
            "rates:\n  r1_2pikhz: 2.0\n  r2_2pikhz: 4.0\n"
            "integrator:\n  model: adiabatic\n"
            "protocol:\n  n_max: 200\n"
        )
        out = tmp_path / "curve.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        _, p1, _ = read_curve_file(out)
        # ratio 2 plateau
        assert p1[-1] == pytest.approx(2 / 3, abs=1e-2)


class TestCliTrajectories:
    def test_writes_both_files_reproducibly(self, tmp_path):
        base1, base2 = tmp_path / "run1", tmp_path / "run2"
        args = ["trajectories", "--i0", "2e-4", "--alpha-deg", "50",
                "--nmax", "40", "--ntraj", "8", "--dt-us", "50", "--seed", "3"]
        assert main(args + ["--out", str(base1)]) == 0
        assert main(args + ["--out", str(base2)]) == 0
        t1 = (tmp_path / "run1.traj.txt").read_bytes()
        t2 = (tmp_path / "run2.traj.txt").read_bytes()
        assert t1 == t2
        c1 = (tmp_path / "run1.curve.csv").read_bytes()
        assert c1 == (tmp_path / "run2.curve.csv").read_bytes()
        tau, p1, sigma = read_curve_file(tmp_path / "run1.curve.csv")
        assert len(tau) == 40
        assert sigma is not None and np.all(sigma > 0)


class TestPreparedState:
    @pytest.mark.parametrize("model", ["full", "adiabatic"])
    @pytest.mark.parametrize("eps", [0, 0.3, 1])
    def test_simulate_starts_from_prep_error(self, tmp_path, model, eps):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"rates: {{r1_2pikhz: 0.2, r2_2pikhz: 0.4}}\n"
                       f"integrator: {{model: {model}}}\n"
                       f"protocol: {{n_max: 40, prep_error: {eps}}}\n")
        out = tmp_path / "curve.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[5:]]
        run = RunConfig.load(cfg)
        params, rates, proto = run.physical_params(), run.rates(), run.protocol_config()

        def p1_curve(prep_error):
            return run_trajectories(params, rates, replace(proto, prep_error=prep_error),
                                    model).p1_curve

        curve = p1_curve(eps)
        assert [row[2] for row in rows] == [f"{v:.12g}" for v in curve]
        mixture = (1 - eps) * p1_curve(0.0) + eps * p1_curve(1.0)
        assert np.max(np.abs(curve - mixture)) <= 1e-15

    @pytest.mark.parametrize("argv", [["simulate"], ["sweep", "--axis", "physical.i0=1e-4"],
                                      ["trajectories"]], ids=lambda argv: argv[0])
    def test_initial_section_exit_2(self, tmp_path, capsys, argv):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("initial:\n  n0: 0.3\n  n1: 0.3\n")
        assert main([*argv, "--config", str(cfg), "--nmax", "5",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.rstrip().endswith("(at initial)")


class TestCliFit:
    def test_fit_recovers_rates(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(
            "rates:\n  r1_2pikhz: 0.2\n  r2_2pikhz: 0.4\n"
            "physical:\n  omega_mw_2pikhz: 4.2\n"
            "integrator:\n  model: adiabatic\n"
            "protocol:\n  n_max: 300\n  dt_us: 100.0\n"
        )
        curve = tmp_path / "curve.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(curve)]) == 0
        assert main(["fit", str(curve), "--omega-2pikhz", "4.2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["omega"] == pytest.approx(4.2, rel=1e-2)
        assert doc["p_inf"] == pytest.approx(2 / 3, abs=1e-2)
        assert doc["derived"]["r2_over_r1"] == pytest.approx(2.0, rel=0.1)

    def test_fit_flat_curve_exit_3(self, tmp_path, capsys):
        curve = tmp_path / "flat.csv"
        lines = ["theta_rad,tau_s,p1,n0,n1,n2,n3"]
        for i in range(1, 51):
            lines.append(f"{i * 0.1},{i * 1e-4},0.5,0.5,0.5,0,0")
        curve.write_text("\n".join(lines) + "\n")
        assert main(["fit", str(curve)]) == 3

    @staticmethod
    def _plateau_curve(tmp_path):
        # plateau 0.8, envelope decay 1e3 /s, Omega = 4.2 2pi kHz
        tau = np.arange(1, 301) * 1e-5
        p1 = 0.8 * (1 - np.exp(-1e3 * tau) * np.cos(4.2 * TWO_PI_KHZ * tau))
        curve = tmp_path / "plateau.csv"
        curve.write_text("tau_s,p1\n" + "".join(f"{t!r},{p!r}\n" for t, p in zip(tau.tolist(), p1.tolist())))
        return str(curve)

    def test_fit_omega_overflow_reports_derived_error(self, tmp_path, capsys):
        # Omega**2 beyond the float range: the fit stands, Gamma is reported
        # as an error, as for any out-of-range derivation
        assert main(["fit", self._plateau_curve(tmp_path), "--omega-2pikhz", "1e300"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "beyond the float range" in doc["derived"]["error"]
        assert doc["p_inf"] == pytest.approx(0.8, abs=1e-6)

    def test_r2_over_r1_from_plateau(self, tmp_path, capsys):
        # at 2e150, Gamma * gamma overflows; the ratio still comes from p_inf
        curve, ratios = self._plateau_curve(tmp_path), []
        for omega in ("4.2", "2e150"):
            assert main(["fit", curve, "--omega-2pikhz", omega]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["derived"]["r2_over_r1"] == invert_saturation(doc["p_inf"])
            ratios.append(doc["derived"]["r2_over_r1"])
        assert ratios[0] == ratios[1] == pytest.approx(2 / 3, rel=1e-5)


class TestCliDesign:
    def test_feasible(self, capsys):
        rc = main([
            "design", "--omega-2pikhz", "10",
            "--b-field-2pikhz", "5000",
            "--target-gamma-2pikhz", "0.1",
            "--target-big-gamma-2pikhz", "500",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verification"]["within_tol"]
        assert 0 < doc["knobs"]["alpha_deg"] < 90

    def test_infeasible_exit_4(self, capsys):
        rc = main([
            "design", "--omega-2pikhz", "10",
            "--b-field-2pikhz", "5000",
            "--target-gamma-2pikhz", "0.1",
            "--target-big-gamma-2pikhz", "500",
            "--i0-max", "1e-12",
        ])
        assert rc == 4
        doc = json.loads(capsys.readouterr().out)
        assert doc["infeasible"]
        assert doc["binding_constraint"] == "i0_bounds"

    def test_infeasible_carries_provenance(self, capsys):
        argv = ["design", "--omega-2pikhz", "10", "--target-gamma-2pikhz", "0.1",
                "--target-big-gamma-2pikhz", "500"]
        assert main(argv) == 0
        feasible = json.loads(capsys.readouterr().out)
        assert main([*argv, "--i0-max", "1e-9"]) == 4
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["provenance"] == feasible["provenance"]


class TestCliSweep:
    def test_plateau_family(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(
            "rates:\n  r1_2pikhz: 2.0\n  r2_2pikhz: 2.0\n"
            "integrator:\n  model: adiabatic\n"
        )
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--config", str(cfg), "--out", str(out),
                   "--axis", "rates.r2_2pikhz=1.0,4.0"])
        assert rc == 0
        # each axis value carries the hash of the config that produced it
        text = out.read_text()
        hashes = dict(re.findall(r"^# config_hash\[(.+)\]=(\w+)$", text, re.M))
        expected = RunConfig.load(cfg)
        for value in (1.0, 4.0):
            expected.set_path("rates.r2_2pikhz", value)
            assert hashes[f"{value:.12g}"] == expected.hash()
        body = [l for l in text.splitlines() if not l.startswith("#")]
        rows = [l.split(",") for l in body[1:]]
        finals = {}
        for r in rows:
            finals[float(r[0])] = float(r[3])  # last p1 per axis value wins
        # plateau 1 - (r2/r1)/(2 (1 + r2/r1))
        assert finals[1.0] == pytest.approx(1 - 0.5 / (2 * 1.5), abs=1e-2)
        assert finals[4.0] == pytest.approx(1 - 2 / (2 * 3.0), abs=1e-2)

    def test_integer_axis(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--out", str(out), "--axis", "protocol.n_max=10,5"]) == 0
        text = out.read_text()
        hashes = dict(re.findall(r"^# config_hash\[(.+)\]=(\w+)$", text, re.M))
        for value in (5, 10):
            expected = RunConfig()
            expected.set_path("protocol.n_max", value)
            assert hashes[str(value)] == expected.hash()
        body = [l for l in text.splitlines() if not l.startswith("#")]
        axis = [l.split(",")[0] for l in body[1:]]
        assert axis == ["5"] * 5 + ["10"] * 10  # n_max rows after t = 0 per value

    def test_empty_axis_echoes_config(self, capsys):
        assert main(["sweep", "--axis", "physical.i0="]) == 0
        out = capsys.readouterr().out
        assert "empty axis" in out
        assert "omega_mw_2pikhz" in out


class TestExitCodes:
    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("physical:\n  bogus_key: 1\n")
        assert main(["rates", "--config", str(cfg)]) == 2
        assert "physical.bogus_key" in capsys.readouterr().err

    @pytest.mark.parametrize("axis, message", [
        ("nonsense", "--axis must be 'key=values'"),
        ("physical.i0", "--axis must be 'key=values'"),
        ("physical.i0:1e-4,2e-4", "--axis must be 'key=values'"),
        ("physical.io=", "unknown key 'physical.io' (at physical.io)"),
    ], ids=["no-key", "no-values", "colon", "unknown-key-empty"])
    def test_mistyped_sweep_axis_exit_2(self, capsys, axis, message):
        # each was an empty-axis table with exit 0
        assert main(["sweep", "--axis", axis, "--nmax", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error") and message in captured.err

    def test_yaml_exponent_without_dot(self, tmp_path, capsys):
        # YAML 1.1 reads 3e-4 as a string; the config loader reads it as
        # YAML 1.2 does, so it is the same document as 3.0e-4
        hashes = []
        for name, doc in (("nodot", "i0: 3e-4"), ("dot", "i0: 3.0e-4"), ("unset", "")):
            cfg = tmp_path / f"{name}.yaml"
            cfg.write_text(f"physical:\n  {doc}\n")
            assert main(["simulate", "--config", str(cfg), "--nmax", "5"]) == 0
            out = capsys.readouterr().out
            hashes.append(re.search(r"^# config_hash=(\w+)$", out, re.M).group(1))
        assert hashes[0] == hashes[1] != hashes[2]

    @pytest.mark.parametrize("doc", ["physical: [unclosed\n", "physical:\n  i0: 3e\n"],
                             ids=["parse-error", "not-a-number"])
    def test_bad_yaml_exit_2(self, tmp_path, capsys, doc):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(doc)
        assert main(["rates", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "Traceback" not in err

    @pytest.mark.parametrize("doc, location", [
        ("physical:\n  i0: true\n", "physical.i0"),
        ("protocol:\n  seed: true\n", "protocol.seed"),
        ("physical: 0\n", "physical"),
        ("protocol: false\n", "protocol"),
    ], ids=["number-bool", "int-bool", "section-zero", "section-false"])
    def test_bool_or_scalar_section_exit_2(self, tmp_path, capsys, doc, location):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(doc)
        assert main(["rates", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.endswith(f"(at {location})\n")

    @pytest.mark.parametrize("doc", [
        "detection: {eps_on: 0.7}\n",
        f"detection: {{mode: thresholded-counts, threshold: {10**400}}}\n",
        f"detection: {{mode: thresholded-counts, threshold: {10**306}}}\n",
        "detection: {mode: thresholded-counts, threshold: -5}\n",
    ], ids=["eps-on", "threshold-beyond-float", "threshold-huge", "threshold-negative"])
    def test_detection_error_located(self, tmp_path, capsys, doc):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(doc)
        rc = main(["trajectories", "--config", str(cfg), "--nmax", "3", "--ntraj", "2",
                   "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error") and err.endswith("(at detection)\n")

    def test_infinite_design_caps_accepted(self, capsys):
        # --i0-max inf means no cap; an infinite field window is harmless
        # while the field is held fixed
        assert main(["design", "--target-gamma-2pikhz", "0.1",
                     "--target-big-gamma-2pikhz", "500", "--i0-max", "inf",
                     "--b-max-2pikhz", "inf"]) == 0
        assert json.loads(capsys.readouterr().out)["verification"]["within_tol"]

    def test_two_level_model_exit_2(self, tmp_path, capsys):
        # the model variants are dynamics.MODELS: full and adiabatic
        cfg = tmp_path / "run.yaml"
        cfg.write_text("integrator: {model: two-level}\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.endswith("(at integrator.model)\n")

    def test_regime_violation_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "strong.yaml"
        cfg.write_text(
            "physical:\n  i0: 0.5\n  alpha_deg: 20.0\n"
            "integrator:\n  model: adiabatic\n"
        )
        assert main(["simulate", "--config", str(cfg)]) == 3

    @pytest.mark.parametrize("argv, doc", [
        (["rates", "--i0", "nan"], ""),
        (["rates", "--omega-2pikhz", "inf"], ""),
        (["simulate", "--dt-us", "nan"], ""),
        (["rates"], "rates:\n  r1_2pikhz: -1\n  r2_2pikhz: 1.0\n"),
        (["rates"], "rates:\n  r1_2pikhz: .nan\n  r2_2pikhz: 1.0\n"),
        (["simulate"], "initial:\n  n0: .nan\n"),
        (["rates"], "physical:\n  i0: null\n"),
        (["simulate"], "protocol:\n  probe_ms: .nan\n"),
        (["simulate"], "detection:\n  bright_rate_hz: -1.0\n"),
        (["design", "--target-gamma-2pikhz", "nan",
          "--target-big-gamma-2pikhz", "500"], ""),
        (["sweep", "--axis", "physical.i0=abc"], ""),
        # an axis value is read by its key's kind: no strings, no fractional integers
        (["sweep", "--axis", "integrator.model=full"], ""),
        (["sweep", "--axis", "detection.mode=ideal"], ""),
        (["sweep", "--axis", "protocol.n_max=10.5"], ""),
        (["trajectories", "--seed", "-1"], ""),
        (["design", "--target-gamma-2pikhz", "0.1", "--target-big-gamma-2pikhz", "500",
          "--optimize-b", "--b-max-2pikhz", "nan"], ""),
        (["design", "--target-gamma-2pikhz", "0.1", "--target-big-gamma-2pikhz", "500",
          "--optimize-b", "--b-max-2pikhz", "inf"], ""),
        (["design", "--target-gamma-2pikhz", "0.1", "--target-big-gamma-2pikhz", "500",
          "--i0-max", "nan"], ""),
        (["simulate"], "integrator:\n  model: nope\n"),
        (["trajectories"], "protocol:\n  prep_error: 1.5\n"),
        (["trajectories"], "protocol:\n  prep_error: -0.1\n"),
        # every --config command builds the whole document
        (["rates"], "integrator:\n  model: nope\n"),
        (["rates"], "detection:\n  eps_on: 0.7\n"),
        (["rates"], "protocol:\n  prep_error: 1.5\n"),
        (_DESIGN, "integrator:\n  model: nope\n"),
        (_DESIGN, "detection:\n  eps_on: 0.7\n"),
        (_DESIGN, "rates:\n  r1_2pikhz: 1.0\n"),
        (["sweep", "--axis", "physical.i0="], "detection:\n  eps_on: 0.7\n"),
        # rates no light can produce: r1 >= gamma3/2, r2 >= gamma3
        (["rates"], "rates: {r1_2pikhz: 20000, r2_2pikhz: 30000}\n"),
        (["simulate"], "rates: {r1_2pikhz: 20000, r2_2pikhz: 30000}\n"),
    ], ids=["i0-nan", "omega-inf", "dt-nan", "r1-negative", "r1-nan", "n0-nan",
            "i0-null", "probe-nan", "bright-negative", "target-nan", "axis-text",
            "axis-model", "axis-mode", "axis-fractional-int",
            "seed-negative", "b-max-nan", "b-max-inf", "i0-max-nan", "model-unknown",
            "prep-error-above-one", "prep-error-negative", "rates-model-unknown",
            "rates-eps-on", "rates-prep-error", "design-model-unknown", "design-eps-on",
            "design-rates-half", "sweep-empty-eps-on", "rates-beyond-saturation",
            "simulate-rates-beyond-saturation"])
    def test_invalid_number_exit_2(self, tmp_path, capsys, argv, doc):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(doc)
        rc = main([*argv, "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error") and "Traceback" not in err

    @pytest.mark.parametrize("argv, text", [
        (["fit", "{curve}"], "theta_rad,tau_s,p1\n0.1,1e-4,0.5\n0.2,2e-4,abc\n"),
        (["fit", "{curve}"], "tau_s,p1,n0\n{good}"),
        (["fit", "{curve}"], "tau_s,p1\n{good}1e-3,nan\n"),
        (["fit", "{curve}"], "theta_rad,tau_s,p1\n0.1,1e-4,0.5\n0.2,2e-4\n"),
        (["fit", "{curve}"], "# seed=0\ntheta_rad,tau_s,p1\n\n# no rows\n"),
        (["fit", "{curve}"], "# dt_us=fast\nN,p1_mean\n1,0.5\n"),
        (["fit", "{curve}"], "\xff\xfe"),
        (["fit", "{dir}/missing.csv"], None),
        (["simulate", "--nmax", "5", "--out", "{dir}/no/such/dir/x.csv"], None),
        (["fit", "{curve}", "--omega-2pikhz", "nan"], "tau_s,p1\n{good}"),
        (["fit", "{curve}", "--omega-2pikhz", "inf"], "tau_s,p1\n{good}"),
        (["fit", "{curve}", "--omega-2pikhz", "0"], "tau_s,p1\n{good}"),
        (["fit", "{curve}", "--omega-2pikhz", "-4.2"], "tau_s,p1\n{good}"),
        (["fit", "{curve}"], "tau_s,p1\n{reversed}"),
        (["fit", "{curve}"], "N,p1\n1,0.5\n2,0.6\n"),
        (["fit", "{curve}"], "tau_s,n0\n1e-4,0.5\n2e-4,0.6\n"),
    ], ids=["text-cell", "short-rows", "nan-cell", "ragged-rows", "no-rows", "dt-text",
            "not-text", "missing-file", "out-dir-missing", "omega-nan", "omega-inf",
            "omega-zero", "omega-negative", "time-decreasing", "no-time-axis",
            "no-p1-column"])
    def test_bad_input_exit_2(self, tmp_path, capsys, argv, text):
        # {good}: rows (tau_s, p1) of a damped nutation that the fit resolves;
        # {reversed}: the same rows in reverse order
        tau = np.arange(1, 301) * 1e-4
        p1 = 2 / 3 * (1 - np.exp(-300 * tau) * np.cos(4.2 * TWO_PI_KHZ * tau))
        rows = [f"{t!r},{p!r}\n" for t, p in zip(tau.tolist(), p1.tolist())]
        curve = tmp_path / "curve.csv"
        if text is not None:
            text = text.replace("{good}", "".join(rows))
            text = text.replace("{reversed}", "".join(rows[::-1]))
            curve.write_bytes(text.encode("latin-1"))
        rc = main([a.format(curve=curve, dir=tmp_path) for a in argv])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--nmax", str(2**62)],
        ["trajectories", "--nmax", "3", "--ntraj", str(2**62)],
        ["simulate", "--nmax", str(2**53)],
        ["trajectories", "--nmax", str(2**27), "--ntraj", str(2**26)],
    ], ids=["simulate-nmax-2**62", "trajectories-ntraj-2**62", "simulate-nmax-2**53",
            "trajectories-bits-2**53"])
    def test_protocol_beyond_exact_counts_exit_2(self, tmp_path, capsys, argv):
        # rejected by ProtocolConfig before any array is allocated
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == ("config error: n_max and n_trajectories * n_max must lie below "
                       "2**53 (at protocol)\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 7.28 TiB"), "Unable to allocate 7.28 TiB"),
        (MemoryError(), "allocation failed"),
    ], ids=["numpy-message", "bare"])
    def test_out_of_memory_exit_2(self, capsys, monkeypatch, exc, message):
        def no_memory(*_):  # stands in for an allocation this machine cannot make
            raise exc

        monkeypatch.setattr("iondeco.cli.drive_series", no_memory)
        assert main(["simulate"]) == 2
        assert capsys.readouterr().err == f"config error: out of memory: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["simulate", "--dt-us", "1e6", "--omega-2pikhz", "1e20", "--i0", "4.2",
         "--nmax", "5"],
        ["simulate", "--dt-us", "1e20", "--nmax", "20"],
        ["trajectories", "--dt-us", "1e20", "--nmax", "5", "--ntraj", "3"],
        ["rates", "--alpha-deg", "4.2", "--omega-2pikhz", "1e300", "--i0", "1e100"],
        ["sweep", "--dt-us", "1e20", "--omega-2pikhz", "1e300", "--nmax", "5",
         "--axis", "physical.i0=0.5"],
        ["rates", "--i0", "5e-104", "--alpha-deg", "5e-104", "--b-field-2pikhz", "5e-104"],
    ], ids=["simulate-lost-accuracy", "simulate-overflow", "trajectories-overflow",
            "rates-overflow", "sweep-infinite-step", "rates-infinite-Gamma"])
    def test_overflow_exit_3(self, tmp_path, capsys, argv):
        # a step |A h| near the float range either overflows or loses every
        # digit; neither may be written as a curve
        assert main([*argv, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and err.count("\n") == 1
        assert re.search("beyond the float range|lost accuracy", err)  # not an errno
        assert list(tmp_path.iterdir()) == []


def _reference_series_rows(params, series):
    """The deleted cli._series_rows loop, verbatim."""
    rows = []
    for i in range(1, len(series.t)):
        u, v, n0, n1, n2, n3 = series.y[i]
        tau = series.t[i]
        rows.append(
            f"{params.omega_mw * tau:.12g},{tau:.12g},{n1 + n2:.12g},"
            f"{n0:.12g},{n1:.12g},{n2:.12g},{n3:.12g}"
        )
    return rows


def _edge_floats(rng, n):
    """Random magnitudes from 1e-300 to 1e300 of either sign, then +-0,
    +-inf, nan and two subnormals."""
    x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
    return np.concatenate([x, [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310]])


_FRESH_PROCESS = """
import json, sys
from iondeco.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


_FRESH_NUMPY = """
import json, sys

def numpy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "numpy")

import iondeco
steps = [["import iondeco", None, numpy_modules()]]
from iondeco.cli import main
steps.append(["import iondeco.cli", None, numpy_modules()])
for argv in json.loads(sys.argv[1]):
    try:
        code = main(argv)
    except SystemExit as exc:  # --version and --help
        code = exc.code
    steps.append([" ".join(argv), code, numpy_modules()])
print(json.dumps(steps))
"""

_FRESH_TRACED_NAMES = """
import json, sys
import iondeco.cli
owners = {path: sys.modules[path] for path in ("iondeco.cli", "iondeco.protocol",
                                               "iondeco.config")}
owners["iondeco.cli.RunConfig"] = iondeco.cli.RunConfig
names = json.loads(sys.argv[1])
print(json.dumps([f"{path}.{attr}" for path, attrs in names.items() for attr in attrs
                  if vars(owners[path]).get(attr) is None]))
"""


def _run_fresh(argvs, snippet=_FRESH_PROCESS):
    """Run `snippet` (by default: `main` on each argv) in a fresh interpreter
    with argvs as JSON in sys.argv[1]; return the JSON of its last stdout
    line (by default: the exit codes and the scipy modules loaded by the end)."""
    src = str(Path(iondeco.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", snippet, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestColdStart:
    def test_every_command_loads_no_scipy(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("rates:\n  r1_2pikhz: 0.2\n  r2_2pikhz: 0.4\n"
                       "integrator:\n  model: adiabatic\n"
                       "protocol:\n  n_max: 300\n  dt_us: 100.0\n")
        curve = str(tmp_path / "fit_input.csv")
        result = _run_fresh([
            ["rates", "--i0", "1e-3", "--alpha-deg", "60"],
            ["simulate", "--i0", "3e-4", "--alpha-deg", "60", "--nmax", "20",
             "--out", str(tmp_path / "curve.csv")],
            ["sweep", "--axis", "physical.i0=1e-4,2e-4", "--nmax", "10",
             "--out", str(tmp_path / "sweep.csv")],
            ["trajectories", "--nmax", "10", "--ntraj", "4",
             "--out", str(tmp_path / "traj")],
            ["design", "--omega-2pikhz", "10", "--b-field-2pikhz", "5000",
             "--target-gamma-2pikhz", "0.1", "--target-big-gamma-2pikhz", "500"],
            ["design", "--omega-2pikhz", "10", "--optimize-b", "--b-max-2pikhz", "5000",
             "--target-gamma-2pikhz", "0.1", "--target-big-gamma-2pikhz", "500"],
            ["simulate", "--config", str(cfg), "--out", curve],
            ["fit", curve],
            ["fit", curve, "--omega-2pikhz", "4.2"],
        ])
        assert result == {"codes": [0] * 9, "scipy": []}

    def test_rates_and_design_load_no_numpy(self, tmp_path):
        design = ["design", "--omega-2pikhz", "10", "--target-gamma-2pikhz", "0.1",
                  "--target-big-gamma-2pikhz", "500"]
        curve = str(tmp_path / "curve.csv")
        steps = _run_fresh([
            ["--version"],
            ["rates", "--help"],
            ["rates", "--i0", "1e-3", "--alpha-deg", "60"],
            [*design, "--b-field-2pikhz", "5000"],
            [*design, "--optimize-b", "--b-max-2pikhz", "5000"],
            [*design, "--i0-max", "1e-9"],
            ["rates", "--config", str(tmp_path / "missing.yaml")],
            ["simulate", "--i0", "3e-4", "--alpha-deg", "60", "--nmax", "60",
             "--out", curve],
            ["fit", curve],
        ], snippet=_FRESH_NUMPY)
        assert [code for _, code, _ in steps[2:]] == [0, 0, 0, 0, 0, 4, 2, 0, 0]
        without = {step: numpy for step, _, numpy in steps[:-2]}
        assert without == {step: [] for step in without}
        assert all("numpy" in numpy for _, _, numpy in steps[-2:])

    def test_traced_names_are_bound(self):
        # every function the benchmark's tracer wraps, by the name the CLI
        # (or the module calling it) resolves at call time
        names = {
            "iondeco.cli": ["main", "run_trajectories", "accumulate",
                            "write_trajectories", "write_curve_csv", "fit_nutation",
                            "effective_from_fit", "design_decoherence", "verify_design",
                            "effective_rates", "RunConfig"],
            "iondeco.protocol": ["integrate"],
            "iondeco.config": ["scattering_rates"],
            "iondeco.cli.RunConfig": ["__init__", "load", "parse", "set_path", "serialize",
                                      "hash", "physical_params", "rates",
                                      "protocol_config", "model_variant"],
        }
        assert _run_fresh(names, snippet=_FRESH_TRACED_NAMES) == []


class TestCurveTables:
    def test_format_table_matches_reference(self):
        rng = np.random.default_rng(5)
        x = _edge_floats(rng, 400)
        ints = rng.integers(0, 10**12, len(x)).astype(float)
        ints[:4] = [0, 1, 10**11, 10**12 - 1]  # %.12g is exact below 1e12
        table = np.column_stack([ints, x, rng.permutation(x), x[::-1]])
        text = format_table(["tool 1", "k=v"], "N,a,b,c", table)
        lines = text.split("\n")
        assert lines[:3] == ["# tool 1", "# k=v", "N,a,b,c"]
        # the per-row f-strings that format_table replaced; N was printed as an int
        reference = [",".join([str(int(row[0]))] + [f"{v:.12g}" for v in row[1:]])
                     for row in table]
        assert lines[3:] == reference + [""]

    def test_empty_table(self):
        assert format_table(["h"], "a,b", np.empty((0, 2))) == "# h\na,b\n"

    def test_write_curve_csv_matches_reference(self, tmp_path):
        rng = np.random.default_rng(6)
        x = _edge_floats(rng, 100)
        n = np.arange(1, len(x) + 1)
        curve = AccumulatedCurve(n=n, theta_rad=x, tau_s=n * 1e-4, p1_mean=x[::-1],
                                 ci_low=rng.permutation(x), ci_high=x, n_samples=10**12 - 1)
        path = tmp_path / "curve.csv"
        write_curve_csv(path, curve, provenance=["iondeco test", "dt_us=100.0"])
        reference = [f"{curve.n[i]},{curve.theta_rad[i]:.12g},{curve.p1_mean[i]:.12g},"
                     f"{curve.ci_low[i]:.12g},{curve.ci_high[i]:.12g},{curve.n_samples}"
                     for i in range(len(curve.n))]
        lines = path.read_text().splitlines()
        assert lines[:3] == ["# iondeco test", "# dt_us=100.0",
                             "N,theta_rad,p1_mean,ci_low,ci_high,n_samples"]
        assert lines[3:] == reference

    def test_simulate_matches_reference(self, tmp_path):
        args = ["--i0", "3e-4", "--alpha-deg", "60", "--nmax", "80", "--dt-us", "7"]
        out = tmp_path / "curve.csv"
        assert main(["simulate", *args, "--out", str(out)]) == 0
        cfg = RunConfig({"physical": {"i0": 3e-4, "alpha_deg": 60.0},
                         "protocol": {"n_max": 80, "dt_us": 7.0}})
        params, series = _simulate_series(cfg)
        lines = out.read_text().splitlines()
        assert lines[:5] == [f"# iondeco {__version__}", f"# config_hash={cfg.hash()}",
                             "# seed=0", "# dt_us=7.0", "theta_rad,tau_s,p1,n0,n1,n2,n3"]
        assert lines[5:] == _reference_series_rows(params, series)

    def test_sweep_matches_reference(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--i0", "2e-4", "--nmax", "40", "--out", str(out),
                     "--axis", "physical.alpha_deg=60,30,45"]) == 0
        cfg = RunConfig({"physical": {"i0": 2e-4}, "protocol": {"n_max": 40}})
        reference = []
        for value in (30.0, 45.0, 60.0):
            cfg.set_path("physical.alpha_deg", value)
            params, series = _simulate_series(cfg)
            rows = _reference_series_rows(params, series)
            reference += [f"{value:.12g},{row}" for row in rows]
        lines = out.read_text().splitlines()
        start = lines.index("axis_value,theta_rad,tau_s,p1,n0,n1,n2,n3") + 1
        assert lines[start:] == reference


# a value for each override flag that differs from the config default
_FLAG_VALUES = {"i0": "1e-4", "alpha_deg": "30", "b_field_2pikhz": "100",
                "omega_2pikhz": "5", "detuning_2pikhz": "1", "dt_us": "20",
                "nmax": "7", "ntraj": "3", "seed": "9"}


def _flag_type(attr):
    """The type an override flag parses to: that of its key's default."""
    section, key = _OVERRIDES[attr].split(".")
    return type(DEFAULTS[section][key])


class TestOverrideFlags:
    @staticmethod
    def _hash(capsys, argv):
        assert main(["simulate", *argv]) == 0
        return re.search(r"^# config_hash=(\w+)$", capsys.readouterr().out, re.M).group(1)

    @pytest.mark.parametrize("attr", list(_OVERRIDES))
    def test_flag_sets_its_config_key(self, tmp_path, capsys, attr):
        path, cast = _OVERRIDES[attr], _flag_type(attr)
        section, key = path.split(".")
        base = {"protocol": {"n_max": 5}}
        keyed = {**base, section: {**base.get(section, {}), key: cast(_FLAG_VALUES[attr])}}
        for name, doc in (("base", base), ("keyed", keyed)):
            (tmp_path / f"{name}.yaml").write_text(yaml.safe_dump(doc))
        flag = "--" + attr.replace("_", "-")
        by_flag = self._hash(capsys, ["--config", str(tmp_path / "base.yaml"),
                                      flag, _FLAG_VALUES[attr]])
        by_yaml = self._hash(capsys, ["--config", str(tmp_path / "keyed.yaml")])
        unset = self._hash(capsys, ["--config", str(tmp_path / "base.yaml")])
        assert by_flag == by_yaml != unset

    def test_format_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rates", "--format", "csv"])
        assert exc.value.code == 2


# Override flags as the shell passes them: floats of any kind, NaN, +-inf,
# subnormals and the ends of the double range included, and ints on both
# sides of their valid ranges.
_FLOAT_FLAGS = [attr for attr in _OVERRIDES if _flag_type(attr) is float]
_ANY_FLOAT = st.floats() | st.sampled_from([1e308, -1e308, 5e-324, -5e-324])
_FLAG_STRATEGIES = {**{attr: _ANY_FLOAT for attr in _FLOAT_FLAGS},
                    "nmax": st.integers(-3, 40), "ntraj": st.integers(-3, 20)}
# columns of the curve tables that hold populations or probabilities
_POPULATION_COLUMNS = {"p1", "n0", "n1", "n2", "n3", "p1_mean", "ci_low", "ci_high"}
_SLACK = 1e-9  # dynamics' bound on a propagated population outside [0, 1]


@st.composite
def _fuzzed_argv(draw):
    command = draw(st.sampled_from(["rates", "simulate", "sweep", "trajectories"]))
    flags = draw(st.fixed_dictionaries({}, optional=_FLAG_STRATEGIES))
    # --flag=VALUE, so that a negative value reaches the config layer
    argv = [command, *(f"--{attr.replace('_', '-')}={value!r}"
                       for attr, value in flags.items())]
    if command == "sweep":
        path = _OVERRIDES[draw(st.sampled_from(_FLOAT_FLAGS))]
        values = draw(st.lists(_ANY_FLOAT, max_size=2))
        argv.append(f"--axis={path}=" + ",".join(map(repr, values)))
    return argv


def _check_curve_table(path):
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    columns = lines[0].strip().split(",")
    table = np.loadtxt(lines[1:], delimiter=",", ndmin=2) if lines[1:] else np.empty((0, 0))
    assert np.isfinite(table).all()
    for name, column in zip(columns, table.T):
        if name in _POPULATION_COLUMNS:
            assert column.min() >= -_SLACK and column.max() <= 1 + _SLACK, name


def _check_fuzzed_run(argv, out):
    """Exit code in {0, 2, 3, 4}, never another exception; on exit 0, every
    written value finite and every population within [0, 1]."""
    try:
        code = main([*argv, f"--out={out}"])
    except SystemExit as exc:  # argparse rejects a value
        code = exc.code
    assert code in (0, 2, 3, 4)
    if code != 0:
        return
    if argv[0] == "rates":
        doc = json.loads(Path(out).read_text())
        rates, effective = doc["rates"], doc["effective"]
        probabilities = [*rates.pop("p3_mean_m_minus1_0_plus1"), effective.pop("p1_inf")]
        values = [*rates.values(), *effective.values(), *probabilities]
        assert all(math.isfinite(v) for v in values if v is not None)
        assert all(0 <= p <= 1 for p in probabilities if p is not None)
    elif argv[0] == "trajectories":
        read_trajectories(f"{out}.traj.txt")  # ValueError unless every bit is 0 or 1
        _check_curve_table(f"{out}.curve.csv")
    else:
        _check_curve_table(out)


class TestFlagFuzz:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(argv=_fuzzed_argv())
    def test_defined_exit_and_finite_output(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            _check_fuzzed_run(argv, os.path.join(tmp, "out"))


# YAML run documents: sections and keys from DEFAULTS plus unknown ones. Most
# values are of their key's kind, the others of any kind. n_max and
# n_trajectories stay small, because allocation grows with them.
_ANY_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | _ANY_FLOAT | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6)
_NUMBERS = st.floats(0, 1) | st.floats(-1e4, 1e4) | _ANY_FLOAT | st.integers()
_KIND_VALUES = {
    str: st.sampled_from(["full", "adiabatic", "ideal", "thresholded-counts"]),
    int: st.integers(),
    float: _NUMBERS,
    type(None): _NUMBERS | st.none(),
}
_SIZES = {"n_max", "n_trajectories"}


@st.composite
def _fuzzed_document(draw):
    def rarely():
        return draw(st.integers(0, 9)) == 0

    if rarely():  # not a mapping
        return draw(_ANY_VALUE)
    doc = {}
    for section in draw(st.lists(st.sampled_from(list(DEFAULTS)), unique=True)):
        if rarely():  # null, a scalar, a list or any mapping
            doc[section] = draw(_ANY_VALUE)
            continue
        doc[section] = {}
        for key in draw(st.lists(st.sampled_from(list(DEFAULTS[section])), unique=True)):
            if key in _SIZES:
                kind, other = st.integers(-3, 40), _ANY_VALUE.filter(
                    lambda v: not isinstance(v, int) or isinstance(v, bool))
            else:
                kind, other = _KIND_VALUES[type(DEFAULTS[section][key])], _ANY_VALUE
            doc[section][key] = draw(other if rarely() else kind)
        if rarely():
            doc[section]["bogus"] = draw(_ANY_VALUE)
    if rarely():
        doc["bogus"] = draw(_ANY_VALUE)
    return doc


class TestDocumentFuzz:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(doc=_fuzzed_document())
    def test_defined_exit_and_finite_output(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.yaml")
            with open(path, "w") as fh:
                yaml.safe_dump(doc, fh, sort_keys=False)
            for command in ("rates", "simulate", "trajectories"):
                _check_fuzzed_run([command, f"--config={path}"], os.path.join(tmp, "out"))
