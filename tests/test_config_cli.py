import json
import math
import re

import numpy as np
import pytest

from iondeco.cli import main, read_curve_file
from iondeco.config import RunConfig
from iondeco.errors import ConfigError
from iondeco.model import TWO_PI_KHZ


class TestRunConfig:
    def test_defaults_build(self):
        cfg = RunConfig()
        params = cfg.physical_params()
        assert params.omega_mw == pytest.approx(4.2 * TWO_PI_KHZ)
        assert cfg.rates().r1 == 0.0
        assert cfg.model_variant() == "full"

    def test_serialize_round_trip(self):
        cfg = RunConfig({"physical": {"i0": 3e-4, "alpha_deg": 60.0}})
        again = RunConfig.parse(cfg.serialize())
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

    def test_initial_state_must_normalize(self):
        with pytest.raises(ConfigError):
            RunConfig({"initial": {"n0": 0.8, "n1": 0.1}}).initial_state()

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
        (["trajectories", "--seed", "-1"], ""),
    ], ids=["i0-nan", "omega-inf", "dt-nan", "r1-negative", "r1-nan", "n0-nan",
            "i0-null", "probe-nan", "bright-negative", "target-nan", "axis-text",
            "seed-negative"])
    def test_invalid_number_exit_2(self, tmp_path, capsys, argv, doc):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(doc)
        rc = main([*argv, "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error") and "Traceback" not in err
