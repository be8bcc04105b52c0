"""Smoke tests: the scripts in scripts/ run against the installed API."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_run_curve_families(tmp_path):
    proc = _run_script("run_curve_families.py", str(tmp_path), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in ("sweep_energy_channel.csv", "sweep_dephasing_channel.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0].startswith("theta_rad,tau_s,")
        assert len(lines) == 1 + 301


def test_run_protocol_demo(tmp_path):
    proc = _run_script("run_protocol_demo.py", "200", "3", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "recovered r2/r1" in proc.stdout


def test_cli_outputs_repeat_byte_identical(tmp_path):
    trees = []
    for run in ("a", "b"):
        proc = _run_script("cli_outputs.py", run, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        root = tmp_path / run
        trees.append({p.relative_to(root): p.read_bytes()
                      for p in sorted(root.rglob("*")) if p.is_file()})
    assert trees[0] == trees[1]
    exits = trees[0][Path("exits.txt")].decode()
    assert exits.count("\nexit 0\n") == exits.count("$ ") - 2
    assert "\nexit 2\nconfig error: no_rows.csv: no data rows\n" in exits
    assert "\nexit 4\n" in exits


def test_cli_outputs_families_with_relative_pythonpath(tmp_path):
    # the families script runs inside OUTDIR, where "src" names nothing
    env = {**os.environ, "PYTHONPATH": "src"}
    proc = subprocess.run([sys.executable, "scripts/cli_outputs.py", str(tmp_path / "out")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    exits = (tmp_path / "out" / "exits.txt").read_text()
    assert "$ run_curve_families.py families\nexit 0\n" in exits
