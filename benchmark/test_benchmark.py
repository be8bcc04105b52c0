"""The benchmark's own tests: every named metric appears at tiny size, and
every correctness check trips on corrupted output.

    python3 -m pytest benchmark/test_benchmark.py
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, make_plan  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def wd():
    path = ROOT / ".bench_run" / f"test-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmark/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_appears(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    report = [line.split()[:1] for line in proc.stdout.splitlines()]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert [m["name"]] in report  # the human-readable lines name each one too
        if not trace:
            assert result["metrics"][m["name"]]["value"] > 0


def test_refuses_without_sources(wd):
    shutil.copy(ROOT / "BENCHMARK.json", wd)
    shutil.copytree(HERE, wd / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "short-commands", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=wd)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _run_cli(argv):
    from iondeco.cli import main

    return main(argv)


def _commands(plan, kind):
    return [c for rnd in plan.rounds for c in rnd if c.kind == kind]


def test_perturbed_curve_row_trips(wd):
    plan = make_plan("curve-stiff", 5, wd, tiny=True)
    plan.write_files()
    for kind in ("simulate", "sweep"):
        cmd = _commands(plan, kind)[0]
        assert checks.check(cmd, _run_cli(cmd.argv))[0]
        path = Path(cmd.expect["out"])
        lines = path.read_text().splitlines()
        row = next(i for i, ln in enumerate(lines) if ln[:1].isdigit()) + 7
        cells = lines[row].split(",")
        cells[-3] = repr(float(cells[-3]) + 1e-4)  # n1: both P1 and the trace move
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        ok, msg, _ = checks.check(cmd, 0)
        assert not ok and "expm reference" in msg


def test_trace_drift_trips(wd):
    plan = make_plan("curve-stiff", 5, wd, tiny=True)
    plan.write_files()
    cmd = _commands(plan, "simulate")[0]
    _run_cli(cmd.argv)
    path = Path(cmd.expect["out"])
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[-1] = repr(float(cells[-1]) + 5e-7)  # n3 alone: within tolerance, off the trace
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    ok, msg, _ = checks.check(cmd, 0)
    assert not ok and "drift" in msg


def test_flipped_trajectory_bit_trips(wd):
    plan = make_plan("protocol-mc", 5, wd, tiny=True)
    plan.write_files()
    cmd = plan.rounds[0][0]
    rc = _run_cli(cmd.argv)
    verdict = checks.check(cmd, rc)
    assert verdict[0]
    runner = run.Runner(wd, time.monotonic() + 120)
    execs = [{"cmd": cmd, "verdict": verdict, "round": 0, "index": 0, "rc": rc}]
    run.replay_check(runner, execs)
    assert execs[0]["verdict"][0]

    traj = Path(cmd.expect["out"] + ".traj.txt")
    lines = traj.read_text().splitlines()
    row = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 3
    lines[row] = ("1" if lines[row][0] == "0" else "0") + lines[row][1:]
    traj.write_text("\n".join(lines) + "\n")
    execs[0]["verdict"] = verdict
    run.replay_check(runner, execs)
    assert not execs[0]["verdict"][0]
    assert "differs in .traj.txt" in execs[0]["verdict"][1]


def test_outcome_alpha_covers_the_run(wd):
    # the child cycles the plan's rounds, so the distinct trajectories
    # commands bound the number of distinct outcome tests in one run
    plan = make_plan("protocol-mc", 5, wd)
    traj = _commands(plan, "trajectories")
    assert len({tuple(c.argv) for c in traj}) == len(traj) == 256
    assert sum(checks.outcome_alpha(c.expect) for c in traj) \
        == pytest.approx(checks.RUN_ALPHA)
    assert checks.RUN_ALPHA <= 1e-3


def test_every_verdict_counts_bytes(wd):
    plan = make_plan("short-commands", 5, wd, tiny=True)
    plan.write_files()
    for kind in ("rates", "design", "design-optb", "fit"):
        cmd = _commands(plan, kind)[0]
        stats = checks.check(cmd, _run_cli(cmd.argv))[2]
        assert stats["bytes"] == Path(cmd.expect["out"]).stat().st_size > 0


def test_biased_outcomes_trip(wd):
    plan = make_plan("protocol-mc", 5, wd, tiny=True)
    plan.write_files()
    cmd = plan.rounds[0][0]
    _run_cli(cmd.argv)
    traj = Path(cmd.expect["out"] + ".traj.txt")
    lines = traj.read_text().splitlines()
    # read "on" at the first drive length in every trajectory
    lines = [ln if ln.startswith("#") else "1" + ln[1:] for ln in lines]
    traj.write_text("\n".join(lines) + "\n")
    ok, msg, _ = checks.check(cmd, 0)
    assert not ok and "expected on-probability" in msg


def test_wrong_binding_constraint_trips(wd):
    plan = make_plan("short-commands", 5, wd, tiny=True)
    plan.write_files()
    infeasible = [c for c in _commands(plan, "design") + _commands(plan, "design-optb")
                  if c.expect["constraint"]]
    assert {c.expect["constraint"] for c in infeasible} == \
        {"r1_saturation", "i0_bounds", "b_bounds"}
    for cmd in infeasible:
        rc = _run_cli(cmd.argv)
        assert rc == 4 and checks.check(cmd, rc)[0]
        path = Path(cmd.expect["out"])
        doc = json.loads(path.read_text())
        doc["binding_constraint"] = "r2_saturation"
        path.write_text(json.dumps(doc))
        assert not checks.check(cmd, rc)[0]
    feasible = next(c for c in _commands(plan, "design") if not c.expect["constraint"])
    rc = _run_cli(feasible.argv)
    assert rc == 0 and checks.check(feasible, rc)[0]
    path = Path(feasible.expect["out"])
    doc = json.loads(path.read_text())
    doc["knobs"]["i0"] *= 1.01
    path.write_text(json.dumps(doc))
    assert not checks.check(feasible, rc)[0]


def test_wrong_fit_and_rates_trip(wd):
    plan = make_plan("short-commands", 5, wd, tiny=True)
    plan.write_files()
    for kind, key in (("fit", ("omega",)), ("rates", ("rates", "r2_2pikhz"))):
        cmd = _commands(plan, kind)[0]
        rc = _run_cli(cmd.argv)
        assert rc == 0 and checks.check(cmd, rc)[0]
        path = Path(cmd.expect["out"])
        doc = json.loads(path.read_text())
        inner = doc
        for k in key[:-1]:
            inner = inner[k]
        inner[key[-1]] *= 1.05
        path.write_text(json.dumps(doc))
        assert not checks.check(cmd, rc)[0]


def test_times_are_scaled_by_host_speed(wd):
    plan = make_plan("curve-stiff", 5, wd, tiny=True)
    plan.write_files()
    runner = run.Runner(wd, time.monotonic() + 120)
    setup, execs, tail = runner.child([[c.argv for c in rnd] for rnd in plan.rounds],
                                      seconds=1.5)
    assert setup > 0 and tail is not None
    assert len(tail["calibs"]) > 2  # sampled on the timer while commands ran
    for e in execs:
        assert e["seconds"] == pytest.approx(
            e["raw_seconds"] * hostspeed.REF_S / e["kernel_s"])


def test_import_times():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |         50 |       scipy._lib",
        "import time:        70 |        120 |     scipy.integrate",
        "import time:        10 |         10 |     yaml",
        "import time:        30 |        460 |   iondeco",
        "import time:        40 |        500 | iondeco.cli",
        "import time:        20 |         20 |   scipy.fft",
        "import time:        30 |         50 | scipy.signal",
    ])
    times = run.import_times(text)
    assert times == pytest.approx({
        "setup.import_iondeco_s": 500e-6, "setup.import_numpy_s": 300e-6,
        "setup.import_scipy_s": 120e-6, "setup.import_yaml_s": 10e-6,
        "setup.lazy_scipy_signal_s": 50e-6})


def test_self_time_subtracts_direct_children():
    spans = [["cli", "main", 0.0, 10.0, -1, 0],
             ["config", "rates", 1.0, 4.0, 0, 0],
             ["model", "scattering_rates", 2.0, 3.0, 1, 0],
             ["dynamics", "integrate", 5.0, 9.0, 0, 0]]
    layers, names = run.self_times(spans)
    assert layers["cli"] == [1, 3.0]
    assert layers["config"] == [1, 2.0]
    assert layers["model"] == [1, 1.0]
    assert layers["dynamics"] == [1, 4.0]
    assert names["main"] == [10.0, 3.0]
