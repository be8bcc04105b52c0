"""End-to-end and per-layer benchmark of the iondeco CLI.

    python3 benchmark/run.py --workload curve-stiff --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  ``--workload all`` runs the three
workloads in turn.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines above it name
every metric with its unit, the provenance of the run and any failure.

With ``--trace 0`` the metrics are the end-to-end ones, measured untraced:
set-up probes (fresh interpreters that import the CLI), then one fresh
interpreter that runs whole rounds of commands for ``--seconds``.  With
``--trace 1`` the same commands run once untraced and once with spans
around the public functions of each layer, which gives the per-layer
metrics and the tracing overhead.  Every time is taken to the reference
host speed with a calibration kernel timed next to it (see hostspeed.py).
Every output is checked against an independent reference (see checks.py);
a command that exits unexpectedly or fails its check counts as failed.
README.md says why each workload exists.
"""

import os

# one process with one thread: pin BLAS pools here and in every child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170          # children are killed so that a run ends within 180 s
SETUP_PROBES = 6
IMPORTTIME_PROBES = 3
WORK_UNIT = {"curve-stiff": "curves", "protocol-mc": "bits", "short-commands": "commands"}
END_TO_END = [("setup_s", "s"), ("work_per_s", "1/s"), ("latency_ms_p50", "ms"),
              ("latency_ms_p90", "ms"), ("peak_rss_mb", "MB")]
LAYER_METRICS = [
    ("dynamics.calls", "count"), ("dynamics.self_s", "s"), ("dynamics.points", "count"),
    ("dynamics.us_per_point", "us"), ("dynamics.p1_max_abs_err", "1"),
    ("dynamics.trace_drift_max", "1"),
    ("protocol.bits", "count"), ("protocol.sample_s", "s"), ("protocol.us_per_bit", "us"),
    ("protocol.accumulate_s", "s"), ("protocol.write_s", "s"),
    ("protocol.bytes_written", "B"), ("protocol.max_abs_z", "1"),
    ("fitting.calls", "count"), ("fitting.self_s", "s"), ("fitting.nfev", "count"),
    ("fitting.converged_frac", "1"), ("fitting.omega_rel_err_max", "1"),
    ("design.calls", "count"), ("design.self_s", "s"), ("design.feasible_frac", "1"),
    ("design.verify_rel_err_max", "1"),
    ("cli.commands", "count"), ("cli.self_s", "s"), ("cli.bytes_out", "B"),
    ("config.calls", "count"), ("config.self_s", "s"),
    ("model.calls", "count"), ("model.self_s", "s"),
    ("setup.import_iondeco_s", "s"), ("setup.import_scipy_s", "s"),
    ("setup.import_numpy_s", "s"), ("setup.import_yaml_s", "s"),
    ("setup.lazy_scipy_signal_s", "s"),
    ("trace.overhead_frac", "1"), ("trace.coverage_frac", "1"),
]
LAYERS = ("cli", "config", "model", "dynamics", "protocol", "fitting", "design")


class BenchError(Exception):
    """The program could not be set up or started; no result is printed."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


class Runner:
    """Spawns children inside one work directory and keeps the run's clock."""

    def __init__(self, wd: Path, deadline: float):
        self.wd = wd
        self.deadline = deadline
        self.spawned = 0
        self.calibs = []  # every host-speed calibration of the run, in seconds

    def left(self):
        return self.deadline - time.monotonic()

    def child(self, rounds, seconds=None, limit=None, trace=False, reserve=0.0):
        """Run child.py; returns (setup seconds, executions, tail or None).
        Set-up and each execution's ``seconds`` are at the reference host
        speed, from the calibrations around them; ``raw_seconds`` is the
        measured time."""
        calib_before = hostspeed.kernel_seconds()
        self.spawned += 1
        name = f"child{self.spawned}"
        spec_path = self.wd / f"{name}.spec.json"
        result = self.wd / f"{name}.result.jsonl"
        spec_path.write_text(json.dumps({"src": str(SRC), "result": str(result),
                                         "rounds": rounds, "seconds": seconds,
                                         "limit": limit, "trace": trace}))
        with open(self.wd / f"{name}.log", "w") as log:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(spec_path), repr(t_spawn)],
                cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=log, stderr=log)
            try:
                proc.wait(timeout=max(1.0, self.left() - reserve))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        lines = [json.loads(ln) for ln in result.read_text().splitlines()] \
            if result.exists() else []
        if not lines or "ready" not in lines[0]:
            log_text = (self.wd / f"{name}.log").read_text()[-2000:]
            raise BenchError(f"iondeco CLI failed to start (exit {proc.returncode}):\n"
                             f"{log_text}")
        tail = lines[-1] if len(lines) > 1 and "maxrss_kb" in lines[-1] else None
        first = lines[1]["calib"] if len(lines) > 1 and "calib" in lines[1] else calib_before
        setup = lines[0]["ready"] * hostspeed.scale(calib_before, first)
        execs = [ln for ln in lines[1:] if "rc" in ln]
        for e in execs:
            e["raw_seconds"] = e["seconds"]
            e["seconds"] *= hostspeed.scale(e["kernel_s"])
        self.calibs += tail["calibs"] if tail else [calib_before, first]
        if tail is None:  # killed mid-command: that command failed
            execs.append({"round": None, "index": None, "rc": "killed",
                          "seconds": 0.0, "error": "killed at the run's time limit"})
        return setup, execs, tail

    def importtime(self, statement):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", statement],
                              cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                              capture_output=True, text=True,
                              timeout=max(1.0, self.left() - 30))
        if proc.returncode != 0:
            raise BenchError(f"import failed:\n{proc.stderr[-2000:]}")
        return proc.stderr


def import_times(stderr):
    """Cumulative import seconds of iondeco, numpy, scipy and yaml from
    ``-X importtime`` output, plus scipy imported after iondeco.cli
    (the lazy scipy.signal import of the first fit)."""
    entries = []  # (depth, name, cumulative seconds), in print order
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    # children print before their parent: walk backwards to know ancestors
    totals = {"iondeco": 0.0, "scipy": 0.0, "numpy": 0.0, "yaml": 0.0, "lazy": 0.0}
    stack = []
    after_cli = False
    for depth, name, cum in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        root = name.split(".")[0]
        if depth == 0 and name == "iondeco.cli":
            after_cli = True  # everything above this line in reverse came later
        if root in totals and not any(n.split(".")[0] == root for _, n in stack):
            totals[root] += cum
            if root == "scipy" and depth == 0 and not after_cli:
                totals["lazy"] += cum
        stack.append((depth, name))
    return {"setup.import_iondeco_s": totals["iondeco"], "setup.import_scipy_s":
            totals["scipy"] - totals["lazy"], "setup.import_numpy_s": totals["numpy"],
            "setup.import_yaml_s": totals["yaml"], "setup.lazy_scipy_signal_s": totals["lazy"]}


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def provenance(load_before):
    import numpy
    import scipy
    import yaml

    git = {"sha": None, "dirty": None}
    if (ROOT / ".git").exists():
        def run(*a):
            return subprocess.run(["git", "-C", str(ROOT), *a], capture_output=True,
                                  text=True, stdin=subprocess.DEVNULL).stdout.strip()
        git = {"sha": run("rev-parse", "HEAD") or None,
               "dirty": bool(run("status", "--porcelain", "--untracked-files=no"))}
    nproc = len(os.sched_getaffinity(0))
    return {"git": git, "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "pyyaml": yaml.__version__, "nproc": nproc,
            "cpu_count": os.cpu_count(), "loadavg_before": load_before,
            "loadavg_after": list(os.getloadavg()),
            "high_load_at_start": load_before[0] > nproc}


# ---------------------------------------------------------------------------


def run_commands(runner, plan, seconds=None, limit=None, trace=False, reserve=0.0):
    """One work child, then the checks of what it ran.  Each execution gets
    its command (None if killed) and its verdict (ok, message, stats)."""
    from checks import check

    rounds = [[c.argv for c in rnd] for rnd in plan.rounds]
    setup, execs, tail = runner.child(rounds, seconds=seconds, limit=limit, trace=trace,
                                      reserve=reserve)
    verdicts = {}
    for e in execs:
        if e["round"] is None:
            e["cmd"], e["verdict"] = None, (False, e["error"], {})
            continue
        e["cmd"] = plan.rounds[e["round"]][e["index"]]
        key = (e["round"], e["index"], str(e["rc"]))
        if key not in verdicts:
            verdicts[key] = check(e["cmd"], e["rc"])
        e["verdict"] = verdicts[key]
    return setup, execs, tail


def replay_check(runner, execs):
    """Run the first trajectories command again in a fresh interpreter and
    compare its files byte for byte; a difference fails that command."""
    from checks import output_paths

    first = execs[0] if execs else None
    if first is None or first["cmd"] is None or not first["verdict"][0]:
        return
    argv = list(first["cmd"].argv)
    base = argv[argv.index("--out") + 1]
    again = str(runner.wd / "replay" / "traj")
    (runner.wd / "replay").mkdir(exist_ok=True)
    argv[argv.index("--out") + 1] = again
    _, execs2, _ = runner.child([[argv]], limit=1)
    if execs2[0]["rc"] != 0:
        first["verdict"] = (False, f"replay exited {execs2[0]['rc']}", first["verdict"][2])
        return
    kind = first["cmd"].kind
    for path, path2 in zip(output_paths(kind, base), output_paths(kind, again)):
        if Path(path).read_bytes() != Path(path2).read_bytes():
            first["verdict"] = (False, f"same-seed replay differs in {path[len(base):]}",
                                first["verdict"][2])
            return


def tally(execs):
    """(attempted, failed, failure messages)."""
    messages = []
    for e in execs:
        ok, msg, _ = e["verdict"]
        if not ok:
            where = e["cmd"].argv[0] if e["cmd"] else "command"
            messages.append(f"{where}: {msg}" + (f" [{e['error']}]" if e.get("error") else ""))
    return len(execs), len(messages), messages


def end_to_end(runner, plan, seconds, probes):
    # probes before and after the work, so set-up samples span the whole run
    setups = [runner.child([])[0] for _ in range(probes // 2)]
    setup, execs, tail = run_commands(runner, plan, seconds=seconds, reserve=25)
    setups += [setup] + [runner.child([])[0] for _ in range(probes - probes // 2)]
    if plan.workload == "protocol-mc":
        replay_check(runner, execs)
    attempted, failed, messages = tally(execs)
    ran = [e for e in execs if e["cmd"] is not None]
    units = sum(e["cmd"].units for e in ran if e["verdict"][0])
    latencies = [e["seconds"] * 1e3 for e in ran]
    busy = sum(e["seconds"] for e in ran)
    metrics = {
        "setup_s": statistics.median(setups),
        "work_per_s": units / busy if busy else 0.0,
        "latency_ms_p50": percentile(latencies, 50),
        "latency_ms_p90": percentile(latencies, 90),
        "peak_rss_mb": tail["maxrss_kb"] / 1024 if tail else 0.0,
    }
    unit = WORK_UNIT[plan.workload]
    raw_busy = sum(e["raw_seconds"] for e in ran)
    notes = [f"work unit: {unit} (work_per_s is {unit}_per_s)",
             f"latency samples: {len(latencies)}; set-up samples: {len(setups)}",
             f"host speed: kernel median {statistics.median(runner.calibs) * 1e3:.4g} ms "
             f"over {len(runner.calibs)} calibrations, reference "
             f"{hostspeed.REF_S * 1e3:.4g} ms; unscaled work_per_s "
             f"{units / raw_busy if raw_busy else 0.0:.6g}, latency_ms_p50 "
             f"{percentile([e['raw_seconds'] * 1e3 for e in ran], 50):.6g}",
             f"fail_frac: {failed / max(attempted, 1):.6g} ({failed}/{attempted})"]
    return metrics, attempted, failed, messages, notes


def self_times(spans):
    """Per layer [calls, self seconds] and per name [seconds, self seconds];
    self time is a span's duration minus that of its direct children."""
    child_time = [0.0] * len(spans)
    for layer, name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    layers = {layer: [0, 0.0] for layer in LAYERS}
    names = {}
    for i, (layer, name, t0, t1, parent, _) in enumerate(spans):
        own = t1 - t0 - child_time[i]
        layers[layer][0] += 1
        layers[layer][1] += own
        total = names.setdefault(name, [0.0, 0.0])
        total[0] += t1 - t0
        total[1] += own
    return layers, names


def per_layer(runner, plan, seconds, probes):
    from checks import dynamics_errors

    setup_runs = [import_times(runner.importtime("import iondeco.cli; import scipy.signal"))
                  for _ in range(probes)]
    # half the time untraced, then the same commands traced
    _, plain, _ = run_commands(runner, plan, seconds=seconds / 2, reserve=60)
    plain_ran = [e for e in plain if e["cmd"] is not None]
    _, execs, tail = run_commands(runner, plan, limit=len(plain_ran), trace=True, reserve=25)
    if plan.workload == "protocol-mc":
        replay_check(runner, execs)
    attempted, failed, messages = tally(plain + execs)

    m = {name: 0.0 for name, _ in LAYER_METRICS}
    for name in setup_runs[0]:
        m[name] = statistics.median(r[name] for r in setup_runs)
    if tail is None:  # killed: its spans are lost, and tally counted the failure
        return m, attempted, failed, messages, []
    plain_s = sum(e["seconds"] for e in plain_ran)
    if plain_s:
        m["trace.overhead_frac"] = sum(e["seconds"] for e in execs) / plain_s - 1

    spans = tail["spans"]
    layers, names = self_times(spans)
    for layer, (calls, own) in layers.items():
        for key, value in ((f"{layer}.calls", calls), (f"{layer}.self_s", own)):
            if key in m:
                m[key] = value
    roots = [s for s in spans if s[0] == "cli" and s[4] < 0]
    command_s = sum(t1 - t0 for _, _, t0, t1, _, _ in roots)
    m["cli.commands"] = len(roots)
    if command_s:
        m["trace.coverage_frac"] = 1 - m["cli.self_s"] / command_s

    def stats(*kinds):
        return [e["verdict"][2] for e in execs if e["cmd"] and e["cmd"].kind in kinds]

    points, errs, drifts = 0, [], []
    for index, n, y in tail["curves"]:
        points += n
        if y is not None:
            e, d = dynamics_errors(execs[spans[index][5]]["cmd"].expect, y)
            if e is not None:
                errs.append(e)
                drifts.append(d)
    m["dynamics.points"] = points
    if points:
        m["dynamics.us_per_point"] = m["dynamics.self_s"] / points * 1e6
    m["dynamics.p1_max_abs_err"] = max(errs, default=0.0)
    m["dynamics.trace_drift_max"] = max(drifts, default=0.0)

    traj = stats("trajectories")
    m["protocol.bits"] = sum(s.get("bits", 0) for s in traj)
    m["protocol.sample_s"] = names.get("iondeco.cli.run_trajectory", [0, 0.0])[1]
    if m["protocol.bits"]:
        m["protocol.us_per_bit"] = m["protocol.sample_s"] / m["protocol.bits"] * 1e6
    m["protocol.accumulate_s"] = names.get("iondeco.cli.accumulate", [0.0])[0]
    m["protocol.write_s"] = sum(names.get(f"iondeco.cli.{n}", [0.0])[0]
                                for n in ("write_trajectories", "write_curve_csv"))
    m["protocol.bytes_written"] = sum(s.get("bytes", 0) for s in traj)
    m["protocol.max_abs_z"] = max((s.get("max_abs_z", 0.0) for s in traj), default=0.0)

    fits = stats("fit")
    m["fitting.nfev"] = sum(s.get("nfev", 0) for s in fits)
    if fits:
        m["fitting.converged_frac"] = sum(bool(s.get("converged")) for s in fits) / len(fits)
    m["fitting.omega_rel_err_max"] = max((s.get("omega_err", 0.0) for s in fits), default=0.0)

    designs = stats("design", "design-optb")
    if designs:
        m["design.feasible_frac"] = sum(bool(s.get("feasible")) for s in designs) / len(designs)
    m["design.verify_rel_err_max"] = max((s.get("verify_err", 0.0) for s in designs),
                                         default=0.0)
    m["cli.bytes_out"] = sum(e["verdict"][2].get("bytes", 0) for e in execs)

    notes = []
    if command_s:
        shares = ("dynamics.self_s", "protocol.sample_s", "fitting.self_s", "design.self_s",
                  "cli.self_s", "config.self_s", "model.self_s")
        notes.append("share of command time: " + ", ".join(
            f"{k} {m[k] / command_s:.3f}" for k in shares))
    notes.append("absent layers (no spans): " + (", ".join(
        layer for layer in LAYERS if layers[layer][0] == 0) or "none"))
    notes.append("absent public names: " + (", ".join(tail["absent"]) or "none"))
    notes.append(f"traced commands: {len(execs)}; command time {command_s:.4f} s")
    return m, attempted, failed, messages, notes


def run_workload(workload, seed, seconds, trace, tiny):
    from workloads import make_plan

    wd = ROOT / ".bench_run" / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    if wd.exists():
        shutil.rmtree(wd)
    wd.mkdir(parents=True)
    try:
        plan = make_plan(workload, seed, wd, tiny)
        plan.write_files()
        load_before = list(os.getloadavg())
        runner = Runner(wd, time.monotonic() + RUN_LIMIT_S)
        if trace:
            metrics, attempted, failed, messages, notes = per_layer(
                runner, plan, seconds, 1 if tiny else IMPORTTIME_PROBES)
            units = dict(LAYER_METRICS)
        else:
            metrics, attempted, failed, messages, notes = end_to_end(
                runner, plan, seconds, 2 if tiny else SETUP_PROBES)
            units = dict(END_TO_END)
        prov = provenance(load_before)
    finally:
        shutil.rmtree(wd, ignore_errors=True)

    print(f"# workload {workload}  seed {seed}  seconds {seconds}  trace {trace}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    if prov["high_load_at_start"]:
        print(f"# WARNING: load {prov['loadavg_before'][0]:.2f} above nproc "
              f"{prov['nproc']} at start; timings are suspect")
    for name, value in metrics.items():
        print(f"{name:28s} {value:.6g} {units[name]}")
    for note in notes:
        print(f"# {note}")
    for msg in messages[:20]:
        print(f"# FAILED {msg}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (for the benchmark's own tests)")
    args = parser.parse_args(argv)
    if not (SRC / "iondeco" / "cli.py").is_file():
        print(f"no iondeco sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace, args.tiny)
                   for w in names}
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}/{k}": v for w, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
