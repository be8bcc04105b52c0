#!/usr/bin/env python3
"""Run a fixed list of iondeco commands and keep everything they write.

Every subcommand is covered: rates (from the light knobs and from the
rates override), simulate (to a file, to stdout, and with prep_error 1,
every preparation faulty, and both models with a detuned drive, extra
dephasing and the light on), sweep (two values, an integer axis and an
empty axis), trajectories (ideal detection; thresholded counts with
preparation errors, with 8 trajectories and with 300, more than a uint8
count holds; and prep_error 1 with ideal detection that errs both ways),
fit (a deterministic curve with and without --omega-2pikhz, an accumulated
curve, an Omega whose square overflows, a huge Omega and a curve with no
rows), design (fixed field, optimized field, infeasible),
plus scripts/run_curve_families.py.

The commands run from OUTDIR with relative paths, so two runs, or runs
against two versions of the package (set PYTHONPATH to its src/), can be
compared with `diff -r`; scripts/run_curve_families.py runs with the
directory of the imported package first on its PYTHONPATH, so a relative
PYTHONPATH works too.  Each command's stdout goes to NN-<name>.out;
exits.txt holds each command line with its exit code and stderr.

Usage: python scripts/cli_outputs.py OUTDIR
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import iondeco
from iondeco.cli import main as iondeco_main

# the directory that holds the imported package, absolute, so that the
# families script, which runs inside OUTDIR, imports the same package
PACKAGE_ROOT = str(Path(iondeco.__file__).resolve().parents[1])

RUN_YAML = """\
rates: {r1_2pikhz: 0.2, r2_2pikhz: 0.4}
physical: {omega_mw_2pikhz: 4.2}
integrator: {model: adiabatic}
protocol: {n_max: 300, dt_us: 100.0}
"""

COUNTS_YAML = """\
integrator: {model: adiabatic}
protocol: {prep_error: 0.05}
detection: {mode: thresholded-counts, threshold: 12}
"""

FAULTY_YAML = """\
integrator: {model: adiabatic}
protocol: {prep_error: 1}
detection: {eps_on: 0.03, eps_off: 0.05}
"""

# a detuned drive with extra dephasing and the light on, so that every term
# of both generators is nonzero
DETUNED_YAML = """\
physical: {delta_mw_2pikhz: 0.7, gamma_ph_extra_2pikhz: 0.05, i0: 3.0e-4, alpha_deg: 60}
"""

DESIGN = ["design", "--omega-2pikhz", "10", "--target-gamma-2pikhz", "0.1",
          "--target-big-gamma-2pikhz", "500"]

COMMANDS = [
    ("rates", ["rates", "--i0", "1e-3", "--alpha-deg", "60"]),
    ("simulate-file", ["simulate", "--config", "run.yaml", "--out", "curve.csv"]),
    ("simulate-stdout", ["simulate", "--i0", "3e-4", "--alpha-deg", "60", "--nmax", "20"]),
    ("sweep", ["sweep", "--axis", "physical.i0=1e-4,2e-4", "--nmax", "10",
               "--out", "sweep.csv"]),
    ("sweep-empty", ["sweep", "--axis", "physical.i0=", "--nmax", "5",
                     "--out", "sweep_empty.csv"]),
    ("trajectories-ideal", ["trajectories", "--config", "run.yaml", "--ntraj", "50",
                            "--seed", "3", "--out", "ideal"]),
    ("trajectories-counts", ["trajectories", "--config", "counts.yaml", "--nmax", "40",
                             "--ntraj", "8", "--seed", "5", "--out", "counts"]),
    ("trajectories-faulty", ["trajectories", "--config", "faulty.yaml", "--nmax", "40",
                             "--ntraj", "8", "--seed", "6", "--out", "faulty"]),
    ("fit", ["fit", "curve.csv"]),
    ("fit-omega", ["fit", "curve.csv", "--omega-2pikhz", "4.2"]),
    ("fit-accumulated", ["fit", "ideal.curve.csv", "--omega-2pikhz", "4.2"]),
    ("fit-omega-overflow", ["fit", "curve.csv", "--omega-2pikhz", "1e300"]),
    ("fit-omega-huge", ["fit", "curve.csv", "--omega-2pikhz", "2e150"]),
    ("fit-no-rows", ["fit", "no_rows.csv"]),
    ("design-fixed-b", [*DESIGN, "--b-field-2pikhz", "5000"]),
    ("design-optimize-b", [*DESIGN, "--optimize-b", "--b-max-2pikhz", "5000"]),
    ("design-infeasible", [*DESIGN, "--i0-max", "1e-9"]),
    ("simulate-faulty", ["simulate", "--config", "faulty.yaml", "--nmax", "40"]),
    ("sweep-nmax", ["sweep", "--axis", "protocol.n_max=5,10", "--out", "sweep_nmax.csv"]),
    ("rates-override", ["rates", "--config", "run.yaml"]),
    ("simulate-detuned-full", ["simulate", "--config", "detuned.yaml", "--nmax", "40"]),
    ("simulate-detuned-adiabatic", ["simulate", "--config", "detuned_adiabatic.yaml",
                                    "--nmax", "40"]),
    ("trajectories-counts-300", ["trajectories", "--config", "counts.yaml", "--nmax", "40",
                                 "--ntraj", "300", "--seed", "9", "--out", "counts_300"]),
]


def main():
    outdir = Path(sys.argv[1])
    outdir.mkdir(parents=True, exist_ok=True)
    os.chdir(outdir)
    Path("run.yaml").write_text(RUN_YAML)
    Path("counts.yaml").write_text(COUNTS_YAML)
    Path("faulty.yaml").write_text(FAULTY_YAML)
    Path("detuned.yaml").write_text(DETUNED_YAML)
    Path("detuned_adiabatic.yaml").write_text(DETUNED_YAML + "integrator: {model: adiabatic}\n")
    Path("no_rows.csv").write_text("# dt_us=100.0\nN,p1_mean\n")
    log = []
    for i, (name, argv) in enumerate(COMMANDS):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = iondeco_main(argv)
        Path(f"{i:02d}-{name}.out").write_text(out.getvalue())
        log.append(f"$ iondeco {' '.join(argv)}\nexit {code}\n{err.getvalue()}")
    script = Path(__file__).resolve().with_name("run_curve_families.py")
    path = filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, str(script), "families"],
                          env=env, capture_output=True, text=True)
    Path("families.out").write_text(proc.stdout)
    log.append(f"$ run_curve_families.py families\nexit {proc.returncode}\n{proc.stderr}")
    Path("exits.txt").write_text("".join(log))


if __name__ == "__main__":
    main()
