"""Correctness checks of each command's output against the reference.

Every check returns ``(ok, message, stats)``; ``stats`` feeds the
per-layer report.  A check that cannot read or parse the output fails.
"""

from __future__ import annotations

import json
import os

import numpy as np

import reference as ref

CURVE_ATOL = 1e-6          # |state - expm reference|, every column of every row
DRIFT_MAX = 1e-9           # |n0 + n1 + n2 + n3 - 1| (CSVs carry 12 digits)
RUN_ALPHA = 1e-3           # false-alarm chance of the outcome tests over a whole run
RATES_RTOL = 1e-9
DESIGN_RTOL = 1e-3         # the design's own verification tolerance
FIT_RTOL = {False: 1e-6, True: 0.02}  # omega recovery: deterministic, noisy


def output_paths(kind, out):
    """The files a command of this kind writes for ``--out out``."""
    return [out + ".traj.txt", out + ".curve.csv"] if kind == "trajectories" else [out]


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _read_csv(path):
    header, rows = None, []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
            else:
                rows.append([float(x) for x in line.split(",")])
    return header, np.array(rows)


# ---------------------------------------------------------------------------
# curve-stiff

def curve_errors(knobs, tau, states):
    """(max abs error, max trace drift) of full-model states [n0..n3]
    (columns) against the reference at times tau."""
    want = ref.full_curve(knobs, tau)[:, 2:]
    return float(np.max(np.abs(states - want))), float(np.max(np.abs(states.sum(1) - 1)))


def check_curve(expect, rc):
    if rc != 0:
        return False, f"exit {rc}", {}
    try:
        header, rows = _read_csv(expect["out"])
    except (OSError, ValueError) as exc:
        return False, f"unreadable output: {exc}", {}
    columns = ["theta_rad", "tau_s", "p1", "n0", "n1", "n2", "n3"]
    sweep = "axis_values" in expect
    if header != (["axis_value"] if sweep else []) + columns:
        return False, f"unexpected columns {header}", {}
    if sweep:
        # the axis value is printed with 12 significant digits
        parts = [rows[np.isclose(rows[:, 0], v, rtol=1e-11, atol=0)][:, 1:]
                 for v in expect["axis_values"]]
    else:
        parts = [rows]
    err = drift = 0.0
    for knobs, part in zip(expect["curves"], parts):
        n = np.arange(1, knobs["n_max"] + 1)
        if len(part) != len(n):
            return False, f"{len(part)} rows, expected {len(n)}", {}
        tau = n * knobs["dt_us"] * 1e-6
        theta = knobs["omega_2pikhz"] * ref.TWO_PI_KHZ * tau
        if not (np.allclose(part[:, 1], tau, rtol=1e-9, atol=0)
                and np.allclose(part[:, 0], theta, rtol=1e-9, atol=0)):
            return False, "time axis differs from N * dt", {}
        e, d = curve_errors(knobs, tau, part[:, 3:])
        e = max(e, float(np.max(np.abs(part[:, 2] - part[:, 4] - part[:, 5]))))
        err, drift = max(err, e), max(drift, d)
    stats = {"p1_err": err, "drift": drift}
    if err > CURVE_ATOL:
        return False, f"curve off the expm reference by {err:.3g}", stats
    if drift > DRIFT_MAX:
        return False, f"trace drift {drift:.3g}", stats
    return True, "", stats


def dynamics_errors(expect, y):
    """(P1 error, trace drift) of one traced dynamics result ``y`` (rows of
    [u, v, n0, n1, n2(, n3)] on the grid N = 0..n_max) against the closest
    reference curve this command can produce."""
    y = np.asarray(y)
    if "curves" in expect:  # full model: n0 + n1 + n2 + n3 is conserved
        candidates = expect["curves"]
        curves = [ref.full_curve(k, _grid(k)) for k in candidates]
        refs = [c[:, 3] + c[:, 4] for c in curves]
        kept = y[:, 2:6].sum(1)
    else:  # adiabatic: level 3 is eliminated, n0 + n1 + n2 is conserved
        k = expect["knobs"]
        refs = [ref.adiabatic_p1(k, _grid(k), excited=e) for e in (False, True)]
        kept = y[:, 2:5].sum(1)
    p1 = y[:, 3] + y[:, 4]
    errs = [float(np.max(np.abs(p1 - r))) for r in refs if len(r) == len(p1)]
    if not errs:
        return None, None
    return min(errs), float(np.max(np.abs(kept - 1)))


def _grid(knobs):
    return np.arange(knobs["n_max"] + 1) * knobs["dt_us"] * 1e-6


# ---------------------------------------------------------------------------
# protocol-mc

def expected_on_probability(expect):
    k = expect["knobs"]
    times = np.arange(1, k["n_max"] + 1) * k["dt_us"] * 1e-6
    good = ref.adiabatic_p1(k, times)
    bad = ref.adiabatic_p1(k, times, excited=True)
    return ref.on_probability(good, bad, k["prep_error"], expect["detection"])


def outcome_alpha(expect):
    """False-alarm chance allowed to one command's outcome test.  A command
    with a given seed writes the same files every time it runs, so a run
    makes at most ``family`` distinct tests (the plan's trajectories
    commands), however many times it cycles them; their union stays within
    RUN_ALPHA."""
    return RUN_ALPHA / expect["family"]


def read_outcomes(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if any(set(ln) - {"0", "1"} for ln in lines):
        raise ValueError("outcome lines must hold only 0 and 1")
    return np.array([[c == "1" for c in ln] for ln in lines], dtype=np.int64)


def check_trajectories(expect, rc):
    if rc != 0:
        return False, f"exit {rc}", {}
    k = expect["knobs"]
    traj, curve = output_paths("trajectories", expect["out"])
    try:
        bits = read_outcomes(traj)
        header, rows = _read_csv(curve)
    except (OSError, ValueError) as exc:
        return False, f"unreadable output: {exc}", {}
    m, n_max = k["n_trajectories"], k["n_max"]
    if bits.shape != (m, n_max):
        return False, f"outcome matrix {bits.shape}, expected {(m, n_max)}", {}
    counts = bits.sum(axis=0)
    max_z, outliers = ref.binomial_outliers(counts, m, expected_on_probability(expect),
                                            outcome_alpha(expect))
    stats = {"max_abs_z": max_z, "bits": m * n_max}
    if outliers:
        return False, f"{outliers} points off the expected on-probability " \
                      f"(max |z| = {max_z:.2f})", stats
    if header[:3] != ["N", "theta_rad", "p1_mean"] or len(rows) != n_max \
            or not np.array_equal(rows[:, 0], np.arange(1, n_max + 1)) \
            or np.max(np.abs(rows[:, 2] - counts / m)) > 1e-9:
        return False, "accumulated curve disagrees with the outcome file", stats
    return True, "", stats


# ---------------------------------------------------------------------------
# short-commands

def _load(path):
    with open(path) as fh:
        return json.load(fh)


def check_rates(expect, rc):
    if rc != 0:
        return False, f"exit {rc}", {}
    try:
        doc = _load(expect["out"])
        got = doc["rates"], doc["effective"]
    except (OSError, ValueError, KeyError) as exc:
        return False, f"unreadable output: {exc}", {}
    k, cfg = expect["knobs"], expect["config"]
    r1, r2, p3 = ref.scattering_rates(k["i0"], k["alpha_deg"], k["b_2pikhz"],
                                      cfg["gamma3_2pikhz"])
    omega = cfg["omega_2pikhz"] * ref.TWO_PI_KHZ
    ratio = r2 / r1
    want = [r1 / ref.TWO_PI_KHZ, r2 / ref.TWO_PI_KHZ, *p3,
            r1 / ref.TWO_PI_KHZ + cfg["extra_2pikhz"],
            omega**2 / r2 / ref.TWO_PI_KHZ, 1 - 0.5 * ratio / (1 + ratio)]
    rates, eff = got
    have = [rates["r1_2pikhz"], rates["r2_2pikhz"], *rates["p3_mean_m_minus1_0_plus1"],
            eff["gamma_2pikhz"], eff["Gamma_2pikhz"], eff["p1_inf"]]
    if len(have) != len(want) or not all(_close(a, b, RATES_RTOL) for a, b in zip(have, want)):
        return False, f"rates {have} differ from reference {want}", {}
    return True, "", {}


def check_design(expect, rc):
    try:
        doc = _load(expect["out"])
    except (OSError, ValueError) as exc:
        return False, f"exit {rc}, unreadable output: {exc}", {}
    constraint = expect["constraint"]
    if constraint is not None:
        if rc != 4 or doc.get("infeasible") is not True \
                or doc.get("binding_constraint") != constraint:
            return False, f"exit {rc}, {doc.get('binding_constraint')!r} instead of " \
                          f"infeasible {constraint!r}", {"feasible": False}
        return True, "", {"feasible": False}
    if rc != 0:
        return False, f"exit {rc} on a feasible target", {"feasible": False}
    try:
        knobs, within = doc["knobs"], doc["verification"]["within_tol"]
    except KeyError as exc:
        return False, f"missing {exc}", {}
    cfg = expect["config"]
    b = knobs["b_field_2pikhz"]
    if expect["b_field"] is not None and not _close(b, expect["b_field"], 1e-12):
        return False, f"field moved to {b} in fixed-B mode", {}
    if expect["b_max"] is not None and not -1e-9 <= b <= expect["b_max"] * (1 + 1e-12):
        return False, f"field {b} outside [0, {expect['b_max']}]", {}
    r1, r2, _ = ref.scattering_rates(knobs["i0"], knobs["alpha_deg"], b, cfg["gamma3_2pikhz"])
    gamma = r1 / ref.TWO_PI_KHZ + cfg["extra_2pikhz"]
    big_gamma = (cfg["omega_2pikhz"] * ref.TWO_PI_KHZ) ** 2 / r2 / ref.TWO_PI_KHZ
    err = max(abs(gamma / expect["gamma"] - 1), abs(big_gamma / expect["big_gamma"] - 1))
    stats = {"feasible": True, "verify_err": err}
    if within is not True or err > DESIGN_RTOL:
        return False, f"knobs miss the targets by {err:.3g} (within_tol={within})", stats
    return True, "", stats


def check_fit(expect, rc):
    if rc != 0:
        return False, f"exit {rc}", {}
    try:
        doc = _load(expect["out"])
        omega, converged, nfev = doc["omega"], doc["converged"], doc["iterations"]
    except (OSError, ValueError, KeyError) as exc:
        return False, f"unreadable output: {exc}", {}
    err = abs(omega * ref.TWO_PI_KHZ / expect["omega"] - 1)
    stats = {"nfev": nfev, "converged": converged is True, "omega_err": err}
    if converged is not True or err > FIT_RTOL[expect["noisy"]]:
        return False, f"omega off by {err:.3g} (converged={converged})", stats
    return True, "", stats


CHECKS = {
    "simulate": check_curve,
    "sweep": check_curve,
    "trajectories": check_trajectories,
    "rates": check_rates,
    "design": check_design,
    "design-optb": check_design,
    "fit": check_fit,
}


def check(command, rc):
    """Check one command's output; never raises on bad output.  The stats
    always hold ``bytes``, the size of the files the command wrote."""
    ok, msg, stats = CHECKS[command.kind](command.expect, rc)
    paths = output_paths(command.kind, command.expect["out"])
    return ok, msg, dict(stats, bytes=sum(os.path.getsize(p) for p in paths
                                          if os.path.exists(p)))
