"""Seeded input generators for the three workloads.

A plan holds the files the program reads (YAML configs, curve CSVs) and
rounds of commands.  Each command is an argv list for ``iondeco.cli.main``
plus what the checks expect of its output.  The child runs whole rounds
until its time is up, so every run sees the same mix of commands; rounds
are cycled when the run outlasts them.

Workload configs use only ``physical.*``, ``protocol.*``, ``detection.*``
and ``integrator.model``: no integrator method or tolerance, so the
workloads stay valid when those keys go.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from reference import TWO_PI_KHZ, scattering_rates

WORKLOADS = ("curve-stiff", "protocol-mc", "short-commands")

GAMMA3_2PIKHZ = 18000.0


@dataclass
class Command:
    argv: list
    kind: str
    expect: dict
    units: int = 1  # curves, bits or commands this command produces


@dataclass
class Plan:
    workload: str
    files: dict = field(default_factory=dict)  # path -> text
    rounds: list = field(default_factory=list)  # list of list of Command

    def write_files(self):
        """Write the inputs and make the directories the outputs go to."""
        for path, text in self.files.items():
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            Path(path).write_text(text)
        for rnd in self.rounds:
            for cmd in rnd:
                Path(cmd.expect["out"]).parent.mkdir(parents=True, exist_ok=True)


def _log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _yaml(doc) -> str:
    return yaml.safe_dump(doc, sort_keys=True)


# ---------------------------------------------------------------------------
# curve-stiff: full four-level model, light on, 301-point curves on a short
# span so that stiff rk45 (gamma3/Omega ~ 450) dominates.

def _curve_knobs(rng, i0, b, n_max):
    return {
        "i0": i0,
        "alpha_deg": float(rng.uniform(15.0, 75.0)),
        "b_2pikhz": b,
        "omega_2pikhz": float(rng.uniform(36.0, 44.0)),
        "gamma3_2pikhz": GAMMA3_2PIKHZ,
        "dt_us": 2.0,
        "n_max": n_max,
    }


def _curve_config(k) -> str:
    return _yaml({
        "physical": {"omega_mw_2pikhz": k["omega_2pikhz"], "i0": k["i0"],
                     "alpha_deg": k["alpha_deg"], "b_field_2pikhz": k["b_2pikhz"],
                     "gamma3_2pikhz": k["gamma3_2pikhz"]},
        "protocol": {"dt_us": k["dt_us"], "n_max": k["n_max"]},
        "integrator": {"model": "full"},
    })


# i0 ranges up to 1e-3, each with zero or non-zero field
_CURVE_CELLS = [((1e-4, 1.25e-4), False), ((2.8e-4, 3.5e-4), True), ((8e-4, 1e-3), True)]


def curve_stiff(rng, wd: Path, tiny: bool) -> Plan:
    n_max = 20 if tiny else 300
    plan = Plan("curve-stiff")
    # two simulates and one two-value sweep per round: the median latency is
    # a simulate and the 90th percentile a sweep, whatever the round count
    for r in range(12):
        cmds = []
        for c in (r % 3, (r + 1) % 3):
            (lo, hi), field_on = _CURVE_CELLS[c]
            b = float(rng.uniform(500, 6000)) if field_on else 0.0
            k = _curve_knobs(rng, _log_uniform(rng, lo, hi), b, n_max)
            cfg = wd / "in" / f"curve_r{r}_c{c}.yaml"
            out = wd / "out" / f"curve_r{r}_c{c}.csv"
            plan.files[str(cfg)] = _curve_config(k)
            cmds.append(Command(["simulate", "--config", str(cfg), "--out", str(out)],
                                "simulate", {"out": str(out), "curves": [k]}))
        k = _curve_knobs(rng, _log_uniform(rng, 1e-4, 1e-3), 0.0, n_max)
        b = float(rng.uniform(500, 6000))
        cfg = wd / "in" / f"curve_r{r}_sweep.yaml"
        out = wd / "out" / f"curve_r{r}_sweep.csv"
        plan.files[str(cfg)] = _curve_config(k)
        axis = f"physical.b_field_2pikhz=0,{b!r}"
        cmds.append(Command(["sweep", "--config", str(cfg), "--axis", axis, "--out", str(out)],
                            "sweep", {"out": str(out), "axis_values": [0.0, b],
                                      "curves": [k, dict(k, b_2pikhz=b)]}, units=2))
        rng.shuffle(cmds)
        plan.rounds.append(cmds)
    return plan


# ---------------------------------------------------------------------------
# protocol-mc: adiabatic model, thresholded counts, prep errors, ~1000x300
# outcome bits per command.

def protocol_mc(rng, wd: Path, tiny: bool) -> Plan:
    plan = Plan("protocol-mc")
    configs = []
    for c in range(4):
        k = {
            "i0": _log_uniform(rng, 2e-5, 2e-4),
            "alpha_deg": float(rng.uniform(30.0, 60.0)),
            "b_2pikhz": float(rng.uniform(0.0, 3000.0)),
            "omega_2pikhz": float(rng.uniform(3.5, 5.0)),
            "gamma3_2pikhz": GAMMA3_2PIKHZ,
            "dt_us": float(rng.uniform(80.0, 120.0)),
            "n_max": 30 if tiny else 300,
            "n_trajectories": 100 if tiny else 1000,
            "prep_error": 0.02,
        }
        det = {
            "probe_ms": 5.0,
            "bright_rate_hz": float(rng.uniform(3000.0, 4000.0)),
            "dark_rate_hz": float(rng.uniform(50.0, 200.0)),
            "threshold": int(rng.integers(8, 13)),
        }
        path = wd / "in" / f"protocol_c{c}.yaml"
        plan.files[str(path)] = _yaml({
            "physical": {"omega_mw_2pikhz": k["omega_2pikhz"], "i0": k["i0"],
                         "alpha_deg": k["alpha_deg"], "b_field_2pikhz": k["b_2pikhz"],
                         "gamma3_2pikhz": k["gamma3_2pikhz"]},
            "protocol": {"dt_us": k["dt_us"], "n_max": k["n_max"],
                         "n_trajectories": k["n_trajectories"],
                         "prep_error": k["prep_error"], "probe_ms": det["probe_ms"]},
            "detection": {"mode": "thresholded-counts", "eps_on": 0.0, "eps_off": 0.0,
                          "bright_rate_hz": det["bright_rate_hz"],
                          "dark_rate_hz": det["dark_rate_hz"], "threshold": det["threshold"]},
            "integrator": {"model": "adiabatic"},
        })
        configs.append((path, k, det))
    # distinct seeds, so a warm process never reuses cached curves
    seeds = rng.choice(2**31 - 1, size=256, replace=False)
    for j, seed in enumerate(seeds):
        path, k, det = configs[j % len(configs)]
        out = wd / "out" / f"traj_{j}"
        argv = ["trajectories", "--config", str(path), "--seed", str(int(seed)),
                "--out", str(out)]
        plan.rounds.append([Command(argv, "trajectories",
                                    {"out": str(out), "knobs": k, "detection": det,
                                     "family": len(seeds)},
                                    units=k["n_trajectories"] * k["n_max"])])
    return plan


# ---------------------------------------------------------------------------
# short-commands: rates, fixed-B and optimize-B design, weighted and
# unweighted fits, in one warm process.

def _short_config(rng, c):
    return {
        "gamma3_2pikhz": float(rng.uniform(15000.0, 20000.0)),
        "omega_2pikhz": float(rng.uniform(2.0, 20.0)),
        "extra_2pikhz": 0.0 if c < 2 else float(rng.uniform(0.001, 0.01)),
    }


def _design_targets(rng, cfg, i0, b):
    alpha = float(rng.uniform(20.0, 70.0))
    r1, r2, _ = scattering_rates(i0, alpha, b, cfg["gamma3_2pikhz"])
    omega = cfg["omega_2pikhz"] * TWO_PI_KHZ
    return (r1 / TWO_PI_KHZ + cfg["extra_2pikhz"], omega**2 / r2 / TWO_PI_KHZ, r1, r2)


def _min_i0_at_zero_field(cfg, r1, r2):
    """Smallest i0 that reaches (r1, r2); with the laser on resonance every
    line is strongest at B = 0, so this is the optimum over B."""
    g3 = cfg["gamma3_2pikhz"] * TWO_PI_KHZ
    p0, ps = r1 / g3, r2 / (2 * g3)
    return 2 * p0 / (1 - 2 * p0) + 2 * ps / (1 - 2 * ps)


def _fit_curve(rng, noisy: bool):
    omega = float(rng.uniform(3.0, 6.0)) * TWO_PI_KHZ
    span = float(rng.uniform(5.0, 8.0)) * 2 * math.pi / omega
    lam = -math.log(rng.uniform(0.15, 0.5)) / span
    p_inf = float(rng.uniform(0.6, 0.9))
    n = np.arange(1, 301)
    tau = n * span / 300
    p1 = p_inf * (1 - np.exp(-lam * tau) * np.cos(omega * tau))
    if not noisy:
        rows = ["theta_rad,tau_s,p1,n0,n1,n2,n3"]
        rows += [f"{omega * t!r},{t!r},{p!r},{1 - p!r},{p!r},0.0,0.0"
                 for t, p in zip(tau.tolist(), p1.tolist())]
        return "\n".join(rows) + "\n", omega
    m = int(rng.integers(300, 501))
    phat = rng.binomial(m, np.clip(p1, 0, 1)) / m
    z = 1.96
    denom = 1 + z * z / m
    center = (phat + z * z / (2 * m)) / denom
    half = z * np.sqrt(phat * (1 - phat) / m + z * z / (4 * m * m)) / denom
    rows = [f"# dt_us={span / 300 * 1e6!r}", "N,theta_rad,p1_mean,ci_low,ci_high,n_samples"]
    rows += [f"{i},{omega * t!r},{p!r},{lo!r},{hi!r},{m}"
             for i, t, p, lo, hi in zip(n.tolist(), tau.tolist(), phat.tolist(),
                                        (center - half).tolist(), (center + half).tolist())]
    return "\n".join(rows) + "\n", omega


def short_commands(rng, wd: Path, tiny: bool) -> Plan:
    plan = Plan("short-commands")
    configs = []
    for c in range(4):
        cfg = _short_config(rng, c)
        path = wd / "in" / f"short_c{c}.yaml"
        plan.files[str(path)] = _yaml({"physical": {
            "gamma3_2pikhz": cfg["gamma3_2pikhz"],
            "omega_mw_2pikhz": cfg["omega_2pikhz"],
            "gamma_ph_extra_2pikhz": cfg["extra_2pikhz"],
        }})
        configs.append((str(path), cfg))
    fits = []
    for j in range(2 if tiny else 16):
        noisy = j % 2 == 1
        path = wd / "in" / f"fit_{j}.csv"
        plan.files[str(path)], omega = _fit_curve(rng, noisy)
        fits.append((str(path), omega, noisy))

    # per round: rates, fixed-B designs (one r1-saturated, one above
    # --i0-max), optimize-B designs (one above --i0-max), fits
    mix = (3, 2, 2, 2) if tiny else (15, 16, 11, 15)
    n_rounds = 1 if tiny else 20
    for r in range(n_rounds):
        cmds = []

        def out(name):
            return str(wd / "out" / f"short_r{r}_{len(cmds)}_{name}.json")

        for _ in range(mix[0]):
            path, cfg = configs[int(rng.integers(len(configs)))]
            k = {"i0": _log_uniform(rng, 1e-5, 1e-1), "alpha_deg": float(rng.uniform(5, 85)),
                 "b_2pikhz": float(rng.uniform(0, 20000))}
            o = out("rates")
            cmds.append(Command(
                ["rates", "--config", path, "--i0", repr(k["i0"]),
                 "--alpha-deg", repr(k["alpha_deg"]), "--b-field-2pikhz", repr(k["b_2pikhz"]),
                 "--out", o], "rates", {"out": o, "knobs": k, "config": cfg}))

        def design(optimize, infeasible):
            path, cfg = configs[int(rng.integers(len(configs)))]
            b_max = float(rng.uniform(2000, 10000))
            b = float(rng.uniform(0, b_max))
            i0 = _log_uniform(rng, 1e-5, 1e-2)
            gamma, big_gamma, r1, r2 = _design_targets(rng, cfg, i0, b)
            i0_max, constraint = 0.1, None
            if infeasible == "r1_saturation":
                gamma = 0.5 * cfg["gamma3_2pikhz"] * float(rng.uniform(1.05, 1.5)) \
                    + cfg["extra_2pikhz"]
                constraint = "r1_saturation"
            elif infeasible == "i0_max":
                least = _min_i0_at_zero_field(cfg, r1, r2) if optimize else i0
                i0_max = least / float(rng.uniform(2.0, 4.0))
                # optimize-B reports that no field in bounds works
                constraint = "b_bounds" if optimize else "i0_bounds"
            o = out("design")
            argv = ["design", "--config", path, "--target-gamma-2pikhz", repr(gamma),
                    "--target-big-gamma-2pikhz", repr(big_gamma), "--i0-max", repr(i0_max)]
            if optimize:
                argv += ["--optimize-b", "--b-max-2pikhz", repr(b_max)]
            else:
                argv += ["--b-field-2pikhz", repr(b)]
            cmds.append(Command(argv + ["--out", o], "design-optb" if optimize else "design",
                                {"out": o, "config": cfg, "gamma": gamma,
                                 "big_gamma": big_gamma, "b_field": None if optimize else b,
                                 "b_max": b_max if optimize else None,
                                 "constraint": constraint}))

        for _ in range(mix[1]):
            design(False, None)
        design(False, "r1_saturation")
        design(False, "i0_max")
        for _ in range(mix[2]):
            design(True, None)
        design(True, "i0_max")
        for i in range(mix[3]):
            path, omega, noisy = fits[(r * mix[3] + i) % len(fits)]
            o = out("fit")
            argv = ["fit", path, "--out", o]
            if i % 2:
                argv += ["--omega-2pikhz", repr(omega / TWO_PI_KHZ)]
            cmds.append(Command(argv, "fit", {"out": o, "omega": omega, "noisy": noisy}))
        rng.shuffle(cmds)
        plan.rounds.append(cmds)
    return plan


def make_plan(workload: str, seed: int, wd: Path, tiny: bool = False) -> Plan:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    build = {"curve-stiff": curve_stiff, "protocol-mc": protocol_mc,
             "short-commands": short_commands}[workload]
    return build(rng, wd, tiny)
