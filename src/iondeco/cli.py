"""Command-line front end.

Subcommands: rates | simulate | trajectories | fit | design | sweep.
All frequency I/O uses the 2*pi x kHz convention; conversion to rad/s
happens once, in the configuration layer.  Every command is deterministic
given (config, seed) and emits a provenance header (tool version, config
hash, seed).

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 infeasible
design.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings

from . import __version__
from .config import DEFAULTS, RunConfig
from .design import DesignTarget, design_decoherence, verify_design
from .dynamics import integrate
from .errors import ConfigError, DegenerateRates, InfeasibleDesign, IondecoError, OutOfRange
from .fitting import effective_from_fit, fit_nutation
from .model import TWO_PI_KHZ, effective_rates
from .protocol import (accumulate, format_table, run_trajectories, write_curve_csv,
                       write_trajectories)

# override flag -> the config key it sets, whose default types the flag
_OVERRIDES = {
    "i0": "physical.i0",
    "alpha_deg": "physical.alpha_deg",
    "b_field_2pikhz": "physical.b_field_2pikhz",
    "omega_2pikhz": "physical.omega_mw_2pikhz",
    "detuning_2pikhz": "physical.delta_laser_2pikhz",
    "dt_us": "protocol.dt_us",
    "nmax": "protocol.n_max",
    "ntraj": "protocol.n_trajectories",
    "seed": "protocol.seed",
}

_SERIES_COLUMNS = "theta_rad,tau_s,p1,n0,n1,n2,n3"


def _add_common(parser):
    parser.add_argument("--config", help="YAML run configuration")
    parser.add_argument("--out", help="output path (default: stdout)")
    for attr, path in _OVERRIDES.items():
        section, key = path.split(".")
        parser.add_argument("--" + attr.replace("_", "-"), type=type(DEFAULTS[section][key]))


def _build_config(args) -> RunConfig:
    cfg = RunConfig.load(args.config) if args.config else RunConfig()
    for attr, path in _OVERRIDES.items():
        value = getattr(args, attr)
        if value is not None:
            cfg.set_path(path, value)
    return cfg


def _provenance(cfg: RunConfig) -> list[str]:
    return [
        f"iondeco {__version__}",
        f"config_hash={cfg.hash()}",
        f"seed={cfg.data['protocol']['seed']}",
    ]


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------


def cmd_rates(args) -> int:
    cfg = _build_config(args)
    params = cfg.physical_params()
    rates = cfg.rates(params)
    eff = effective_rates(params, rates)
    doc = {
        "provenance": {
            "tool": f"iondeco {__version__}",
            "config_hash": cfg.hash(),
            "seed": cfg.data["protocol"]["seed"],
        },
        "units": "2pi_kHz unless noted",
        "rates": {
            "r1_2pikhz": rates.r1 / TWO_PI_KHZ,
            "r2_2pikhz": rates.r2 / TWO_PI_KHZ,
            "p3_mean_m_minus1_0_plus1": list(rates.p3_mean),
        },
        "effective": {
            "gamma_2pikhz": eff.gamma_eff / TWO_PI_KHZ,
            "Gamma_2pikhz": None if eff.Gamma_eff is None else eff.Gamma_eff / TWO_PI_KHZ,
            "p1_inf": eff.p1_inf,
        },
    }
    _emit(_json_dump(doc), args.out)
    return 0


def _simulate_series(cfg: RunConfig):
    import numpy as np

    params = cfg.physical_params()
    rates = cfg.rates(params)
    proto = cfg.protocol_config()
    t_grid = np.arange(proto.n_max + 1) * proto.dt_unit
    series = integrate(cfg.initial_state(), params, rates, t_grid, cfg.model_variant())
    return params, series


def _series_table(params, series) -> np.ndarray:
    """Rows [theta, tau, p1 = n1 + n2, n0, n1, n2, n3] after t = 0."""
    import numpy as np

    t, y = series.t[1:], series.y[1:]
    return np.column_stack([params.omega_mw * t, t, y[:, 3] + y[:, 4], y[:, 2:]])


def cmd_simulate(args) -> int:
    cfg = _build_config(args)
    params, series = _simulate_series(cfg)
    header = _provenance(cfg) + [f"dt_us={cfg.data['protocol']['dt_us']!r}"]
    _emit(format_table(header, _SERIES_COLUMNS, _series_table(params, series)), args.out)
    return 0


def cmd_trajectories(args) -> int:
    cfg = _build_config(args)
    params = cfg.physical_params()
    rates = cfg.rates(params)
    proto = cfg.protocol_config()
    batch = run_trajectories(params, rates, proto, cfg.model_variant())
    curve = accumulate(batch)
    base = args.out or "trajectories"
    write_trajectories(f"{base}.traj.txt", batch)
    prov = _provenance(cfg) + [f"dt_us={cfg.data['protocol']['dt_us']!r}"]
    write_curve_csv(f"{base}.curve.csv", curve, provenance=prov)
    print(f"wrote {base}.traj.txt and {base}.curve.csv", file=sys.stderr)
    return 0


def read_curve_file(path):
    """Read a curve CSV (simulate or accumulated format).

    Returns (tau, p1, sigma): sigma is derived from the Wilson bounds of
    accumulated curves and None for deterministic curves.
    """
    import numpy as np

    header, columns = {}, None
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line.startswith("#"):
                    key, eq, val = line.lstrip("# ").partition("=")
                    if eq:
                        header[key.strip()] = val.strip().strip("'\"")
                elif line:
                    columns = line.split(",")
                    break
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an empty body is reported below
                table = np.loadtxt(fh, delimiter=",", ndmin=2)
        dt_us = float(header["dt_us"]) if "dt_us" in header else None
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if columns is None or not len(table):
        raise ConfigError(f"no data rows in {path}")
    if table.shape[1] != len(columns) or not np.isfinite(table).all():
        raise ConfigError(f"{path}: every row must hold {len(columns)} finite values")
    data = dict(zip(columns, table.T))
    if "tau_s" in data:
        tau = data["tau_s"]
    elif "N" in data and dt_us is not None:
        tau = data["N"] * dt_us * 1e-6
    else:
        raise ConfigError(f"{path}: no time axis (need tau_s column or dt_us header)")
    if "p1" in data:
        return tau, data["p1"], None
    if "p1_mean" in data:
        sigma = None
        if "ci_low" in data and "ci_high" in data:
            sigma = np.maximum((data["ci_high"] - data["ci_low"]) / (2 * 1.96), 1e-3)
        return tau, data["p1_mean"], sigma
    raise ConfigError(f"{path}: no P1 column found")


def cmd_fit(args) -> int:
    omega_in = args.omega_2pikhz
    if omega_in is not None and not 0 < omega_in < math.inf:
        raise ConfigError(f"--omega-2pikhz must be positive and finite, got {omega_in!r}")
    tau, p1, sigma = read_curve_file(args.curve)
    try:
        fit = fit_nutation(tau, p1, sigma=sigma)
    except ValueError as exc:
        raise ConfigError(f"{args.curve}: {exc}") from exc
    doc = {
        "provenance": {"tool": f"iondeco {__version__}", "input": args.curve},
        "units": "2pi_kHz",
        "omega": fit.omega_fit / TWO_PI_KHZ,
        "lambda": fit.lambda_fit / TWO_PI_KHZ,
        "p_inf": fit.p_inf_fit,
        "amplitude": fit.amplitude,
        "phase": fit.phase,
        "residual_rms": fit.residual_rms,
        "converged": fit.converged,
        "iterations": fit.iterations,
    }
    omega_mw = (fit.omega_fit / TWO_PI_KHZ if omega_in is None else omega_in) * TWO_PI_KHZ
    try:
        eff = effective_from_fit(fit, omega_mw)
        ratio = None
        if eff.Gamma_eff is not None:
            ratio = omega_mw**2 / (eff.Gamma_eff * eff.gamma_eff)
        doc["derived"] = {
            "gamma": eff.gamma_eff / TWO_PI_KHZ,
            "Gamma": None if eff.Gamma_eff is None else eff.Gamma_eff / TWO_PI_KHZ,
            "r2_over_r1": ratio,
        }
    except (OutOfRange, DegenerateRates) as exc:
        doc["derived"] = {"error": str(exc)}
    _emit(_json_dump(doc), args.out)
    return 0


def cmd_design(args) -> int:
    cfg = _build_config(args)
    params = cfg.physical_params()
    try:
        target = DesignTarget(
            gamma_target=args.target_gamma_2pikhz * TWO_PI_KHZ,
            Gamma_target=args.target_big_gamma_2pikhz * TWO_PI_KHZ,
            i0_bounds=(0.0, args.i0_max),
            b_bounds=(0.0, args.b_max_2pikhz * TWO_PI_KHZ),
            optimize_b=args.optimize_b,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        knobs = design_decoherence(target, params)
    except InfeasibleDesign as exc:
        doc = {
            "infeasible": True,
            "binding_constraint": exc.constraint,
            "message": str(exc),
        }
        _emit(_json_dump(doc), args.out)
        return 4
    report = verify_design(target, params, knobs)
    doc = {
        "provenance": {
            "tool": f"iondeco {__version__}",
            "config_hash": cfg.hash(),
        },
        "knobs": {
            "i0": knobs[0],
            "alpha_deg": math.degrees(knobs[1]),
            "b_field_2pikhz": knobs[2] / TWO_PI_KHZ,
        },
        "verification": {
            "achieved_gamma_2pikhz": report["achieved_gamma"] / TWO_PI_KHZ,
            "achieved_Gamma_2pikhz": report["achieved_Gamma"] / TWO_PI_KHZ,
            "rel_err_gamma": report["rel_err_gamma"],
            "rel_err_Gamma": report["rel_err_Gamma"],
            "within_tol": report["within_tol"],
        },
    }
    _emit(_json_dump(doc), args.out)
    return 0


def cmd_sweep(args) -> int:
    import numpy as np

    cfg = _build_config(args)
    path, _, valspec = args.axis.partition("=")
    try:
        values = sorted(float(v) for v in valspec.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"bad --axis value: {exc}") from exc
    header = _provenance(cfg) + [f"axis={path}"]
    tables = [np.empty((0, 8))]  # an empty axis still makes a table of 8 columns
    for value in values:
        cfg.set_path(path, value)
        params, series = _simulate_series(cfg)
        # the hash of the config that produced this value's rows
        header.append(f"config_hash[{value:.12g}]={cfg.hash()}")
        tables.append(np.insert(_series_table(params, series), 0, value, axis=1))
    text = format_table(header, "axis_value," + _SERIES_COLUMNS, np.concatenate(tables))
    if not values:
        echo = ["empty axis: config echo follows", *cfg.serialize().splitlines()]
        text += "".join(f"# {line}\n" for line in echo)
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------


@functools.cache  # built at the first main call; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iondeco",
        description="Designed light-induced decoherence on a hyperfine qubit",
    )
    parser.add_argument("--version", action="version", version=f"iondeco {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rates", help="closed-form scattering and effective rates")
    _add_common(p)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("simulate", help="deterministic P1(theta) curve")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("trajectories", help="Monte Carlo measurement protocol")
    _add_common(p)
    p.set_defaults(func=cmd_trajectories)

    p = sub.add_parser("fit", help="fit a damped nutation curve")
    p.add_argument("curve", help="curve CSV (simulate or accumulated format)")
    p.add_argument("--out")
    p.add_argument("--omega-2pikhz", type=float,
                   help="microwave Rabi frequency for the Gamma derivation "
                        "(default: fitted omega)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("design", help="invert targets (gamma, Gamma) to knobs")
    _add_common(p)
    p.add_argument("--target-gamma-2pikhz", type=float, required=True)
    p.add_argument("--target-big-gamma-2pikhz", type=float, required=True)
    p.add_argument("--i0-max", type=float, default=0.1)
    p.add_argument("--optimize-b", action="store_true")
    p.add_argument("--b-max-2pikhz", type=float, default=0.0)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("sweep", help="repeat simulate over a knob grid")
    _add_common(p)
    p.add_argument("--axis", required=True,
                   help="dotted config key and values, e.g. "
                        "'rates.r2_2pikhz=0.5,2.2,13.6,54.4'")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:  # OSError: an unreadable input or unwritable --out
        loc = f" (at {exc.location})" if getattr(exc, "location", None) else ""
        print(f"config error: {exc}{loc}", file=sys.stderr)
        return 2
    except InfeasibleDesign as exc:
        print(f"infeasible design ({exc.constraint}): {exc}", file=sys.stderr)
        return 4
    except (IondecoError, OverflowError) as exc:  # OverflowError: beyond the float range
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
