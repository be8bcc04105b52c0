"""Command-line front end.

Subcommands: rates | simulate | trajectories | fit | design | sweep.
All frequency I/O uses the 2*pi x kHz convention; conversion to rad/s
happens once, in the configuration layer.  Every command is deterministic
given (config, seed); each output's provenance (tool version, and config
hash, seed or input path where they apply) is listed in the README.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 infeasible
design.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import __version__
from .config import RunConfig, default_of
from .design import DesignTarget, design_decoherence, verify_design
from .errors import ConfigError, DegenerateRates, InfeasibleDesign, IondecoError, OutOfRange
from .fitting import effective_from_fit, fit_nutation, invert_saturation
from .model import TWO_PI_KHZ, effective_rates
from .protocol import (accumulate, drive_series, format_header, format_table,
                       read_curve_file, run_trajectories, write_curve_csv,
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
        parser.add_argument("--" + attr.replace("_", "-"), type=type(default_of(path)))


def _build(cfg: RunConfig) -> tuple:
    """(params, rates, protocol, model variant) of `cfg`.  Every command that
    reads a config builds all four, so each accepts the same documents."""
    params = cfg.physical_params()
    return params, cfg.rates(params), cfg.protocol_config(), cfg.model_variant()


def _config(args) -> RunConfig:
    """The config of `args` with its flag overrides set."""
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
    cfg = _config(args)
    params, rates, *_ = _build(cfg)
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
    built = _build(cfg)
    return built[0], drive_series(*built)


def _series_table(params, series) -> np.ndarray:
    """Rows [theta, tau, p1 = n1 + n2, n0, n1, n2, n3] after t = 0."""
    import numpy as np

    t = series.t[1:]
    return np.column_stack([params.omega_mw * t, t, series.p1[1:], series.y[1:, 2:]])


def cmd_simulate(args) -> int:
    cfg = _config(args)
    params, series = _simulate_series(cfg)
    header = _provenance(cfg) + [f"dt_us={cfg.data['protocol']['dt_us']!r}"]
    _emit(format_table(header, _SERIES_COLUMNS, _series_table(params, series)), args.out)
    return 0


def cmd_trajectories(args) -> int:
    cfg = _config(args)
    batch = run_trajectories(*_build(cfg))
    curve = accumulate(batch)
    base = args.out or "trajectories"
    write_trajectories(f"{base}.traj.txt", batch)
    prov = _provenance(cfg) + [f"dt_us={cfg.data['protocol']['dt_us']!r}"]
    write_curve_csv(f"{base}.curve.csv", curve, provenance=prov)
    print(f"wrote {base}.traj.txt and {base}.curve.csv", file=sys.stderr)
    return 0


def cmd_fit(args) -> int:
    omega_in = args.omega_2pikhz
    if omega_in is not None and not 0 < omega_in < math.inf:
        raise ConfigError(f"--omega-2pikhz must be positive and finite, got {omega_in!r}")
    try:
        tau, p1, sigma = read_curve_file(args.curve)
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
        doc["derived"] = {
            "gamma": eff.gamma_eff / TWO_PI_KHZ,
            "Gamma": None if eff.Gamma_eff is None else eff.Gamma_eff / TWO_PI_KHZ,
            "r2_over_r1": None if eff.Gamma_eff is None else invert_saturation(fit.p_inf_fit),
        }
    except (OutOfRange, DegenerateRates) as exc:
        doc["derived"] = {"error": str(exc)}
    _emit(_json_dump(doc), args.out)
    return 0


def cmd_design(args) -> int:
    cfg = _config(args)
    params, *_ = _build(cfg)
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
    provenance = {"tool": f"iondeco {__version__}", "config_hash": cfg.hash()}
    try:
        knobs = design_decoherence(target, params)
    except InfeasibleDesign as exc:
        doc = {
            "provenance": provenance,
            "infeasible": True,
            "binding_constraint": exc.constraint,
            "message": str(exc),
        }
        _emit(_json_dump(doc), args.out)
        return 4
    report = verify_design(target, params, knobs)
    doc = {
        "provenance": provenance,
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

    cfg = _config(args)
    _build(cfg)  # the whole document is checked, even for an empty axis
    path, eq, valspec = args.axis.partition("=")
    if not eq:
        raise ConfigError(f"--axis must be 'key=values', got {args.axis!r}")
    # an integer key steps integers; set_path checks every value
    kind = int if type(default_of(path)) is int else float
    try:
        values = sorted(kind(v) for v in valspec.split(",") if v.strip())
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
        text += format_header(echo)
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
    except MemoryError as exc:  # a grid or an outcome block too large for this machine
        print(f"config error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 2
    except (IondecoError, OverflowError) as exc:  # OverflowError: beyond the float range
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
