"""Single-document run configuration.

All frequency-like entries are written in the 2*pi x kHz convention of
the lab (keys carry a `_2pikhz` suffix) and are converted to rad/s once,
at this boundary.  Unknown keys are rejected with their dotted location.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import re

import yaml

from .dynamics import SystemState
from .errors import ConfigError
from .model import TWO_PI_KHZ, PhysicalParams, ScatteringRates, scattering_rates
from .protocol import DetectionModel, ProtocolConfig


class _Loader(yaml.CSafeLoader):
    """libyaml's safe loader that also reads 3e-4 and 1.5e3 as floats, as
    YAML 1.2 does: YAML 1.1 wants a dot and a signed exponent."""

    # a copy, so that the resolver added below stays out of yaml's loaders
    yaml_implicit_resolvers = {
        k: list(v) for k, v in yaml.CSafeLoader.yaml_implicit_resolvers.items()
    }


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)

DEFAULTS = {
    "physical": {
        "omega_mw_2pikhz": 4.2,
        "delta_mw_2pikhz": 0.0,
        "i0": 0.0,
        "alpha_deg": 0.0,
        "delta_laser_2pikhz": 0.0,
        "b_field_2pikhz": 0.0,
        "gamma3_2pikhz": 18000.0,
        "gamma_ph_extra_2pikhz": 0.0,
        "beta1": 1.0 / 3.0,
        "beta2": 2.0 / 3.0,
    },
    # optional direct override of the scattering rates (bypasses i0/alpha/B)
    "rates": {
        "r1_2pikhz": None,
        "r2_2pikhz": None,
    },
    "initial": {
        "n0": 1.0,
        "n1": 0.0,
    },
    "protocol": {
        "dt_us": 100.0,
        "n_max": 300,
        "n_trajectories": 50,
        "probe_ms": 5.0,
        "prep_error": 0.0,
        "seed": 0,
    },
    "detection": {
        "mode": "ideal",
        "eps_on": 0.0,
        "eps_off": 0.0,
        "bright_rate_hz": 2e4,
        "dark_rate_hz": 1e2,
        "threshold": 10,
    },
    "integrator": {
        "model": "full",  # full | adiabatic
    },
}

# the values a key takes, by the type of its default; a bool is never one
_KINDS = {
    str: ((str,), "a string"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    type(None): ((int, float, type(None)), "a number"),
}


class RunConfig:
    """Validated configuration document with defaults filled in.

    DEFAULTS is the schema: a key takes a value of its default's kind (see
    _KINDS).  A null document or section keeps its defaults.
    """

    def __init__(self, data: dict | None = None):
        self.data = copy.deepcopy(DEFAULTS)
        if not isinstance(data, (dict, type(None))):
            raise ConfigError("expected a mapping at '<root>'")
        for section, keys in (data or {}).items():
            if section not in DEFAULTS:
                raise ConfigError(f"unknown section '{section}'", location=section)
            if not isinstance(keys, (dict, type(None))):
                raise ConfigError(f"expected a mapping at '{section}'", location=section)
            for key, value in (keys or {}).items():
                self.set_path(f"{section}.{key}", value)

    def set_path(self, dotted: str, value):
        """Set one 'section.key' entry: every leaf of a document and every
        CLI flag override comes through here."""
        section, _, key = dotted.partition(".")
        if key not in DEFAULTS.get(section, ()):
            raise ConfigError(f"unknown key '{dotted}'", location=dotted)
        accepted, kind = _KINDS[type(DEFAULTS[section][key])]
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ConfigError(f"'{dotted}' must be {kind}", location=dotted)
        self.data[section][key] = value

    # -- I/O ---------------------------------------------------------------

    @classmethod
    def load(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                raw = yaml.load(fh, Loader=_Loader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config parse error in {path}: {exc}") from exc
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls(raw)

    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        try:
            raw = yaml.load(text, Loader=_Loader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config parse error: {exc}") from exc
        return cls(raw)

    def serialize(self) -> str:
        return yaml.dump(self.data, Dumper=yaml.CSafeDumper, sort_keys=True)

    def hash(self) -> str:
        canon = json.dumps(self.data, sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    # -- builders ----------------------------------------------------------

    def physical_params(self) -> PhysicalParams:
        p = self.data["physical"]
        try:
            return PhysicalParams(
                omega_mw=p["omega_mw_2pikhz"] * TWO_PI_KHZ,
                delta_mw=p["delta_mw_2pikhz"] * TWO_PI_KHZ,
                i0=p["i0"],
                alpha=math.radians(p["alpha_deg"]),
                delta_laser=p["delta_laser_2pikhz"] * TWO_PI_KHZ,
                zeeman_delta=p["b_field_2pikhz"] * TWO_PI_KHZ,
                gamma3=p["gamma3_2pikhz"] * TWO_PI_KHZ,
                gamma_ph_extra=p["gamma_ph_extra_2pikhz"] * TWO_PI_KHZ,
                beta1=p["beta1"],
                beta2=p["beta2"],
            )
        except ValueError as exc:
            raise ConfigError(str(exc), location="physical") from exc

    def rates(self, params: PhysicalParams | None = None) -> ScatteringRates:
        """Scattering rates: direct override when given, else from knobs.
        `params` saves rebuilding the physical parameters when the caller
        already has them from `physical_params()`."""
        r = self.data["rates"]
        if params is None:
            params = self.physical_params()
        if r["r1_2pikhz"] is None and r["r2_2pikhz"] is None:
            return scattering_rates(params)
        if r["r1_2pikhz"] is None or r["r2_2pikhz"] is None:
            raise ConfigError("rates override needs both r1_2pikhz and r2_2pikhz",
                              location="rates")
        r1 = r["r1_2pikhz"] * TWO_PI_KHZ
        r2 = r["r2_2pikhz"] * TWO_PI_KHZ
        p1 = min(r1 / params.gamma3, 0.5)
        p2 = min(0.5 * r2 / params.gamma3, 0.5)
        try:
            return ScatteringRates(r1=r1, r2=r2, p3_mean=(p2, p1, p2))
        except ValueError as exc:
            raise ConfigError(str(exc), location="rates") from exc

    def initial_state(self) -> SystemState:
        ini = self.data["initial"]
        n0, n1 = ini["n0"], ini["n1"]
        if not (n0 >= 0 and n1 >= 0 and abs(n0 + n1 - 1.0) <= 1e-9):
            raise ConfigError("initial n0 + n1 must equal 1", location="initial")
        return SystemState(n0=n0, n1=n1)

    def protocol_config(self) -> ProtocolConfig:
        p = self.data["protocol"]
        d = self.data["detection"]
        try:
            det = DetectionModel(
                mode=d["mode"],
                eps_on=d["eps_on"],
                eps_off=d["eps_off"],
                bright_rate=d["bright_rate_hz"],
                dark_rate=d["dark_rate_hz"],
                threshold=d["threshold"],
            )
            return ProtocolConfig(
                dt_unit=p["dt_us"] * 1e-6,
                n_max=p["n_max"],
                n_trajectories=p["n_trajectories"],
                probe_duration=p["probe_ms"] * 1e-3,
                detection=det,
                seed=p["seed"],
                prep_error=p["prep_error"],
            )
        except ValueError as exc:
            raise ConfigError(str(exc), location="protocol") from exc

    def model_variant(self) -> str:
        m = self.data["integrator"]["model"]
        if m not in ("full", "adiabatic"):
            raise ConfigError(f"unknown model variant '{m}'",
                              location="integrator.model")
        return m
