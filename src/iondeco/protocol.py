"""Monte Carlo simulation of the prepare / drive / probe measurement cycle.

Each trajectory steps the drive length through N = 1 .. n_max units of
dt_unit, restarting from preparation every time, with the spurious light
active during the drive.  The probe answers "is the ion in F=1" and is
reduced to a binary on/off outcome through a detection model.  Accumulating
many trajectories estimates P1 as a function of pulse area.

Randomness is counter-based: every outcome bit draws from a fresh stream
keyed by (master seed, trajectory index, N), so trajectories are
reproducible and order-independent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, asdict

import numpy as np

from .errors import ConfigMismatch
from .dynamics import SystemState, integrate, integrate_adiabatic
from .model import PhysicalParams, ScatteringRates


@dataclass(frozen=True)
class DetectionModel:
    """Binary discriminator for the probe pulse.

    mode "ideal": record "on" with probability P1, degraded by the error
    probabilities eps_on = P(off | F=1) and eps_off = P(on | F=0).
    mode "thresholded-counts": draw Poisson photon counts over the probe
    (bright_rate while fluorescing plus dark_rate always) and compare
    against the threshold.
    """

    mode: str = "ideal"
    eps_on: float = 0.0
    eps_off: float = 0.0
    bright_rate: float = 2e4
    dark_rate: float = 1e2
    threshold: int = 10

    def __post_init__(self):
        if self.mode not in ("ideal", "thresholded-counts"):
            raise ValueError(f"unknown detection mode {self.mode!r}")
        if not (0 <= self.eps_on < 0.5 and 0 <= self.eps_off < 0.5):
            raise ValueError("detection error probabilities must lie in [0, 1/2)")
        if not (0 <= self.bright_rate < math.inf and 0 <= self.dark_rate < math.inf):
            raise ValueError("count rates must be finite and nonnegative")

    def sample(self, p1: float, rng: np.random.Generator, probe_duration: float) -> int:
        in_f1 = rng.random() < p1
        if self.mode == "ideal":
            if in_f1:
                return int(rng.random() >= self.eps_on)
            return int(rng.random() < self.eps_off)
        rate = self.dark_rate + (self.bright_rate if in_f1 else 0.0)
        counts = rng.poisson(rate * probe_duration)
        return int(counts > self.threshold)


@dataclass(frozen=True)
class ProtocolConfig:
    dt_unit: float = 100e-6
    n_max: int = 300
    n_trajectories: int = 50
    probe_duration: float = 5e-3
    detection: DetectionModel = DetectionModel()
    seed: int = 0
    prep_error: float = 0.0  # probability the preparation leaves the ion in 1

    def __post_init__(self):
        if not (0 < self.dt_unit < math.inf and 0 < self.probe_duration < math.inf):
            raise ValueError("dt_unit and probe_duration must be finite and positive")
        if self.n_max < 1 or self.n_trajectories < 1:
            raise ValueError("n_max and n_trajectories must be >= 1")
        if not 0 <= self.prep_error <= 1:
            raise ValueError("prep_error must be a probability")


@dataclass(frozen=True)
class TrajectoryRecord:
    """One on/off sequence plus everything needed to replay it bit-exactly."""

    seed: int
    trajectory_index: int
    config: ProtocolConfig
    omega_mw: float
    outcomes: tuple[int, ...]
    p1_curve: tuple[float, ...]      # deterministic P1 at N*dt for prep in 0
    p1_curve_alt: tuple[float, ...]  # same for (faulty) prep in 1


@functools.lru_cache(maxsize=64)
def _deterministic_curves(
    params: PhysicalParams,
    rates: ScatteringRates,
    config: ProtocolConfig,
    model: str,
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """P1 at the drive lengths N*dt_unit for both preparation outcomes.

    Restarting from a fixed state before each drive is equivalent to
    sampling one deterministic solution, so a single evolution per
    initial state covers every N.
    """
    run = {"full": integrate, "adiabatic": integrate_adiabatic}[model]
    t_grid = np.arange(config.n_max + 1) * config.dt_unit
    curve0 = tuple(run(SystemState(n0=1.0), params, rates, t_grid).p1[1:])
    if config.prep_error > 0:
        curve1 = tuple(
            run(SystemState(n0=0.0, n1=1.0), params, rates, t_grid).p1[1:]
        )
    else:
        curve1 = curve0
    return curve0, curve1


def _sample_outcomes(
    curve0, curve1, config: ProtocolConfig, trajectory_index: int
) -> tuple[int, ...]:
    outcomes = []
    for n in range(1, config.n_max + 1):
        rng = np.random.default_rng((config.seed, trajectory_index, n))
        bad_prep = config.prep_error > 0 and rng.random() < config.prep_error
        p1 = curve1[n - 1] if bad_prep else curve0[n - 1]
        outcomes.append(config.detection.sample(p1, rng, config.probe_duration))
    return tuple(outcomes)


def run_trajectory(
    params: PhysicalParams,
    rates: ScatteringRates,
    config: ProtocolConfig,
    trajectory_index: int,
    model: str = "full",
) -> TrajectoryRecord:
    """Simulate one full measurement trajectory (N = 1 .. n_max)."""
    curve0, curve1 = _deterministic_curves(params, rates, config, model)
    return TrajectoryRecord(
        seed=config.seed,
        trajectory_index=trajectory_index,
        config=config,
        omega_mw=params.omega_mw,
        outcomes=_sample_outcomes(curve0, curve1, config, trajectory_index),
        p1_curve=curve0,
        p1_curve_alt=curve1,
    )


def replay(record: TrajectoryRecord) -> TrajectoryRecord:
    """Regenerate a record from its stored seed/config; bit-identical."""
    outcomes = _sample_outcomes(
        record.p1_curve, record.p1_curve_alt, record.config, record.trajectory_index
    )
    return TrajectoryRecord(
        seed=record.seed,
        trajectory_index=record.trajectory_index,
        config=record.config,
        omega_mw=record.omega_mw,
        outcomes=outcomes,
        p1_curve=record.p1_curve,
        p1_curve_alt=record.p1_curve_alt,
    )


@dataclass(frozen=True)
class AccumulatedCurve:
    """Pointwise estimate of P1 over the drive-length grid."""

    n: np.ndarray          # drive length in units of dt
    theta_rad: np.ndarray  # pulse area Omega * N * dt
    tau_s: np.ndarray
    p1_mean: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    n_samples: int


def wilson_interval(k: int | np.ndarray, n: int, z: float = 1.96):
    """Wilson score interval for a binomial proportion."""
    k = np.asarray(k, dtype=float)
    phat = k / n
    denom = 1.0 + z**2 / n
    center = (phat + z**2 / (2 * n)) / denom
    half = z * np.sqrt(phat * (1 - phat) / n + z**2 / (4 * n**2)) / denom
    return center - half, center + half


def accumulate(records: list[TrajectoryRecord], z: float = 1.96) -> AccumulatedCurve:
    """Average many trajectories into an estimated P1 curve with Wilson
    confidence bounds; all records must share one configuration."""
    if not records:
        raise ConfigMismatch("no records to accumulate")
    cfg = records[0].config
    omega = records[0].omega_mw
    for rec in records[1:]:
        if rec.config != cfg or rec.omega_mw != omega:
            raise ConfigMismatch("records stem from differing configurations")
    counts = np.sum([rec.outcomes for rec in records], axis=0)
    n_traj = len(records)
    lo, hi = wilson_interval(counts, n_traj, z)
    n = np.arange(1, cfg.n_max + 1)
    tau = n * cfg.dt_unit
    return AccumulatedCurve(
        n=n,
        theta_rad=omega * tau,
        tau_s=tau,
        p1_mean=counts / n_traj,
        ci_low=lo,
        ci_high=hi,
        n_samples=n_traj,
    )


# ---------------------------------------------------------------------------
# serialization

def _config_header(cfg: ProtocolConfig, omega_mw: float) -> list[str]:
    items = asdict(cfg)
    det = items.pop("detection")
    lines = [f"# omega_mw={omega_mw!r}"]
    lines += [f"# {k}={v!r}" for k, v in items.items()]
    lines += [f"# detection.{k}={v!r}" for k, v in det.items()]
    return lines


def write_trajectories(path, records: list[TrajectoryRecord]) -> None:
    """Line-oriented text format: '# key=value' header, then one 0/1 line
    per trajectory (trajectory index order)."""
    if not records:
        raise ConfigMismatch("no records to write")
    cfg = records[0].config
    for rec in records[1:]:
        if rec.config != cfg:
            raise ConfigMismatch("records stem from differing configurations")
    lines = _config_header(cfg, records[0].omega_mw)
    lines += ["".join(str(b) for b in rec.outcomes) for rec in records]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trajectories(path) -> tuple[dict, np.ndarray]:
    """Parse a trajectory file back into (header dict, outcomes array of
    shape (n_trajectories, n_max))."""
    header: dict[str, str] = {}
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, val = line.lstrip("# ").partition("=")
                header[key.strip()] = val.strip()
            else:
                rows.append([int(c) for c in line])
    return header, np.array(rows, dtype=int)


def write_curve_csv(path, curve: AccumulatedCurve, provenance: list[str] | None = None):
    """CSV columns: N, theta_rad, p1_mean, ci_low, ci_high, n_samples."""
    with open(path, "w") as fh:
        for line in provenance or []:
            fh.write(f"# {line}\n")
        fh.write("N,theta_rad,p1_mean,ci_low,ci_high,n_samples\n")
        for i in range(len(curve.n)):
            fh.write(
                f"{curve.n[i]},{curve.theta_rad[i]:.12g},{curve.p1_mean[i]:.12g},"
                f"{curve.ci_low[i]:.12g},{curve.ci_high[i]:.12g},{curve.n_samples}\n"
            )
