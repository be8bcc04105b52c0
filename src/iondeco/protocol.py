"""Monte Carlo simulation of the prepare / drive / probe measurement cycle.

Each trajectory steps the drive length through N = 1 .. n_max units of
dt_unit, restarting from preparation every time, with the spurious light
active during the drive.  The probe answers "is the ion in F=1" and is
reduced to a binary on/off outcome through a detection model.  Accumulating
many trajectories estimates P1 as a function of pulse area.

No outcome records the preparation fault, the F=1 projection or the photon
count, so the bit at drive length N is one Bernoulli draw with probability

    q_N = (1 - prep_error) on(P1_0(N)) + prep_error on(P1_1(N)),

where P1_0 / P1_1 are the deterministic curves after a good / faulty
preparation and on(p) is the detection model's on-probability.  All bits
of a run come from one counter-based Philox block keyed by the seed: bit
(k, N) is uniform number k * n_max + N - 1 of that stream, so a
trajectory's row depends only on (seed, k, n_max) and replays bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

from .dynamics import SystemState, integrate
from .model import PhysicalParams, ScatteringRates

RNG_STREAM = "philox-v1"


def _poisson_log_pmf(j: int, mu: float) -> float:
    """log P(X = j) for X ~ Poisson(mu) > 0.  For j > 15 and mu > j/2 it
    takes the saddle-point form (Loader, 2000) with a Stirling series, so
    that no logarithms of size ~ j log j cancel near the mode."""
    if j < 16 or mu < j / 2:
        return j * math.log(mu) - mu - math.lgamma(j + 1)
    j2 = j * j
    stirling = (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * j2)) / j2) / j2) / j
    return (j * math.log1p((mu - j) / j) + (j - mu) - stirling
            - 0.5 * math.log(2 * math.pi * j))


def _poisson_sf(threshold: int, mu: float) -> float:
    """P(X > threshold) for X ~ Poisson(mu)."""
    if threshold < 0:
        return 1.0
    if mu == 0:
        return 0.0
    cdf = math.fsum(math.exp(_poisson_log_pmf(j, mu)) for j in range(threshold + 1))
    return max(0.0, 1.0 - cdf)


@dataclass(frozen=True)
class DetectionModel:
    """Binary discriminator for the probe pulse.

    mode "ideal": record "on" with probability P1, degraded by the error
    probabilities eps_on = P(off | F=1) and eps_off = P(on | F=0).
    mode "thresholded-counts": Poisson photon counts over the probe
    (bright_rate while fluorescing plus dark_rate always) are compared
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

    def on_probability(self, p1, probe_duration: float):
        """P(on) = p1 on_1 + (1 - p1) on_0 for F=1 population p1 (scalar or
        array), where on_1 / on_0 are the on-probabilities from F=1 / F=0."""
        if self.mode == "ideal":
            on1, on0 = 1.0 - self.eps_on, self.eps_off
        else:
            on1 = _poisson_sf(self.threshold,
                              (self.bright_rate + self.dark_rate) * probe_duration)
            on0 = _poisson_sf(self.threshold, self.dark_rate * probe_duration)
        return p1 * on1 + (1 - p1) * on0


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
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must lie in [0, 2**64)")


@dataclass(frozen=True, eq=False)
class TrajectoryBatch:
    """All trajectories of one run plus everything needed to replay them."""

    config: ProtocolConfig
    omega_mw: float
    p1_curve: np.ndarray      # deterministic P1 at N*dt for prep in 0
    p1_curve_alt: np.ndarray  # same for (faulty) prep in 1
    outcomes: np.ndarray      # uint8, shape (n_trajectories, n_max)


def _sample_outcomes(curve0, curve1, config: ProtocolConfig) -> np.ndarray:
    import numpy as np

    on, eps = config.detection.on_probability, config.prep_error
    q = ((1 - eps) * on(curve0, config.probe_duration)
         + eps * on(curve1, config.probe_duration))
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    uniforms = rng.random((config.n_trajectories, config.n_max))
    return (uniforms < q).astype(np.uint8)


def run_trajectories(
    params: PhysicalParams,
    rates: ScatteringRates,
    config: ProtocolConfig,
    model: str = "full",
) -> TrajectoryBatch:
    """Simulate every trajectory of a run (N = 1 .. n_max each).

    Restarting from a fixed state before each drive is equivalent to
    sampling one deterministic solution, so a single evolution per
    initial state covers every N.
    """
    import numpy as np

    t_grid = np.arange(config.n_max + 1) * config.dt_unit
    curve0 = integrate(SystemState(n0=1.0), params, rates, t_grid, model).p1[1:]
    curve1 = curve0
    if config.prep_error > 0:
        curve1 = integrate(SystemState(n0=0.0, n1=1.0), params, rates, t_grid, model).p1[1:]
    outcomes = _sample_outcomes(curve0, curve1, config)
    return TrajectoryBatch(config, params.omega_mw, curve0, curve1, outcomes)


def replay(batch: TrajectoryBatch) -> TrajectoryBatch:
    """Regenerate a batch from its stored config and curves; bit-identical."""
    outcomes = _sample_outcomes(batch.p1_curve, batch.p1_curve_alt, batch.config)
    return replace(batch, outcomes=outcomes)


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
    import numpy as np

    k = np.asarray(k, dtype=float)
    phat = k / n
    denom = 1.0 + z**2 / n
    center = (phat + z**2 / (2 * n)) / denom
    half = z * np.sqrt(phat * (1 - phat) / n + z**2 / (4 * n**2)) / denom
    return center - half, center + half


def accumulate(batch: TrajectoryBatch, z: float = 1.96) -> AccumulatedCurve:
    """Average a batch's trajectories into an estimated P1 curve with
    Wilson confidence bounds."""
    import numpy as np

    cfg = batch.config
    counts = batch.outcomes.sum(0)
    n_traj = cfg.n_trajectories
    lo, hi = wilson_interval(counts, n_traj, z)
    n = np.arange(1, cfg.n_max + 1)
    tau = n * cfg.dt_unit
    return AccumulatedCurve(
        n=n,
        theta_rad=batch.omega_mw * tau,
        tau_s=tau,
        p1_mean=counts / n_traj,
        ci_low=lo,
        ci_high=hi,
        n_samples=n_traj,
    )


# ---------------------------------------------------------------------------
# serialization

def format_table(header: list[str], columns: str, table: np.ndarray) -> str:
    """CSV text of a curve table: a '# <line>' per header line, the column
    line, then one line per row of the 2-D array with every value as %.12g
    (exact for the integer columns N and n_samples, which stay below 1e12)."""
    row = ",".join(["%.12g"] * table.shape[1]) + "\n"
    head = "".join(f"# {line}\n" for line in header)
    return f"{head}{columns}\n" + row * len(table) % tuple(table.ravel().tolist())


def _config_header(cfg: ProtocolConfig, omega_mw: float) -> list[str]:
    items = asdict(cfg)
    det = items.pop("detection")
    lines = [f"# omega_mw={omega_mw!r}"]
    lines += [f"# {k}={v!r}" for k, v in items.items()]
    lines += [f"# detection.{k}={v!r}" for k, v in det.items()]
    lines.append(f"# rng_stream={RNG_STREAM}")
    return lines


def write_trajectories(path, batch: TrajectoryBatch) -> None:
    """Line-oriented text format: '# key=value' header, then one 0/1 line
    per trajectory (trajectory index order)."""
    import numpy as np

    rows = np.full((batch.config.n_trajectories, batch.config.n_max + 1),
                   ord("\n"), dtype=np.uint8)
    rows[:, :-1] = batch.outcomes + ord("0")
    header = "\n".join(_config_header(batch.config, batch.omega_mw)) + "\n"
    with open(path, "wb") as fh:
        fh.write(header.encode())
        fh.write(rows.tobytes())


def read_trajectories(path) -> tuple[dict, np.ndarray]:
    """Parse a trajectory file back into (header dict, uint8 outcomes array
    of shape (n_trajectories, n_max))."""
    import numpy as np

    header: dict[str, str] = {}
    with open(path, "rb") as fh:
        text = fh.read()
    start = 0
    while text.startswith(b"#", start):
        end = text.index(b"\n", start) + 1
        key, _, val = text[start:end].decode().lstrip("# ").partition("=")
        header[key.strip()] = val.strip()
        start = end
    body = text[start:]
    width = body.index(b"\n") + 1
    rows = np.frombuffer(body, dtype=np.uint8).reshape(-1, width)
    bits = rows[:, :-1] - ord("0")
    if np.any(rows[:, -1] != ord("\n")) or np.any(bits > 1):
        raise ValueError(f"{path}: outcome lines must hold only 0 and 1")
    return header, bits


def write_curve_csv(path, curve: AccumulatedCurve, provenance: list[str] | None = None):
    """CSV columns: N, theta_rad, p1_mean, ci_low, ci_high, n_samples."""
    import numpy as np

    table = np.column_stack([curve.n, curve.theta_rad, curve.p1_mean, curve.ci_low,
                             curve.ci_high, np.full(len(curve.n), curve.n_samples)])
    with open(path, "w") as fh:
        fh.write(format_table(provenance or [],
                              "N,theta_rad,p1_mean,ci_low,ci_high,n_samples", table))
