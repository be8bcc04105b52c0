"""Monte Carlo simulation of the prepare / drive / probe measurement cycle.

Each trajectory steps the drive length through N = 1 .. n_max units of
dt_unit, restarting from preparation every time, with the spurious light
active during the drive.  The probe answers "is the ion in F=1" and is
reduced to a binary on/off outcome through a detection model.  Accumulating
many trajectories estimates P1 as a function of pulse area.

No outcome records the preparation fault, the F=1 projection or the photon
count, so the bit at drive length N is one Bernoulli draw with probability

    q_N = on(P1(N)),

where P1 is the deterministic curve propagated from the prepared mixture
(n0, n1) = (1 - prep_error, prep_error) and on(p) is the detection model's
on-probability.  It equals (1 - prep_error) on(P1_0(N)) + prep_error
on(P1_1(N)) of the curves P1_0 / P1_1 after a good / faulty preparation,
because the evolution is linear in the state and on(p) is affine.  All bits
of a run come from one counter-based Philox block keyed by the seed: bit
(k, N) is uniform number k * n_max + N - 1 of that stream, so a
trajectory's row depends only on (seed, k, n_max) and replays bit-exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace

from .dynamics import SystemState, TimeSeries, integrate
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
    """P(X > threshold) for X ~ Poisson(mu).

    The tail on the far side of the threshold from mu is summed outward
    from the threshold, where its terms are largest, until a term falls
    below 2**-60 of the sum.  So the cost does not grow with the
    threshold; it grows as sqrt(mu) only for a threshold near mu.
    """
    if mu == 0:
        return 0.0
    if mu == math.inf:  # P(X > threshold) tends to 1 as mu grows
        return 1.0
    upper = threshold >= mu
    j, step = (threshold + 1, 1) if upper else (threshold, -1)
    terms, total = [], 0.0
    while j >= 0:
        terms.append(math.exp(_poisson_log_pmf(j, mu)))
        total += terms[-1]
        if not terms[-1] > 2.0**-60 * total:
            break
        j += step
    tail = math.fsum(terms)
    return tail if upper else max(0.0, 1.0 - tail)


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
        if not 0 <= self.threshold < 2**53:  # larger counts are not exact floats
            raise ValueError("detection threshold must lie in [0, 2**53)")

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
        if self.n_trajectories * self.n_max >= 2**53:  # larger counts are not exact floats
            raise ValueError("n_max and n_trajectories * n_max must lie below 2**53")
        if not 0 <= self.prep_error <= 1:
            raise ValueError("prep_error must be a probability")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must lie in [0, 2**64)")


@dataclass(frozen=True, eq=False)
class TrajectoryBatch:
    """All trajectories of one run plus everything needed to replay them."""

    config: ProtocolConfig
    omega_mw: float
    p1_curve: np.ndarray  # deterministic P1 at N*dt of the prepared mixture
    outcomes: np.ndarray  # uint8, shape (n_trajectories, n_max)


def _sample_outcomes(curve, config: ProtocolConfig) -> np.ndarray:
    """Bit (k, N) = [u < q_N] for the uniform u = (w >> 11) 2**-53 that
    Generator.random() makes of raw Philox word w.  As (w >> 11) is an
    integer, u < q holds exactly when (w >> 11) < ceil(max(q, 0) 2**53)."""
    import numpy as np

    q = config.detection.on_probability(curve, config.probe_duration)
    limits = np.ceil(np.maximum(q, 0.0) * 2.0**53).astype(np.uint64)
    words = np.random.Philox(key=config.seed).random_raw((config.n_trajectories, config.n_max))
    words >>= 11
    return (words < limits).view(np.uint8)


def drive_series(
    params: PhysicalParams,
    rates: ScatteringRates,
    config: ProtocolConfig,
    model: str = "full",
) -> TimeSeries:
    """The drive evolved from the prepared mixture (n0, n1) =
    (1 - prep_error, prep_error), sampled at N * dt_unit for N = 0 .. n_max."""
    import numpy as np

    eps = config.prep_error
    t_grid = np.arange(config.n_max + 1) * config.dt_unit
    return integrate(SystemState(n0=1 - eps, n1=eps), params, rates, t_grid, model)


def run_trajectories(
    params: PhysicalParams,
    rates: ScatteringRates,
    config: ProtocolConfig,
    model: str = "full",
) -> TrajectoryBatch:
    """Simulate every trajectory of a run (N = 1 .. n_max each).

    Restarting from the same prepared mixture before each drive is
    equivalent to sampling one deterministic solution, so a single
    evolution covers every N.
    """
    curve = drive_series(params, rates, config, model).p1[1:]
    return TrajectoryBatch(config, params.omega_mw, curve, _sample_outcomes(curve, config))


def replay(batch: TrajectoryBatch) -> TrajectoryBatch:
    """Regenerate a batch from its stored config and curve; bit-identical."""
    outcomes = _sample_outcomes(batch.p1_curve, batch.config)
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
    n_traj = cfg.n_trajectories
    # exact: a count never exceeds n_traj, which this type holds
    counts = batch.outcomes.sum(0, dtype=np.min_scalar_type(n_traj))
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

def format_header(lines: list[str]) -> str:
    """The header text of every iondeco text file: one '# <line>' per line."""
    return "".join(f"# {line}\n" for line in lines)


def read_header(fh) -> tuple[dict[str, str], str]:
    """Read an open text file up to its first line that is neither blank nor
    '#': returns that line stripped ('' at the end of the file) and the
    '# key=value' lines as {key: value}, one layer of quotes taken off."""
    header = {}
    for line in fh:
        line = line.strip()
        if line.startswith("#"):
            key, eq, val = line.lstrip("# ").partition("=")
            val = val.strip()
            if eq:  # unquote when the first and last characters are one quote
                header[key.strip()] = val[1:-1] if val[:1] == val[-1:] in ("'", '"') else val
        elif line:
            return header, line
    return header, ""


def format_table(header: list[str], columns: str, table: np.ndarray) -> str:
    """CSV text of a curve table: a '# <line>' per header line, the column
    line, then one line per row of the 2-D array with every value as %.12g
    (exact for the integer columns N and n_samples, which stay below 1e12)."""
    row = ",".join(["%.12g"] * table.shape[1]) + "\n"
    head = format_header(header)
    return f"{head}{columns}\n" + row * len(table) % tuple(table.ravel().tolist())


def write_trajectories(path, batch: TrajectoryBatch) -> None:
    """Line-oriented text format: '# key=value' header, then one 0/1 line
    per trajectory (trajectory index order)."""
    import numpy as np

    cfg, det = batch.config, batch.config.detection
    items = [(f.name, getattr(cfg, f.name)) for f in fields(cfg) if f.name != "detection"]
    items += [(f"detection.{f.name}", getattr(det, f.name)) for f in fields(det)]
    header = [f"omega_mw={batch.omega_mw!r}", *(f"{k}={v!r}" for k, v in items),
              f"rng_stream={RNG_STREAM}"]
    rows = np.full((cfg.n_trajectories, cfg.n_max + 1), ord("\n"), dtype=np.uint8)
    np.add(batch.outcomes, ord("0"), out=rows[:, :-1])
    with open(path, "wb") as fh:
        fh.write(format_header(header).encode())
        fh.write(rows.tobytes())


def read_trajectories(path) -> tuple[dict, np.ndarray]:
    """Parse a trajectory file back into (header dict, uint8 outcomes array
    of shape (n_trajectories, n_max))."""
    import numpy as np

    with open(path) as fh:
        header, first = read_header(fh)
        body = f"{first}\n{fh.read()}".encode()
    rows = np.frombuffer(body, dtype=np.uint8).reshape(-1, len(first) + 1)
    bits = rows[:, :-1] - ord("0")
    if not first or np.any(rows[:, -1] != ord("\n")) or np.any(bits > 1):
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


def read_curve_file(path):
    """Read a curve CSV (simulate or accumulated format); ValueError if malformed.

    Returns (tau, p1, sigma): sigma is derived from the Wilson bounds of
    accumulated curves and None for deterministic curves.
    """
    import numpy as np

    with open(path) as fh:
        header, columns = read_header(fh)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty body is reported below
            table = np.loadtxt(fh, delimiter=",", ndmin=2)
    if not len(table):
        raise ValueError("no data rows")
    columns = columns.split(",")
    if table.shape[1] != len(columns) or not np.isfinite(table).all():
        raise ValueError(f"every row must hold {len(columns)} finite values")
    data = dict(zip(columns, table.T))
    if "tau_s" in data:
        tau = data["tau_s"]
    elif "N" in data and "dt_us" in header:
        tau = data["N"] * float(header["dt_us"]) * 1e-6
    else:
        raise ValueError("no time axis (need tau_s column or dt_us header)")
    if "p1" in data:
        return tau, data["p1"], None
    if "p1_mean" in data:
        sigma = None
        if "ci_low" in data and "ci_high" in data:
            sigma = np.maximum((data["ci_high"] - data["ci_low"]) / (2 * 1.96), 1e-3)
        return tau, data["p1_mean"], sigma
    raise ValueError("no P1 column found")
