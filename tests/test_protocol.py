import numpy as np
import pytest

from iondeco.errors import ConfigMismatch
from iondeco.model import TWO_PI_KHZ, PhysicalParams, ScatteringRates, scattering_rates
from iondeco.protocol import (
    AccumulatedCurve,
    DetectionModel,
    ProtocolConfig,
    TrajectoryRecord,
    accumulate,
    read_trajectories,
    replay,
    run_trajectory,
    wilson_interval,
    write_curve_csv,
    write_trajectories,
)

OMEGA = 40 * TWO_PI_KHZ


@pytest.fixture
def setup():
    params = PhysicalParams(omega_mw=OMEGA, gamma3=18e3 * TWO_PI_KHZ,
                            i0=5e-4, alpha=np.radians(60))
    rates = scattering_rates(params)
    cfg = ProtocolConfig(dt_unit=5e-6, n_max=60, n_trajectories=10, seed=99)
    return params, rates, cfg


def synthetic_record(p1: float, cfg: ProtocolConfig, index: int = 0,
                     omega: float = OMEGA) -> TrajectoryRecord:
    """Record with a flat deterministic curve, outcomes filled by replay."""
    flat = (p1,) * cfg.n_max
    rec = TrajectoryRecord(seed=cfg.seed, trajectory_index=index, config=cfg,
                          omega_mw=omega, outcomes=(), p1_curve=flat,
                          p1_curve_alt=flat)
    return replay(rec)


class TestDeterminism:
    def test_same_seed_same_outcomes(self, setup):
        params, rates, cfg = setup
        a = run_trajectory(params, rates, cfg, 3, model="adiabatic")
        b = run_trajectory(params, rates, cfg, 3, model="adiabatic")
        assert a.outcomes == b.outcomes
        assert len(a.outcomes) == cfg.n_max

    def test_different_index_differs(self, setup):
        params, rates, cfg = setup
        a = run_trajectory(params, rates, cfg, 0, model="adiabatic")
        b = run_trajectory(params, rates, cfg, 1, model="adiabatic")
        assert a.outcomes != b.outcomes

    def test_replay_bit_identical(self, setup):
        params, rates, cfg = setup
        rec = run_trajectory(params, rates, cfg, 5, model="adiabatic")
        assert replay(rec).outcomes == rec.outcomes

    def test_zero_light_pi_pulse_always_on(self):
        params = PhysicalParams(omega_mw=OMEGA, gamma3=18e3 * TWO_PI_KHZ)
        rates = ScatteringRates(0.0, 0.0, (0, 0, 0))
        # N = 50 units of dt hits theta = pi when dt = pi/(50*Omega)
        dt = np.pi / (50 * OMEGA)
        cfg = ProtocolConfig(dt_unit=dt, n_max=50, n_trajectories=1, seed=1)
        for k in range(5):
            rec = run_trajectory(params, rates, cfg, k)
            assert rec.outcomes[-1] == 1


class TestDetection:
    def test_bernoulli_half(self):
        det = DetectionModel()
        rng = np.random.default_rng(0)
        n = 100_000
        frac = sum(det.sample(0.5, rng, 5e-3) for _ in range(n)) / n
        assert abs(frac - 0.5) < 3 * 0.5 / np.sqrt(n)

    def test_error_algebra(self):
        # with eps_on = eps_off = eps: P(on) = p1 (1 - 2 eps) + eps
        eps, p1 = 0.08, 0.7
        det = DetectionModel(eps_on=eps, eps_off=eps)
        rng = np.random.default_rng(5)
        n = 200_000
        frac = sum(det.sample(p1, rng, 5e-3) for _ in range(n)) / n
        expected = p1 * (1 - 2 * eps) + eps
        assert abs(frac - expected) < 4 * np.sqrt(expected * (1 - expected) / n)

    def test_thresholded_counts_discriminates(self):
        det = DetectionModel(mode="thresholded-counts", bright_rate=2e4,
                             dark_rate=1e2, threshold=10)
        rng = np.random.default_rng(9)
        on = sum(det.sample(1.0, rng, 5e-3) for _ in range(2000)) / 2000
        off = sum(det.sample(0.0, rng, 5e-3) for _ in range(2000)) / 2000
        assert on > 0.999
        assert off < 0.01

    def test_invalid_model(self):
        with pytest.raises(ValueError):
            DetectionModel(mode="nope")
        with pytest.raises(ValueError):
            DetectionModel(eps_on=0.6)


class TestAccumulate:
    def test_all_on(self):
        cfg = ProtocolConfig(dt_unit=1e-6, n_max=20, n_trajectories=1, seed=0)
        recs = [synthetic_record(1.0, cfg, k) for k in range(30)]
        curve = accumulate(recs)
        assert np.all(curve.p1_mean == 1.0)
        assert np.all(curve.ci_high == pytest.approx(1.0))
        np.testing.assert_allclose(curve.theta_rad, OMEGA * curve.n * cfg.dt_unit,
                                   rtol=1e-12)

    def test_binomial_coverage(self):
        cfg = ProtocolConfig(dt_unit=1e-6, n_max=200, n_trajectories=1, seed=4)
        recs = [synthetic_record(0.8, cfg, k) for k in range(50)]
        curve = accumulate(recs, z=2.576)  # 99%
        covered = np.mean((curve.ci_low <= 0.8) & (0.8 <= curve.ci_high))
        assert covered > 0.95

    def test_consistent_with_deterministic_curve(self, setup):
        params, rates, cfg = setup
        recs = [run_trajectory(params, rates, cfg, k, model="adiabatic")
                for k in range(2000)]
        curve = accumulate(recs)
        p_true = np.array(recs[0].p1_curve)
        z = (curve.p1_mean - p_true) / np.sqrt(
            np.maximum(p_true * (1 - p_true), 1e-9) / 2000
        )
        assert np.max(np.abs(z)) < 4.0

    def test_config_mismatch(self, setup):
        params, rates, cfg = setup
        other = ProtocolConfig(dt_unit=5e-6, n_max=60, n_trajectories=10, seed=100)
        a = run_trajectory(params, rates, cfg, 0, model="adiabatic")
        b = run_trajectory(params, rates, other, 0, model="adiabatic")
        with pytest.raises(ConfigMismatch):
            accumulate([a, b])


class TestPrepError:
    def test_prep_error_lowers_pi_pulse_signal(self):
        params = PhysicalParams(omega_mw=OMEGA, gamma3=18e3 * TWO_PI_KHZ)
        rates = ScatteringRates(0.0, 0.0, (0, 0, 0))
        dt = np.pi / (10 * OMEGA)
        cfg = ProtocolConfig(dt_unit=dt, n_max=10, n_trajectories=1, seed=2,
                             prep_error=0.3)
        hits = [run_trajectory(params, rates, cfg, k).outcomes[-1]
                for k in range(3000)]
        # faulty prep starts in 1; a pi pulse then leaves the ion in 0
        assert np.mean(hits) == pytest.approx(0.7, abs=0.03)


class TestSerialization:
    def test_round_trip(self, setup, tmp_path):
        params, rates, cfg = setup
        recs = [run_trajectory(params, rates, cfg, k, model="adiabatic")
                for k in range(cfg.n_trajectories)]
        path = tmp_path / "trajs.txt"
        write_trajectories(path, recs)
        header, outcomes = read_trajectories(path)
        assert outcomes.shape == (cfg.n_trajectories, cfg.n_max)
        assert int(header["seed"]) == cfg.seed
        for k, rec in enumerate(recs):
            assert tuple(outcomes[k]) == rec.outcomes

    def test_byte_identical_rewrites(self, setup, tmp_path):
        params, rates, cfg = setup
        recs = [run_trajectory(params, rates, cfg, k, model="adiabatic")
                for k in range(3)]
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_trajectories(p1, recs)
        write_trajectories(p2, recs)
        assert p1.read_bytes() == p2.read_bytes()

    def test_curve_csv(self, setup, tmp_path):
        params, rates, cfg = setup
        recs = [run_trajectory(params, rates, cfg, k, model="adiabatic")
                for k in range(10)]
        curve = accumulate(recs)
        path = tmp_path / "curve.csv"
        write_curve_csv(path, curve, provenance=["test run"])
        text = path.read_text()
        assert text.splitlines()[1] == "N,theta_rad,p1_mean,ci_low,ci_high,n_samples"
        assert len(text.splitlines()) == 2 + cfg.n_max


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == pytest.approx(0.0, abs=1e-12)
    assert hi0 > 0
