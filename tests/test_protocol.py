import math
import time
from dataclasses import replace

import numpy as np
import pytest

from iondeco.model import TWO_PI_KHZ, PhysicalParams, ScatteringRates, scattering_rates
from iondeco.protocol import (
    AccumulatedCurve,
    DetectionModel,
    ProtocolConfig,
    TrajectoryBatch,
    accumulate,
    read_trajectories,
    replay,
    run_trajectories,
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


def synthetic_batch(p1: float, cfg: ProtocolConfig,
                    omega: float = OMEGA) -> TrajectoryBatch:
    """Batch with a flat deterministic curve, outcomes filled by replay."""
    flat = np.full(cfg.n_max, p1)
    batch = TrajectoryBatch(config=cfg, omega_mw=omega, p1_curve=flat,
                            p1_curve_alt=flat, outcomes=np.empty((0, 0), np.uint8))
    return replay(batch)


def poisson_sf_reference(threshold: int, mu: float) -> float:
    """P(X > threshold), X ~ Poisson(mu), summed with exact factorials."""
    return 1.0 - sum(math.exp(-mu) * mu**j / math.factorial(j)
                     for j in range(threshold + 1))


class TestDeterminism:
    def test_same_seed_same_outcomes(self, setup):
        params, rates, cfg = setup
        a = run_trajectories(params, rates, cfg, model="adiabatic")
        b = run_trajectories(params, rates, cfg, model="adiabatic")
        np.testing.assert_array_equal(a.outcomes, b.outcomes)
        assert a.outcomes.shape == (cfg.n_trajectories, cfg.n_max)

    def test_different_index_differs(self, setup):
        params, rates, cfg = setup
        batch = run_trajectories(params, rates, cfg, model="adiabatic")
        assert not np.array_equal(batch.outcomes[0], batch.outcomes[1])

    def test_replay_bit_identical(self, setup):
        params, rates, cfg = setup
        batch = run_trajectories(params, rates, cfg, model="adiabatic")
        np.testing.assert_array_equal(replay(batch).outcomes, batch.outcomes)

    def test_rows_independent_of_n_trajectories(self, setup):
        params, rates, cfg = setup
        small = run_trajectories(params, rates, replace(cfg, n_trajectories=7),
                                 model="adiabatic")
        large = run_trajectories(params, rates, replace(cfg, n_trajectories=1000),
                                 model="adiabatic")
        np.testing.assert_array_equal(small.outcomes, large.outcomes[:7])

    def test_stream_layout(self, setup):
        # philox-v1: bit (k, N) is uniform k * n_max + N - 1 of Philox(key=seed)
        params, rates, cfg = setup
        batch = run_trajectories(params, rates, cfg, model="adiabatic")
        u = np.random.Generator(np.random.Philox(key=cfg.seed)).random(
            cfg.n_trajectories * cfg.n_max)
        expected = [[int(u[k * cfg.n_max + n - 1] < batch.p1_curve[n - 1])
                     for n in range(1, cfg.n_max + 1)]
                    for k in range(cfg.n_trajectories)]
        np.testing.assert_array_equal(batch.outcomes, expected)

    def test_zero_light_pi_pulse_always_on(self):
        params = PhysicalParams(omega_mw=OMEGA, gamma3=18e3 * TWO_PI_KHZ)
        rates = ScatteringRates(0.0, 0.0, (0, 0, 0))
        # N = 50 units of dt hits theta = pi when dt = pi/(50*Omega)
        dt = np.pi / (50 * OMEGA)
        cfg = ProtocolConfig(dt_unit=dt, n_max=50, n_trajectories=5, seed=1)
        batch = run_trajectories(params, rates, cfg)
        assert np.all(batch.outcomes[:, -1] == 1)


class TestDetection:
    def test_bernoulli_half(self):
        det = DetectionModel()
        assert det.on_probability(0.5, 5e-3) == 0.5
        p1 = np.linspace(0.0, 1.0, 11)
        np.testing.assert_array_equal(det.on_probability(p1, 5e-3), p1)

    def test_error_algebra(self):
        # with eps_on = eps_off = eps: P(on) = p1 (1 - 2 eps) + eps
        eps = 0.08
        det = DetectionModel(eps_on=eps, eps_off=eps)
        p1 = np.linspace(0.0, 1.0, 11)
        np.testing.assert_allclose(det.on_probability(p1, 5e-3),
                                   p1 * (1 - 2 * eps) + eps, rtol=0, atol=1e-15)

    def test_thresholded_counts_discriminates(self):
        det = DetectionModel(mode="thresholded-counts", bright_rate=2e4,
                             dark_rate=1e2, threshold=10)
        on = det.on_probability(1.0, 5e-3)
        off = det.on_probability(0.0, 5e-3)
        assert on == pytest.approx(poisson_sf_reference(10, 2.01e4 * 5e-3),
                                   rel=0, abs=1e-14)
        assert off == pytest.approx(poisson_sf_reference(10, 1e2 * 5e-3),
                                    rel=0, abs=1e-14)
        assert on > 0.999
        assert off < 0.01
        assert det.on_probability(0.3, 5e-3) == pytest.approx(0.3 * on + 0.7 * off,
                                                               rel=1e-15)

    def test_poisson_tail_matches_scipy(self):
        from scipy.stats import poisson

        thresholds = np.unique(np.r_[0:21, np.geomspace(1, 1000, 25).astype(int)])
        mus = np.unique(np.r_[0.0, np.geomspace(1e-3, 1e4, 40), thresholds + 0.5])
        worst = 0.0
        for threshold in thresholds:
            det = DetectionModel(mode="thresholded-counts", bright_rate=0.0,
                                 dark_rate=1.0, threshold=int(threshold))
            for mu in mus:
                got = det.on_probability(1.0, mu)  # counting time mu at rate 1
                worst = max(worst, abs(got - poisson.sf(threshold, mu)))
        assert worst < 1e-12

    @pytest.mark.parametrize("mu", [0.5, 20.0, 100.0, 1e4, 1e13])
    def test_poisson_tail_cost_independent_of_threshold(self, mu):
        # summing P(X <= threshold) term by term took about 0.7 us per unit
        # of threshold, and 1 - P(X <= threshold) bottomed out at 2.2e-16
        from scipy.stats import poisson

        for threshold in (10**5, 10**12):
            det = DetectionModel(mode="thresholded-counts", bright_rate=0.0,
                                 dark_rate=1.0, threshold=threshold)
            start = time.perf_counter()
            got = det.on_probability(1.0, mu)
            assert time.perf_counter() - start < 0.1
            assert abs(got - poisson.sf(threshold, mu)) <= 1e-12

    def test_invalid_model(self):
        with pytest.raises(ValueError):
            DetectionModel(mode="nope")
        with pytest.raises(ValueError):
            DetectionModel(eps_on=0.6)


class TestAccumulate:
    def test_all_on(self):
        cfg = ProtocolConfig(dt_unit=1e-6, n_max=20, n_trajectories=30, seed=0)
        curve = accumulate(synthetic_batch(1.0, cfg))
        assert np.all(curve.p1_mean == 1.0)
        assert np.all(curve.ci_high == pytest.approx(1.0))
        np.testing.assert_allclose(curve.theta_rad, OMEGA * curve.n * cfg.dt_unit,
                                   rtol=1e-12)

    def test_binomial_coverage(self):
        cfg = ProtocolConfig(dt_unit=1e-6, n_max=200, n_trajectories=50, seed=4)
        curve = accumulate(synthetic_batch(0.8, cfg), z=2.576)  # 99%
        covered = np.mean((curve.ci_low <= 0.8) & (0.8 <= curve.ci_high))
        assert covered > 0.95

    def test_consistent_with_deterministic_curve(self, setup):
        params, rates, cfg = setup
        batch = run_trajectories(params, rates, replace(cfg, n_trajectories=2000),
                                 model="adiabatic")
        curve = accumulate(batch)
        p_true = batch.p1_curve
        z = (curve.p1_mean - p_true) / np.sqrt(
            np.maximum(p_true * (1 - p_true), 1e-9) / 2000
        )
        assert np.max(np.abs(z)) < 4.0


class TestPrepError:
    def test_prep_error_lowers_pi_pulse_signal(self):
        params = PhysicalParams(omega_mw=OMEGA, gamma3=18e3 * TWO_PI_KHZ)
        rates = ScatteringRates(0.0, 0.0, (0, 0, 0))
        dt = np.pi / (10 * OMEGA)
        cfg = ProtocolConfig(dt_unit=dt, n_max=10, n_trajectories=3000, seed=2,
                             prep_error=0.3)
        hits = run_trajectories(params, rates, cfg).outcomes[:, -1]
        # faulty prep starts in 1; a pi pulse then leaves the ion in 0
        assert np.mean(hits) == pytest.approx(0.7, abs=0.03)


class TestSerialization:
    def test_round_trip(self, setup, tmp_path):
        params, rates, cfg = setup
        batch = run_trajectories(params, rates, cfg, model="adiabatic")
        path = tmp_path / "trajs.txt"
        write_trajectories(path, batch)
        header, outcomes = read_trajectories(path)
        assert outcomes.shape == (cfg.n_trajectories, cfg.n_max)
        assert int(header["seed"]) == cfg.seed
        assert header["rng_stream"] == "philox-v1"
        np.testing.assert_array_equal(outcomes, batch.outcomes)
        path.write_bytes(path.read_bytes()[:-2] + b"2\n")
        with pytest.raises(ValueError):
            read_trajectories(path)

    def test_byte_identical_rewrites(self, setup, tmp_path):
        params, rates, cfg = setup
        batch = run_trajectories(params, rates, replace(cfg, n_trajectories=3),
                                 model="adiabatic")
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_trajectories(p1, batch)
        write_trajectories(p2, batch)
        assert p1.read_bytes() == p2.read_bytes()

    def test_curve_csv(self, setup, tmp_path):
        params, rates, cfg = setup
        curve = accumulate(run_trajectories(params, rates, cfg, model="adiabatic"))
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
