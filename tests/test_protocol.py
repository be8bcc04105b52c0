import io
import math
import time
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iondeco.dynamics import SystemState, integrate
from iondeco.model import TWO_PI_KHZ, PhysicalParams, ScatteringRates, scattering_rates
from iondeco.protocol import (
    AccumulatedCurve,
    DetectionModel,
    ProtocolConfig,
    TrajectoryBatch,
    _poisson_sf,
    accumulate,
    read_curve_file,
    read_header,
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
                            outcomes=np.empty((0, 0), np.uint8))
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
        # the same layout with preparation errors and thresholded counts:
        # bit = u < on(P1) of the prepared mixture
        cfg = replace(cfg, prep_error=0.3,
                      detection=DetectionModel(mode="thresholded-counts", threshold=12))
        batch = run_trajectories(params, rates, cfg, model="adiabatic")
        q = cfg.detection.on_probability(batch.p1_curve, cfg.probe_duration)
        np.testing.assert_array_equal(batch.outcomes, u.reshape(batch.outcomes.shape) < q)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), shape=st.tuples(st.integers(1, 12),
                                                           st.integers(1, 30)),
           data=st.data())
    def test_integer_draw_is_generator_random(self, seed, shape, data):
        # each bit compares the top 53 bits of a raw Philox word with
        # ceil(q 2**53); it must equal Generator.random() < q, including at
        # q = 0, 1, just outside [0, 1], and at q equal to a uniform of the
        # stream (a tie: 0, as the comparison is strict) or one ulp above it
        n_traj, n_max = shape
        cfg = ProtocolConfig(n_max=n_max, n_trajectories=n_traj, seed=seed)
        u = np.random.Generator(np.random.Philox(key=seed)).random(shape)
        edges = st.sampled_from([0.0, 1.0, -1e-12, 1e-12, 1 - 1e-12, 1 + 1e-12])
        q = np.array(data.draw(st.lists(edges | st.floats(0, 1),
                                        min_size=n_max, max_size=n_max)))
        ties = data.draw(st.lists(st.tuples(st.integers(0, n_traj - 1),
                                            st.integers(0, n_max - 1), st.booleans()),
                                  unique_by=lambda tie: tie[1]))
        for k, n, above in ties:
            q[n] = np.nextafter(u[k, n], 2.0) if above else u[k, n]
        batch = replay(TrajectoryBatch(cfg, OMEGA, q, np.empty((0, 0), np.uint8)))
        assert batch.outcomes.dtype == np.uint8
        assert np.isin(batch.outcomes, (0, 1)).all()
        np.testing.assert_array_equal(
            batch.outcomes, u < cfg.detection.on_probability(q, cfg.probe_duration))
        for k, n, above in ties:
            assert batch.outcomes[k, n] == above

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

    @pytest.mark.parametrize("threshold", [0, 10, 2**53 - 1])
    def test_poisson_tail_of_infinite_mean_is_one(self, threshold):
        # P(X > k) tends to 1 as the mean grows beyond the float range
        assert _poisson_sf(threshold, math.inf) == 1.0

    def test_overflowing_bright_count_stays_on(self):
        # (bright + dark) * probe = inf: F=1 is always on, F=0 never
        det = DetectionModel(mode="thresholded-counts", bright_rate=1e12,
                             dark_rate=0.0, threshold=10)
        p1 = np.linspace(0.0, 1.0, 11)
        np.testing.assert_array_equal(det.on_probability(p1, 1e300), p1)

    def test_invalid_model(self):
        with pytest.raises(ValueError):
            DetectionModel(mode="nope")
        with pytest.raises(ValueError):
            DetectionModel(eps_on=0.6)


def test_protocol_outcome_count_below_2_53():
    # constructing a config allocates nothing, so the bound is checked here
    assert ProtocolConfig(n_max=2**26, n_trajectories=2**27 - 1).n_max == 2**26
    for n_max, n_trajectories in ((2**53, 1), (2**26, 2**27), (3, 2**62)):
        with pytest.raises(ValueError, match=r"below 2\*\*53"):
            ProtocolConfig(n_max=n_max, n_trajectories=n_trajectories)


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

    @pytest.mark.parametrize("n_traj", [255, 256, 65535, 65536])
    def test_narrow_counts_are_exact(self, n_traj):
        # counts are summed in the narrowest type that holds n_trajectories;
        # a column of all ones reaches that type's largest value at 255 / 65535
        cfg = ProtocolConfig(dt_unit=1e-6, n_max=4, n_trajectories=n_traj, seed=8)
        batch = replay(TrajectoryBatch(cfg, OMEGA, np.array([0.0, 0.3, 0.5, 1.0]),
                                       np.empty((0, 0), np.uint8)))
        counts = batch.outcomes.sum(0, dtype=np.int64)
        lo, hi = wilson_interval(counts, n_traj)
        curve = accumulate(batch)
        assert counts[-1] == n_traj
        np.testing.assert_array_equal(curve.p1_mean, counts / n_traj)
        np.testing.assert_array_equal(curve.ci_low, lo)
        np.testing.assert_array_equal(curve.ci_high, hi)

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


DETECTIONS = [DetectionModel(eps_on=0.03, eps_off=0.05),
              DetectionModel(mode="thresholded-counts", threshold=12)]


def pure_curves(params, rates, cfg, model):
    """P1 after a good and after a faulty preparation, on the run's grid."""
    t_grid = np.arange(cfg.n_max + 1) * cfg.dt_unit
    return [integrate(SystemState(n0=n0, n1=1.0 - n0), params, rates, t_grid, model).p1[1:]
            for n0 in (1.0, 0.0)]


class TestPreparedMixture:
    @pytest.mark.parametrize("eps", [0.02, 0.5, 1.0])
    @pytest.mark.parametrize("model", ["full", "adiabatic"])
    @pytest.mark.parametrize("det", DETECTIONS, ids=["ideal", "counts"])
    def test_q_is_the_mixture_of_the_pure_preparations(self, setup, eps, model, det):
        # the evolution is linear in the state and on(p) is affine, so one
        # curve from (1 - eps, eps) gives the two-curve mixture of q
        params, rates, cfg = setup
        cfg = replace(cfg, prep_error=eps, detection=det)
        batch = run_trajectories(params, rates, cfg, model=model)
        good, faulty = pure_curves(params, rates, cfg, model)
        on = det.on_probability
        mixed = (1 - eps) * on(good, cfg.probe_duration) + eps * on(faulty, cfg.probe_duration)
        np.testing.assert_allclose(on(batch.p1_curve, cfg.probe_duration), mixed,
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("model", ["full", "adiabatic"])
    def test_pure_preparations_are_exact(self, setup, model):
        params, rates, cfg = setup
        good, faulty = pure_curves(params, rates, cfg, model)
        for eps, expected in ((0.0, good), (1.0, faulty)):
            batch = run_trajectories(params, rates, replace(cfg, prep_error=eps), model=model)
            np.testing.assert_array_equal(batch.p1_curve, expected)


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

    def test_header_values_come_back_unquoted(self, setup, tmp_path):
        params, rates, cfg = setup
        det = DetectionModel(mode="thresholded-counts", threshold=12)
        batch = run_trajectories(params, rates, replace(cfg, detection=det, prep_error=0.1))
        path = tmp_path / "trajs.txt"
        write_trajectories(path, batch)
        header, _ = read_trajectories(path)
        items = asdict(batch.config)
        det_items = items.pop("detection")
        written = {"omega_mw": batch.omega_mw, **items,
                   **{f"detection.{k}": v for k, v in det_items.items()}}
        # each value was written as its repr; a string comes back without quotes
        expected = {k: v if isinstance(v, str) else repr(v) for k, v in written.items()}
        assert header == {**expected, "rng_stream": "philox-v1"}
        assert header["detection.mode"] == "thresholded-counts"

    def test_read_header_takes_off_one_layer_of_quotes(self):
        text = "# tool 1\n\n# a='x'\n#b = \"'y'\"\n# c='z\"\n# d=\nN,p\n1,2\n"
        fh = io.StringIO(text)
        assert read_header(fh) == ({"a": "x", "b": "'y'", "c": "'z\"", "d": ""}, "N,p")
        assert fh.read() == "1,2\n"

    def test_accumulated_curve_reads_back(self, setup, tmp_path):
        # the CLI writes dt_us and runs at dt_unit = dt_us * 1e-6
        params, rates, cfg = setup
        dt_us = 5.0
        curve = accumulate(run_trajectories(params, rates, replace(cfg, dt_unit=dt_us * 1e-6),
                                            model="adiabatic"))
        path = tmp_path / "curve.csv"
        write_curve_csv(path, curve, provenance=["iondeco test", f"dt_us={dt_us!r}"])
        tau, p1, sigma = read_curve_file(path)
        np.testing.assert_allclose(tau, curve.tau_s, rtol=1e-15, atol=0)
        np.testing.assert_allclose(p1, curve.p1_mean, rtol=1e-11, atol=0)
        assert sigma.shape == p1.shape and np.all(sigma >= 1e-3)


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == pytest.approx(0.0, abs=1e-12)
    assert hi0 > 0
