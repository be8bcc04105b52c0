import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares
from scipy.signal import hilbert

from iondeco.errors import DegenerateRates, OscillationUnresolved, OutOfRange
from iondeco.dynamics import SystemState, integrate
from iondeco.fitting import (
    NutationFit,
    _envelope,
    _jacobian,
    _residual,
    effective_from_fit,
    fit_nutation,
    invert_saturation,
)
from iondeco.model import TWO_PI_KHZ, PhysicalParams, scattering_rates


def damped_cosine(t, omega, lam, p_inf, amp, phi):
    return p_inf + amp * np.exp(-lam * t) * np.cos(omega * t + phi)


def _weighted_case():
    """A curve with every third point corrupted and masked by a large sigma:
    (t, y, sigma, true parameters)."""
    omega, lam = 5 * TWO_PI_KHZ, 0.2 * TWO_PI_KHZ
    t = np.linspace(0, 4 / lam, 300)
    y = damped_cosine(t, omega, lam, 0.7, -0.35, 0.0)
    rng = np.random.default_rng(1)
    y[::3] += rng.normal(0, 0.2, size=len(y[::3]))
    sigma = np.full_like(t, 1e-4)
    sigma[::3] = 10.0
    return t, y, sigma, (omega, lam, 0.7, -0.35, 0.0)


class TestFitNutation:
    def test_noiseless_round_trip(self):
        omega, lam, p_inf = 4.2 * TWO_PI_KHZ, 0.05 * TWO_PI_KHZ, 0.75
        t = np.linspace(0, 5 / lam, 300)
        y = damped_cosine(t, omega, lam, p_inf, -0.4, 0.1)
        fit = fit_nutation(t, y)
        assert fit.converged
        assert fit.omega_fit == pytest.approx(omega, rel=1e-3)
        assert fit.lambda_fit == pytest.approx(lam, rel=1e-3)
        assert fit.p_inf_fit == pytest.approx(p_inf, rel=1e-3)

    def test_undamped_sin_squared(self):
        omega = 4.2 * TWO_PI_KHZ
        t = np.linspace(0, 8 * 2 * math.pi / omega, 200)
        y = np.sin(omega * t / 2) ** 2
        fit = fit_nutation(t, y)
        assert fit.lambda_fit < 1e-6 * omega
        assert fit.p_inf_fit == pytest.approx(0.5, abs=1e-6)
        assert fit.amplitude == pytest.approx(0.5, abs=1e-6)
        assert fit.omega_fit == pytest.approx(omega, rel=1e-6)

    def test_too_few_samples(self):
        with pytest.raises(OscillationUnresolved):
            fit_nutation(np.linspace(0, 1, 6), np.zeros(6))

    def test_span_below_one_period(self):
        omega = 1e3
        t = np.linspace(0, 0.4 * 2 * math.pi / omega, 50)
        y = damped_cosine(t, omega, 0.0, 0.5, 0.5, 0.0)
        with pytest.raises(OscillationUnresolved):
            fit_nutation(t, y)

    def test_overdamped_rejected(self):
        omega, lam = 1e3, 5e3
        t = np.linspace(0, 20 / lam, 100)
        y = damped_cosine(t, omega, lam, 0.7, -0.4, 0.0)
        with pytest.raises(OscillationUnresolved):
            fit_nutation(t, y)

    def test_noisy_round_trip_many_draws(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            omega = rng.uniform(0.5, 50) * TWO_PI_KHZ
            lam = omega * rng.uniform(0.005, 0.25)
            p_inf = rng.uniform(0.55, 0.95)
            amp = rng.uniform(0.2, 0.5) * rng.choice([-1, 1])
            phi = rng.uniform(-math.pi, math.pi)
            # window long enough to see both the decay and several periods
            span = min(6 / lam, 120 * 2 * math.pi / omega)
            t = np.linspace(0, span, 300)
            y = damped_cosine(t, omega, lam, p_inf, amp, phi)
            y = y + rng.normal(0, 0.01, size=t.shape)
            fit = fit_nutation(t, y)
            assert fit.omega_fit == pytest.approx(omega, rel=0.05)
            assert fit.lambda_fit == pytest.approx(lam, rel=0.05)
            assert fit.p_inf_fit == pytest.approx(p_inf, rel=0.05)

    def test_time_rescaling_equivariance(self):
        omega, lam = 3.0 * TWO_PI_KHZ, 0.2 * TWO_PI_KHZ
        t = np.linspace(0, 4 / lam, 250)
        y = damped_cosine(t, omega, lam, 0.7, -0.35, 0.4)
        fit1 = fit_nutation(t, y)
        s = 137.0
        fit2 = fit_nutation(s * t, y)
        assert fit2.omega_fit * s == pytest.approx(fit1.omega_fit, rel=1e-12)
        assert fit2.lambda_fit * s == pytest.approx(fit1.lambda_fit, rel=1e-12)
        assert fit2.p_inf_fit == pytest.approx(fit1.p_inf_fit, rel=1e-12)

    def test_weighting_prefers_low_noise_points(self):
        t, noisy, sigma, (omega, lam, *_) = _weighted_case()
        fit = fit_nutation(t, noisy, sigma=sigma)
        assert fit.omega_fit == pytest.approx(omega, rel=1e-3)
        assert fit.lambda_fit == pytest.approx(lam, rel=1e-2)

    def test_frequency_pulling_bound(self):
        # four-level curve: fitted frequency stays within the weak-damping
        # perturbation bound gamma_c^2 / (2 Omega) of the drive frequency
        p = PhysicalParams(omega_mw=40 * TWO_PI_KHZ, gamma3=18e3 * TWO_PI_KHZ,
                           i0=5e-4, alpha=math.radians(60))
        r = scattering_rates(p)
        t = np.linspace(0, 10 / r.r1, 400)
        ts = integrate(SystemState(), p, r, t, "adiabatic")
        fit = fit_nutation(ts.t, ts.p1)
        gamma_c = r.r1
        bound = gamma_c**2 / (2 * p.omega_mw) + 1e-4 * p.omega_mw
        assert abs(fit.omega_fit - p.omega_mw) < bound


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_analytic_jacobian_matches_central_difference(weighted):
    rng = np.random.default_rng(11)
    s = np.linspace(0.0, 1.0, 120)
    y = damped_cosine(s, 40.0, 3.0, 0.7, -0.35, 0.4) + rng.normal(0, 0.01, s.shape)
    w = rng.uniform(0.5, 5.0, s.shape) if weighted else None
    for x in ([40.0, 3.0, 0.7, -0.35, 0.4], [25.0, 0.0, 0.55, 0.2, -2.9]):
        x = np.array(x)
        J = _jacobian(x, s, y, w)
        for j in range(len(x)):
            h = 1e-6 * max(abs(x[j]), 1.0)
            dx = np.zeros_like(x)
            dx[j] = h
            fd = (_residual(x + dx, s, y, w) - _residual(x - dx, s, y, w)) / (2 * h)
            assert np.linalg.norm(J[:, j] - fd) <= 1e-6 * np.linalg.norm(fd)


def _reference_cases():
    """100 noisy draws (sigma = 0.01) and the weighted case, each with the
    true parameters."""
    rng = np.random.default_rng(20261018)
    for _ in range(100):
        omega = rng.uniform(0.5, 50) * TWO_PI_KHZ
        lam = omega * rng.uniform(0.005, 0.25)
        truth = (omega, lam, rng.uniform(0.55, 0.95),
                 rng.uniform(0.2, 0.5) * rng.choice([-1, 1]), rng.uniform(-math.pi, math.pi))
        t = np.linspace(0, min(6 / lam, 120 * 2 * math.pi / omega), 300)
        yield t, damped_cosine(t, *truth) + rng.normal(0, 0.01, t.shape), None, truth
    yield _weighted_case()


def test_fit_matches_tightly_converged_reference():
    for t, y, sigma, (omega, lam, p_inf, amp, phi) in _reference_cases():
        fit = fit_nutation(t, y, sigma=sigma)
        span = t[-1] - t[0]
        s = t / span
        w = None if sigma is None else 1 / sigma
        ref = least_squares(_residual, [omega * span, lam * span, p_inf, amp, phi],
                            jac=_jacobian, bounds=([0, 0, -np.inf, -np.inf, -np.inf], np.inf),
                            ftol=1e-15, xtol=1e-15, gtol=1e-15, max_nfev=10000,
                            args=(s, y, w)).x
        ref_rms = np.sqrt(np.mean(_residual(ref, s, y, None) ** 2))
        assert fit.converged
        assert fit.omega_fit == pytest.approx(ref[0] / span, rel=1e-5)
        assert fit.lambda_fit == pytest.approx(ref[1] / span, rel=1e-3)
        assert fit.p_inf_fit == pytest.approx(ref[2], rel=1e-5)
        assert fit.residual_rms <= ref_rms * (1 + 1e-6)


@pytest.mark.parametrize("growth", [0.002, 0.03])
def test_growing_envelope_converges_at_lambda_bound(growth):
    omega = 2 * math.pi * 1e3
    t = np.linspace(0, 10 * 2 * math.pi / omega, 200)
    fit = fit_nutation(t, damped_cosine(t, omega, -growth * omega, 0.6, 0.3, 0.2))
    assert fit.converged
    assert fit.lambda_fit == 0.0
    assert fit.iterations < 20


@pytest.mark.parametrize("samples_per_period", [2.0, 2.05])
def test_fit_at_two_samples_per_period(samples_per_period):
    # the spectral start sits at the Nyquist frequency, where the omega and
    # phase columns of the Jacobian vanish
    omega = 2 * math.pi * 1e3
    t = np.linspace(0, 47 / samples_per_period * 2 * math.pi / omega, 48)
    fit = fit_nutation(t, damped_cosine(t, omega, 0.05 * omega, 0.7, 0.3, 0.3))
    assert fit.converged
    assert fit.residual_rms < 1e-9


@pytest.mark.parametrize("n", [300, 301], ids=["even", "odd"])
def test_envelope_is_analytic_signal_modulus(n):
    x = np.random.default_rng(n).normal(size=n)
    assert np.allclose(_envelope(x), np.abs(hilbert(x)), rtol=0, atol=1e-12)


def test_iteration_cap_reports_no_convergence():
    rng = np.random.default_rng(3)
    t = np.linspace(0, 1e-3, 300)
    y = damped_cosine(t, 4e4, 3e3, 0.7, -0.35, 0.4) + rng.normal(0, 0.01, t.shape)
    assert fit_nutation(t, y).converged
    fit = fit_nutation(t, y, max_iter=1)
    assert not fit.converged
    assert fit.iterations == 2


_GOOD = np.linspace(0, 1e-3, 50), 0.5 + 0.3 * np.cos(4e4 * np.linspace(0, 1e-3, 50))


@pytest.mark.parametrize("arg, t, p1, sigma", [
    ("t", np.where(np.arange(50) == 7, np.inf, _GOOD[0]), _GOOD[1], None),
    ("p1", _GOOD[0], np.where(np.arange(50) == 7, np.nan, _GOOD[1]), None),
    ("sigma", *_GOOD, np.full(50, np.nan)),
    ("sigma", *_GOOD, np.full(50, np.inf)),
    ("sigma", *_GOOD, np.zeros(50)),
    ("sigma", *_GOOD, np.full(50, -0.01)),
    ("sigma", *_GOOD, np.full(49, 0.01)),
], ids=["t-inf", "p1-nan", "sigma-nan", "sigma-inf", "sigma-zero", "sigma-negative",
        "sigma-short"])
def test_invalid_input_named(arg, t, p1, sigma, capfd):
    with pytest.raises(ValueError, match=f"^{arg} "):
        fit_nutation(t, p1, sigma=sigma)
    assert capfd.readouterr().err == ""


class TestInvertSaturation:
    def test_reference_points(self):
        assert invert_saturation(2 / 3) == pytest.approx(2.0, rel=1e-12)
        assert invert_saturation(1.0) == 0.0
        assert invert_saturation(0.75) == pytest.approx(1.0, rel=1e-12)

    def test_out_of_range(self):
        for bad in (0.5, 0.3, -1.0, 1.0001):
            with pytest.raises(OutOfRange):
                invert_saturation(bad)

    @given(st.floats(-6, 6))
    @settings(max_examples=200)
    def test_identity_on_ratio(self, log_ratio):
        ratio = 10.0**log_ratio
        p_inf = 1.0 - 0.5 * ratio / (1.0 + ratio)
        back = invert_saturation(p_inf)
        # above ratio ~ 3e5 the plateau sits within a few ulps of 1/2 and
        # float64 storage of p_inf caps the achievable round-trip accuracy
        assert back == pytest.approx(ratio, rel=max(1e-10, 4e-16 * ratio))


class TestEffectiveFromFit:
    def _fit(self, lam, p_inf):
        return NutationFit(omega_fit=1e4, lambda_fit=lam, p_inf_fit=p_inf,
                           amplitude=0.4, phase=0.0, residual_rms=0.0,
                           converged=True, iterations=1)

    def test_chain(self):
        omega = 4.2 * TWO_PI_KHZ
        eff = effective_from_fit(self._fit(500.0, 2 / 3), omega)
        assert eff.gamma_eff == 500.0
        # r2 = gamma * (r2/r1) = 1000; Gamma = omega^2 / r2
        assert eff.Gamma_eff == pytest.approx(omega**2 / 1000.0, rel=1e-9)

    def test_zero_damping_degenerate(self):
        with pytest.raises(DegenerateRates):
            effective_from_fit(self._fit(0.0, 0.75), 1e4)

    def test_plateau_out_of_range_propagates(self):
        with pytest.raises(OutOfRange):
            effective_from_fit(self._fit(100.0, 0.49), 1e4)

    def test_gamma_beyond_float_range(self):
        # r2 = 1e-300, so Omega^2 / r2 = 1e308 / 1e-300 overflows
        with pytest.raises(OutOfRange, match="float range"):
            effective_from_fit(self._fit(1e-300, 0.75), 1e154)


def test_loop_closure_ratio_recovery_grid():
    # dynamics -> fit -> invert recovers r2/r1 from the plateau within 10%
    omega = 40 * TWO_PI_KHZ
    for alpha_deg in (50, 60, 70):
        for i0 in (2e-4, 5e-4, 1e-3):
            p = PhysicalParams(omega_mw=omega, gamma3=18e3 * TWO_PI_KHZ,
                               i0=i0, alpha=math.radians(alpha_deg))
            r = scattering_rates(p)
            t = np.linspace(0, 14 / r.r1, 400)
            ts = integrate(SystemState(), p, r, t, "adiabatic")
            fit = fit_nutation(ts.t, ts.p1)
            ratio = invert_saturation(fit.p_inf_fit)
            assert ratio == pytest.approx(r.r2 / r.r1, rel=0.10)
