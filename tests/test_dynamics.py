import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm as scipy_expm

from iondeco.errors import RegimeViolation
from iondeco.dynamics import (
    _TERMS,
    MODELS,
    SystemState,
    _expm,
    _propagate,
    generator,
    integrate,
)
from iondeco.model import (
    TWO_PI_KHZ,
    PhysicalParams,
    ScatteringRates,
    saturation_probability,
    scattering_rates,
)

OMEGA = 4.2 * TWO_PI_KHZ
GAMMA3 = 18e3 * TWO_PI_KHZ


def rates_from_sqrt(sqrt_2r1gl: float, sqrt_r2gl: float) -> ScatteringRates:
    """Scattering rates from the sqrt(2 r1 gamma_l), sqrt(r2 gamma_l)
    parameterization (2pi kHz), gamma_l = gamma3/2 = 9e3."""
    gl = 9e3
    r1 = sqrt_2r1gl**2 / (2 * gl) * TWO_PI_KHZ
    r2 = sqrt_r2gl**2 / gl * TWO_PI_KHZ
    p1 = r1 / GAMMA3
    p2 = 0.5 * r2 / GAMMA3
    return ScatteringRates(r1=r1, r2=r2, p3_mean=(p2, p1, p2))


NO_LIGHT = ScatteringRates(0.0, 0.0, (0.0, 0.0, 0.0))


class TestDerivative:
    def test_population_flow_is_traceless(self):
        """In every model the population rows of A sum to exactly 0 in every
        column, the premise of the conserving step of _propagate."""
        p = PhysicalParams(omega_mw=OMEGA, gamma3=GAMMA3, gamma_ph_extra=11.0,
                           delta_mw=0.3 * OMEGA)
        for model in MODELS:
            A = generator(p, rates_from_sqrt(700, 700), model)
            assert np.all(A[2:].sum(axis=0) == 0.0), model

    def test_coherence_decay_rate(self):
        p = PhysicalParams(omega_mw=0.0, gamma3=GAMMA3, gamma_ph_extra=5.0)
        r = ScatteringRates(r1=20.0, r2=0.0, p3_mean=(0, 0, 0))
        d = generator(p, r) @ SystemState(u=1.0, v=0.0, n0=0.5, n1=0.5).as_vector()
        assert d[0] == pytest.approx(-25.0)


class TestFullModel:
    def test_zero_light_rabi_formula(self):
        p = PhysicalParams(omega_mw=OMEGA, gamma3=GAMMA3)
        t = np.linspace(0, 10 * 2 * math.pi / OMEGA, 400)
        ts = integrate(SystemState(), p, NO_LIGHT, t)
        expected = np.sin(OMEGA * t / 2) ** 2
        assert np.max(np.abs(ts.y[:, 3] - expected)) < 1e-8

    def test_pi_pulse(self):
        p = PhysicalParams(omega_mw=OMEGA, gamma3=GAMMA3)
        t = np.array([0.0, math.pi / OMEGA])
        ts = integrate(SystemState(), p, NO_LIGHT, t)
        assert ts.y[-1, 3] == pytest.approx(1.0, abs=1e-8)

    def test_no_drive_pumping_equilibrium(self):
        # Omega = 0: n0 frozen; the 1-3-2 subsystem settles where
        # beta2 * r1 * n1 = beta1 * r2 * n2
        p = PhysicalParams(omega_mw=0.0, gamma3=1e5)
        r = ScatteringRates(r1=400.0, r2=900.0, p3_mean=(0, 0, 0))
        t = np.linspace(0, 200 / min(r.r1, r.r2), 50)
        ts = integrate(SystemState(n0=0.3, n1=0.0, n2=0.7), p, r, t)
        assert ts.y[-1, 2] == pytest.approx(0.3, abs=1e-8)  # n0 frozen
        n1, n2 = ts.y[-1, 3], ts.y[-1, 4]
        assert p.beta2 * r.r1 * n1 == pytest.approx(p.beta1 * r.r2 * n2, rel=1e-6)

    def test_long_time_limit_matches_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            p = PhysicalParams(
                omega_mw=OMEGA,
                gamma3=GAMMA3,
                i0=rng.uniform(1e-5, 5e-4),
                alpha=rng.uniform(0.3, 1.2),
            )
            r = scattering_rates(p)
            t_max = 20 / min(r.r1 * p.beta2, r.r2 * p.beta1)
            ts = integrate(SystemState(), p, r, np.linspace(0, t_max, 60))
            assert abs(ts.p1[-1] - saturation_probability(r)) < 1e-4

    def test_trace_and_positivity(self):
        p = PhysicalParams(omega_mw=OMEGA, gamma3=GAMMA3)
        r = rates_from_sqrt(700, 700)
        t = np.arange(301) * 100e-6
        ts = integrate(SystemState(n0=0.8, n1=0.2), p, r, t)
        assert np.max(np.abs(ts.trace - 1.0)) < 1e-9
        assert ts.y[:, 2:].min() > -1e-9


class TestAdiabatic:
    def test_zero_light_identical_to_full(self):
        p = PhysicalParams(omega_mw=OMEGA, gamma3=GAMMA3)
        t = np.linspace(0, 5 * 2 * math.pi / OMEGA, 200)
        full = integrate(SystemState(), p, NO_LIGHT, t)
        red = integrate(SystemState(), p, NO_LIGHT, t, "adiabatic")
        assert np.max(np.abs(full.p1 - red.p1)) < 1e-10

    def test_reference_curve_plateau_two_thirds(self):
        p = PhysicalParams(omega_mw=OMEGA, gamma3=GAMMA3)
        r = rates_from_sqrt(700, 700)
        t = np.arange(301) * 100e-6
        ts = integrate(SystemState(n0=0.8, n1=0.2), p, r, t, "adiabatic")
        assert abs(ts.p1[-1] - 2 / 3) < 1e-3

    def test_symmetric_rates_plateau(self):
        p = PhysicalParams(omega_mw=OMEGA, gamma3=GAMMA3)
        r = ScatteringRates(r1=2e4, r2=2e4, p3_mean=(0, 0, 0))
        t = np.linspace(0, 30 / 2e4 * 20, 200)
        ts = integrate(SystemState(), p, r, t, "adiabatic")
        assert abs(ts.p1[-1] - 0.75) < 1e-3

    def test_agrees_with_full_model_at_strong_scattering(self):
        p = PhysicalParams(omega_mw=OMEGA, gamma3=GAMMA3)
        r = rates_from_sqrt(700, 350)
        t = np.arange(0, 151) * 100e-6
        full = integrate(SystemState(n0=0.8, n1=0.2), p, r, t)
        red = integrate(SystemState(n0=0.8, n1=0.2), p, r, t, "adiabatic")
        assert np.max(np.abs(full.p1 - red.p1)) < 1e-3

    def test_initial_n3_rejected(self):
        # the adiabatic model rebuilds n3 quasi-statically; a given n3 would be lost
        p = PhysicalParams(omega_mw=OMEGA, gamma3=GAMMA3)
        with pytest.raises(ValueError, match="n3"):
            integrate(SystemState(n0=0.7, n3=0.3), p, rates_from_sqrt(700, 700),
                      np.arange(5) * 100e-6, "adiabatic")

    def test_regime_violation(self):
        p = PhysicalParams(omega_mw=OMEGA, gamma3=GAMMA3, i0=0.5, alpha=0.2)
        with pytest.raises(RegimeViolation):
            integrate(SystemState(), p, scattering_rates(p),
                      np.linspace(0, 1e-3, 10), "adiabatic")


@pytest.mark.xfail(
    strict=True,
    reason="known model discrepancy: the four-level envelope decays at "
    "(gamma_c + beta2 r1 / 2) / 2 = (2/3) r1, not at r1; the canonical "
    "red for this lives in the acceptance gate (criterion 4), see the "
    "project decision ledger",
)
def test_envelope_decay_matches_transverse_rate():
    p = PhysicalParams(omega_mw=OMEGA, gamma3=GAMMA3)
    r = rates_from_sqrt(70, 70)
    t = np.arange(301) * 100e-6
    ts = integrate(SystemState(), p, r, t, "adiabatic")
    from iondeco.fitting import fit_nutation

    fit = fit_nutation(ts.t, ts.p1)
    assert fit.lambda_fit == pytest.approx(r.r1, rel=0.20)


def test_coherence_bounded_by_populations():
    p = PhysicalParams(omega_mw=OMEGA, gamma3=GAMMA3)
    r = rates_from_sqrt(70, 70)
    t = np.linspace(0, 10e-3, 200)
    ts = integrate(SystemState(n0=0.8, n1=0.2), p, r, t, "adiabatic")
    u, v = ts.y[:, 0], ts.y[:, 1]
    assert np.all(u**2 + v**2 <= 4 * ts.y[:, 2] * ts.y[:, 3] + 1e-9)


# Reference equations of motion for solve_ivp, written out term by term
# independently of dynamics.generator.
def _rhs_full(_, y, p, r):
    u, v, n0, n1, n2, n3 = y
    gc = r.r1 + p.gamma_ph_extra
    return [
        -p.delta_mw * v - gc * u,
        p.delta_mw * u + p.omega_mw * (n0 - n1) - gc * v,
        -0.5 * p.omega_mw * v,
        0.5 * p.omega_mw * v - r.r1 * n1 + p.beta1 * p.gamma3 * n3,
        -r.r2 * n2 + p.beta2 * p.gamma3 * n3,
        r.r1 * n1 + r.r2 * n2 - p.gamma3 * n3,
    ]


def _rhs_adiabatic(_, y, p, r):
    u, v, n0, n1, n2 = y
    gc = r.r1 + p.gamma_ph_extra
    flux = r.r1 * n1 + r.r2 * n2
    return [
        -p.delta_mw * v - gc * u,
        p.delta_mw * u + p.omega_mw * (n0 - n1) - gc * v,
        -0.5 * p.omega_mw * v,
        0.5 * p.omega_mw * v - r.r1 * n1 + p.beta1 * flux,
        -r.r2 * n2 + p.beta2 * flux,
    ]


@settings(max_examples=12, deadline=None)
@given(
    omega_2pikhz=st.floats(1.0, 10.0),
    i0=st.floats(0.0, 1e-3),
    alpha=st.floats(0.0, math.pi / 2),
    b_2pikhz=st.floats(0.0, 2e4),
    delta_mw_2pikhz=st.floats(0.1, 5.0),
    detuning_sign=st.sampled_from([-1.0, 1.0]),
    gamma_ph_2pikhz=st.floats(0.0, 2.0),
    weights=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
    coherence=st.floats(0.0, 1.0),
    phase=st.floats(0.0, 2 * math.pi),
)
def test_propagator_matches_solve_ivp_reference(
    omega_2pikhz, i0, alpha, b_2pikhz, delta_mw_2pikhz, detuning_sign,
    gamma_ph_2pikhz, weights, coherence, phase,
):
    """Both models agree with an independent stiff solver (Radau, rtol 1e-10)
    on the equations written out above, detuned drive included."""
    p = PhysicalParams(
        omega_mw=omega_2pikhz * TWO_PI_KHZ,
        gamma3=GAMMA3,
        i0=i0,
        alpha=alpha,
        zeeman_delta=b_2pikhz * TWO_PI_KHZ,
        delta_mw=detuning_sign * delta_mw_2pikhz * TWO_PI_KHZ,
        gamma_ph_extra=gamma_ph_2pikhz * TWO_PI_KHZ,
    )
    r = scattering_rates(p)
    n = np.array(weights) / sum(weights)
    c = coherence * math.sqrt(4 * n[0] * n[1])  # u^2 + v^2 <= 4 n0 n1
    initial = SystemState(c * math.cos(phase), c * math.sin(phase), *n)
    t = np.arange(21) * 25e-6
    # the adiabatic model holds no n3; its leg evolves the same first five entries
    models = (("full", _rhs_full, 6, initial),
              ("adiabatic", _rhs_adiabatic, 5, dataclasses.replace(initial, n3=0.0)))
    for model, rhs, size, start in models:
        ref = solve_ivp(rhs, (t[0], t[-1]), start.as_vector()[:size], method="Radau",
                        t_eval=t, rtol=1e-10, atol=1e-10, args=(p, r))
        assert ref.success
        ts = integrate(start, p, r, t, model)
        assert np.max(np.abs(ts.y[:, :size] - ref.y.T)) < 1e-7


@pytest.mark.parametrize("model", ["two-level", "nope"])
def test_unknown_model_rejected(model):
    p = PhysicalParams(omega_mw=OMEGA, gamma3=GAMMA3)
    assert model not in MODELS
    with pytest.raises(ValueError, match="unknown model variant"):
        integrate(SystemState(), p, rates_from_sqrt(700, 700), np.arange(5) * 100e-6, model)


def test_non_uniform_grid_rejected():
    p = PhysicalParams(omega_mw=OMEGA, gamma3=GAMMA3)
    with pytest.raises(ValueError, match="uniformly spaced"):
        integrate(SystemState(), p, NO_LIGHT, [0.0, 1e-4, 3e-4])


def _mp_propagate(A, y0, t):
    """expm(A t_i) y0 on the uniform grid t, in 40-digit arithmetic from the
    same float A: one 40-digit step propagator, applied once per point."""
    with mpmath.workdps(40):
        step = mpmath.expm(mpmath.matrix(A.tolist()) * mpmath.mpf(float(t[1] - t[0])))
        y = mpmath.matrix(y0.tolist())
        ys = [y]
        for _ in t[1:]:
            y = step * y
            ys.append(y)
        return np.array([[float(x) for x in y] for y in ys])


@settings(max_examples=12, deadline=None)
@given(
    omega_2pikhz=st.floats(1.0, 10.0),
    i0=st.floats(0.0, 1e-3),
    alpha=st.floats(0.0, math.pi / 2),
    b_2pikhz=st.floats(0.0, 2e4),
    delta_mw_2pikhz=st.floats(-5.0, 5.0),
    gamma_ph_2pikhz=st.floats(0.0, 2.0),
    weights=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
    coherence=st.floats(0.0, 1.0),
    phase=st.floats(0.0, 2 * math.pi),
    dt_us=st.floats(0.01, 200.0),
)
def test_propagator_matches_mpmath_reference(
    omega_2pikhz, i0, alpha, b_2pikhz, delta_mw_2pikhz, gamma_ph_2pikhz,
    weights, coherence, phase, dt_us,
):
    """Both models stay within 1e-12 of a 40-digit expm(A t) y0 of the same
    float A, at steps |A h| from about 1e-3 to 5e4; the Pade-13 expm agrees
    with scipy's to 1e-11, the forward error |A h| * 2.2e-16 of a
    double-precision expm at the largest step."""
    p = PhysicalParams(
        omega_mw=omega_2pikhz * TWO_PI_KHZ,
        gamma3=GAMMA3,
        i0=i0,
        alpha=alpha,
        zeeman_delta=b_2pikhz * TWO_PI_KHZ,
        delta_mw=delta_mw_2pikhz * TWO_PI_KHZ,
        gamma_ph_extra=gamma_ph_2pikhz * TWO_PI_KHZ,
    )
    r = scattering_rates(p)
    n = np.array(weights) / sum(weights)
    c = coherence * math.sqrt(4 * n[0] * n[1])
    initial = SystemState(c * math.cos(phase), c * math.sin(phase), *n)
    t = np.arange(21) * dt_us * 1e-6
    models = (("full", 6, initial), ("adiabatic", 5, dataclasses.replace(initial, n3=0.0)))
    for model, size, start in models:
        A = generator(p, r, model)
        ref = _mp_propagate(A, start.as_vector()[:size], t)
        assert np.max(np.abs(integrate(start, p, r, t, model).y[:, :size] - ref)) < 1e-12
        assert np.max(np.abs(_expm(A * t[1]) - scipy_expm(A * t[1]))) < 1e-11


def test_grid_from_zero_starts_at_y0_exactly():
    """A grid from t = 0 takes y0 as its first row without an expm: the
    Pade expm of the zero matrix is exactly I and the rebuilt conserving
    row exactly a unit row, so the shortcut changes no bit."""
    p = PhysicalParams(omega_mw=OMEGA, gamma3=GAMMA3, i0=3e-4, alpha=1.0,
                       zeeman_delta=300 * TWO_PI_KHZ)
    r = scattering_rates(p)
    y0 = np.array([0.1, -0.2, 0.5, 0.3, 0.15, 0.05])
    t = np.arange(5) * 20e-6
    for model, size in (("full", 6), ("adiabatic", 5)):
        A = generator(p, r, model)
        assert np.array_equal(_expm(A * 0.0), np.eye(size))
        ys = _propagate(A, y0[:size], t)
        assert np.array_equal(ys[0], y0[:size])
        shifted = _propagate(A, y0[:size], t + t[1])  # first row through expm(A h)
        assert np.array_equal(shifted[0], ys[1])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 64, 65, 301])
def test_doubling_matches_serial_steps(n):
    """Doubling fills every block boundary as a serial loop of one mat-vec
    per point with the same step matrix would, on a grid from 0 and on one
    shifted by a step."""
    p = PhysicalParams(omega_mw=OMEGA, gamma3=GAMMA3, i0=3e-4, alpha=1.0,
                       zeeman_delta=300 * TWO_PI_KHZ, gamma_ph_extra=0.3 * TWO_PI_KHZ)
    r = scattering_rates(p)
    y0 = np.array([0.1, -0.2, 0.5, 0.3, 0.15, 0.05])
    h = 20e-6
    for model, size in (("full", 6), ("adiabatic", 5)):
        A = generator(p, r, model)
        step = _expm(A * h)
        for t in (np.arange(n) * h, np.arange(1, n + 1) * h):
            y = step @ y0[:size] if t[0] else y0[:size]
            serial = [y]
            for _ in range(n - 1):
                y = step @ y
                serial.append(y)
            ys = _propagate(A, y0[:size], t)
            assert ys.shape == (n, size)
            assert np.max(np.abs(ys - serial)) < 1e-13


@settings(max_examples=10, deadline=None)
@given(
    omega_2pikhz=st.floats(1.0, 10.0),
    i0=st.floats(0.0, 1e-3),
    alpha=st.floats(0.0, math.pi / 2),
    b_2pikhz=st.floats(0.0, 2e4),
    delta_mw_2pikhz=st.floats(-5.0, 5.0),
    gamma_ph_2pikhz=st.floats(0.0, 2.0),
    weights=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
    coherence=st.floats(0.0, 1.0),
    phase=st.floats(0.0, 2 * math.pi),
    dt_us=st.floats(0.01, 200.0),
)
def test_doubling_matches_mpmath_on_301_points(
    omega_2pikhz, i0, alpha, b_2pikhz, delta_mw_2pikhz, gamma_ph_2pikhz,
    weights, coherence, phase, dt_us,
):
    """On a 301-point grid, nine doubling blocks and eight conserving
    squarings keep both models within 1e-12 of a 40-digit expm(A t) y0,
    and the populations' sum within 4e-15 of its start."""
    p = PhysicalParams(
        omega_mw=omega_2pikhz * TWO_PI_KHZ,
        gamma3=GAMMA3,
        i0=i0,
        alpha=alpha,
        zeeman_delta=b_2pikhz * TWO_PI_KHZ,
        delta_mw=delta_mw_2pikhz * TWO_PI_KHZ,
        gamma_ph_extra=gamma_ph_2pikhz * TWO_PI_KHZ,
    )
    r = scattering_rates(p)
    n = np.array(weights) / sum(weights)
    c = coherence * math.sqrt(4 * n[0] * n[1])
    y0 = np.array([c * math.cos(phase), c * math.sin(phase), *n])
    t = np.arange(301) * dt_us * 1e-6
    for model, size in (("full", 6), ("adiabatic", 5)):
        A = generator(p, r, model)
        start = y0[:size] if size == 6 else np.r_[y0[:4], y0[4] + y0[5]]
        ys = _propagate(A, start, t)
        assert np.max(np.abs(ys - _mp_propagate(A, start, t))) < 1e-12
        drift = ys[:, 2:].sum(axis=1) - start[2:].sum()
        assert np.max(np.abs(drift)) < 4e-15


def _literal_generator(p, r, model):
    """Both generators written out entry by entry: the reference for the
    term table."""
    om, dmw = p.omega_mw, p.delta_mw
    gc = r.r1 + p.gamma_ph_extra
    r1, r2 = r.r1, r.r2
    b1, b2, g3 = p.beta1, p.beta2, p.gamma3
    if model == "full":
        return np.array([
            [-gc, -dmw, 0.0, 0.0, 0.0, 0.0],
            [dmw, -gc, om, -om, 0.0, 0.0],
            [0.0, -0.5 * om, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.5 * om, 0.0, -r1, 0.0, b1 * g3],
            [0.0, 0.0, 0.0, 0.0, -r2, b2 * g3],
            [0.0, 0.0, 0.0, r1, r2, -(b1 * g3 + b2 * g3)],
        ])
    return np.array([
        [-gc, -dmw, 0.0, 0.0, 0.0],
        [dmw, -gc, om, -om, 0.0],
        [0.0, -0.5 * om, 0.0, 0.0, 0.0],
        [0.0, 0.5 * om, 0.0, -b2 * r1, b1 * r2],
        [0.0, 0.0, 0.0, b2 * r1, -b1 * r2],
    ])


# knobs with exactly 0 drawn often: a zero weight is where the term sum and
# the literal matrix may differ in the sign of a zero entry
_KNOBS = dict(
    omega_2pikhz=st.just(0.0) | st.floats(0.0, 50.0),
    delta_mw_2pikhz=st.just(0.0) | st.floats(-5.0, 5.0),
    i0=st.just(0.0) | st.floats(1e-5, 1e-2),
    alpha=st.floats(0.0, math.pi / 2),
    b_2pikhz=st.just(0.0) | st.floats(0.0, 2e4),
    gamma_ph_2pikhz=st.just(0.0) | st.floats(0.0, 1.0),
)


def _knob_params(omega_2pikhz, delta_mw_2pikhz, i0, alpha, b_2pikhz, gamma_ph_2pikhz):
    return PhysicalParams(
        omega_mw=omega_2pikhz * TWO_PI_KHZ,
        gamma3=GAMMA3,
        i0=i0,
        alpha=alpha,
        zeeman_delta=b_2pikhz * TWO_PI_KHZ,
        delta_mw=delta_mw_2pikhz * TWO_PI_KHZ,
        gamma_ph_extra=gamma_ph_2pikhz * TWO_PI_KHZ,
    )


@settings(max_examples=300, deadline=None)
@given(**_KNOBS)
def test_term_sum_equals_literal_matrices(**knobs):
    p = _knob_params(**knobs)
    r = scattering_rates(p)
    for model in MODELS:
        assert np.array_equal(generator(p, r, model), _literal_generator(p, r, model))


@pytest.mark.parametrize("model", MODELS)
def test_every_term_conserves_populations(model):
    """The population rows of each term matrix sum to exactly 0 in every
    column, so every weighted sum of the terms conserves the populations."""
    size, terms = _TERMS[model]
    for name, entries in terms:
        B = np.zeros((size, size))
        for i, j, entry in entries:
            B[i, j] += entry
        assert np.all(B[2:].sum(axis=0) == 0.0), name


@settings(max_examples=40, deadline=None)
@given(
    **_KNOBS,
    pure=st.booleans(),
    weights=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
    coherence=st.floats(0.0, 1.0),
    phase=st.floats(0.0, 2 * math.pi),
    dt_us=st.sampled_from([2.0, 20.0, 100.0]),
)
def test_integrate_equals_literal_propagation_bit_for_bit(
    pure, weights, coherence, phase, dt_us, **knobs
):
    """integrate on the term sum equals _propagate on the literal matrix,
    the sign of every zero included, from the ground state or a mixture."""
    p = _knob_params(**knobs)
    r = scattering_rates(p)
    n = np.array(weights) / sum(weights)
    c = coherence * math.sqrt(4 * n[0] * n[1])
    initial = SystemState() if pure else SystemState(
        c * math.cos(phase), c * math.sin(phase), *n)
    t = np.arange(301) * dt_us * 1e-6
    models = (("full", 6, initial), ("adiabatic", 5, dataclasses.replace(initial, n3=0.0)))
    for model, size, start in models:
        ys = integrate(start, p, r, t, model).y[:, :size]
        ref = _propagate(_literal_generator(p, r, model), start.as_vector()[:size], t)
        assert np.array_equal(ys, ref)
        assert np.array_equal(np.signbit(ys), np.signbit(ref))
