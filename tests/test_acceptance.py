"""Release acceptance gate.

Each test covers one acceptance criterion at a pinned tolerance and prints
a single PASS/FAIL line (written past the capture plugin so the verdict is
always visible in the run log).  Criteria and tolerances are frozen; do
not loosen them to make a red criterion pass.
"""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from iondeco.design import DesignTarget, design_decoherence
from iondeco.dynamics import (
    SystemState,
    integrate,
)
from iondeco.errors import InfeasibleDesign
from iondeco.fitting import fit_nutation, invert_saturation
from iondeco.model import (
    TWO_PI_KHZ,
    PhysicalParams,
    ScatteringRates,
    effective_rates,
    saturation_probability,
    scattering_rates,
)
from iondeco.protocol import (
    ProtocolConfig,
    accumulate,
    run_trajectories,
    write_trajectories,
)

GAMMA3 = 18e3 * TWO_PI_KHZ


@pytest.fixture
def report(capsys):
    """Verdict printer: one PASS/FAIL line per criterion, emitted past the
    capture plugin so it shows up in every run log."""

    def _report(number: int, name: str, ok: bool, detail: str = ""):
        verdict = "PASS" if ok else "FAIL"
        extra = f" ({detail})" if detail else ""
        with capsys.disabled():
            sys.stdout.write(f"[criterion {number}] {name}: {verdict}{extra}\n")
            sys.stdout.flush()
        assert ok, f"criterion {number} ({name}) failed{extra}"

    return _report


def rates_from_sqrt(sqrt_2r1gl: float, sqrt_r2gl: float) -> ScatteringRates:
    """Rates from the sqrt(2 r1 gamma_l), sqrt(r2 gamma_l) labels (2pi kHz),
    gamma_l = 9e3."""
    gl = 9e3
    r1 = sqrt_2r1gl**2 / (2 * gl) * TWO_PI_KHZ
    r2 = sqrt_r2gl**2 / gl * TWO_PI_KHZ
    return ScatteringRates(r1=r1, r2=r2,
                           p3_mean=(0.5 * r2 / GAMMA3, r1 / GAMMA3, 0.5 * r2 / GAMMA3))


def test_criterion_1_saturation_closed_form(report):
    """Closed-form P1(inf) matches the integrated long-time limit to 1e-3
    over 200 random weak-field parameter draws."""
    rng = np.random.default_rng(20260824)
    worst = 0.0
    for _ in range(200):
        p = PhysicalParams(
            omega_mw=rng.uniform(2, 40) * TWO_PI_KHZ,
            gamma3=GAMMA3,
            i0=10 ** rng.uniform(math.log10(5e-5), math.log10(5e-4)),
            alpha=rng.uniform(0.2, 1.35),
        )
        r = scattering_rates(p)
        t_max = 15 / min(p.beta2 * r.r1, p.beta1 * r.r2)
        ts = integrate(SystemState(), p, r, np.linspace(0.0, t_max, 40))
        worst = max(worst, abs(ts.p1[-1] - saturation_probability(r)))
    report(1, "closed-form saturation vs integrated steady state",
           worst < 1e-3, f"worst abs err {worst:.2e}")


def test_criterion_2_plateau_family(report):
    """The four-curve nutation family reaches plateaus 0.990, 0.962, 0.833,
    0.667 within 1e-2 (energy-relaxation label swept, dephasing fixed)."""
    p = PhysicalParams(omega_mw=4.2 * TWO_PI_KHZ, gamma3=GAMMA3)
    expected = {70: 0.990, 140: 0.962, 350: 0.833, 700: 0.667}
    worst = 0.0
    for sqrt_r2gl, plateau in expected.items():
        r = rates_from_sqrt(700, sqrt_r2gl)
        t = np.arange(301) * 100e-6
        ts = integrate(SystemState(), p, r, t, "adiabatic")
        worst = max(worst, abs(ts.p1[-1] - plateau))
    report(2, "nutation plateau family", worst < 1e-2,
           f"worst abs err {worst:.2e}")


def test_criterion_3_monotone_damping_ladder(report):
    """Envelope damping grows monotonically with light level and vanishes
    (lambda < 1e-6 Omega) without light."""
    omega = 10 * TWO_PI_KHZ
    # i0 ladder equivalent to optical Rabi frequencies 0, 50, 500 (2pi kHz)
    # through I0 = Omega_l^2 / (gamma_l * gamma3)
    ladder = [0.0, 50.0**2 / (9e3 * 18e3), 500.0**2 / (9e3 * 18e3)]
    lams = []
    for i0 in ladder:
        p = PhysicalParams(omega_mw=omega, gamma3=GAMMA3, i0=i0,
                           alpha=math.radians(60))
        r = scattering_rates(p)
        t_max = 40 * 2 * math.pi / omega if r.r1 == 0 else min(10 / r.r1, 60e-3)
        t = np.linspace(0.0, t_max, 500)
        ts = integrate(SystemState(), p, r, t, "adiabatic")
        lams.append(fit_nutation(ts.t, ts.p1).lambda_fit)
    ok = lams[0] < 1e-6 * omega and lams[0] < lams[1] < lams[2]
    report(3, "damping monotone in light level", ok,
           "lambda/Omega = " + ", ".join(f"{l / omega:.2e}" for l in lams))


def test_criterion_4_envelope_rate_identification(report):
    """Fitted envelope decay matches the transverse rate r1 + gamma_ph
    within 20% across a 3x3 knob grid.

    Known red: the four-level dynamics damp the nutation envelope at
    (gamma_c + beta2 r1 / 2) / 2 = (2/3) r1 for gamma_ph = 0, so the
    fitted lambda sits about 33% below r1 for every grid point.  See the
    project decision ledger for the full derivation.
    """
    worst = 0.0
    for alpha_deg in (50, 60, 70):
        for i0 in (2e-4, 5e-4, 1e-3):
            p = PhysicalParams(omega_mw=40 * TWO_PI_KHZ, gamma3=GAMMA3,
                               i0=i0, alpha=math.radians(alpha_deg))
            r = scattering_rates(p)
            t = np.linspace(0.0, 14 / r.r1, 400)
            ts = integrate(SystemState(), p, r, t, "adiabatic")
            fit = fit_nutation(ts.t, ts.p1)
            worst = max(worst, abs(fit.lambda_fit / (r.r1 + p.gamma_ph_extra) - 1))
    report(4, "envelope decay identifies r1 + gamma_ph to 20%",
           worst <= 0.20, f"worst rel err {worst:.3f}")


def test_criterion_5_ratio_identification(report):
    """Plateau inversion recovers r2/r1 within 10% across the same grid."""
    worst = 0.0
    for alpha_deg in (50, 60, 70):
        for i0 in (2e-4, 5e-4, 1e-3):
            p = PhysicalParams(omega_mw=40 * TWO_PI_KHZ, gamma3=GAMMA3,
                               i0=i0, alpha=math.radians(alpha_deg))
            r = scattering_rates(p)
            t = np.linspace(0.0, 14 / r.r1, 400)
            ts = integrate(SystemState(), p, r, t, "adiabatic")
            ratio = invert_saturation(fit_nutation(ts.t, ts.p1).p_inf_fit)
            worst = max(worst, abs(ratio / (r.r2 / r.r1) - 1))
    report(5, "plateau inversion identifies r2/r1 to 10%",
           worst <= 0.10, f"worst rel err {worst:.3f}")


def test_criterion_6_protocol_statistics(tmp_path, report):
    """5000 simulated trajectories agree with the deterministic curve at
    every drive length (|z| < 4) and serialize byte-identically."""
    p = PhysicalParams(omega_mw=4.2 * TWO_PI_KHZ, gamma3=GAMMA3,
                       i0=3e-4, alpha=math.radians(60))
    r = scattering_rates(p)
    cfg = ProtocolConfig(dt_unit=100e-6, n_max=300, n_trajectories=5000, seed=11)
    batch = run_trajectories(p, r, cfg, model="adiabatic")
    curve = accumulate(batch)
    p_true = batch.p1_curve
    z = (curve.p1_mean - p_true) / np.sqrt(
        np.maximum(p_true * (1 - p_true), 1e-9) / cfg.n_trajectories)
    zmax = float(np.max(np.abs(z)))
    f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
    write_trajectories(f1, batch)
    write_trajectories(f2, batch)
    ok = zmax < 4.0 and f1.read_bytes() == f2.read_bytes()
    report(6, "Monte Carlo protocol statistics and reproducibility", ok,
           f"max |z| = {zmax:.2f}")


def test_criterion_7_inverse_design(report):
    """Inverse design reproduces 50 random feasible targets to 0.1% and
    rejects an infeasible one with a named binding constraint."""
    template = PhysicalParams(omega_mw=10 * TWO_PI_KHZ, gamma3=GAMMA3,
                              zeeman_delta=5e3 * TWO_PI_KHZ)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        p = replace(template, i0=10 ** rng.uniform(-5, -2.5),
                    alpha=rng.uniform(0.15, math.pi / 2 - 0.15))
        eff = effective_rates(p, scattering_rates(p))
        target = DesignTarget(gamma_target=eff.gamma_eff,
                              Gamma_target=eff.Gamma_eff, i0_bounds=(0.0, 1.0))
        i0, alpha, zeeman = design_decoherence(target, template)
        got = effective_rates(
            replace(template, i0=i0, alpha=alpha, zeeman_delta=zeeman),
            scattering_rates(replace(template, i0=i0, alpha=alpha,
                                     zeeman_delta=zeeman)))
        worst = max(worst, abs(got.gamma_eff / eff.gamma_eff - 1),
                    abs(got.Gamma_eff / eff.Gamma_eff - 1))
    named = False
    try:
        design_decoherence(
            DesignTarget(gamma_target=GAMMA3, Gamma_target=1e6), template)
    except InfeasibleDesign as exc:
        named = exc.constraint == "r1_saturation"
    report(7, "inverse design round trip to 0.1%", worst < 1e-3 and named,
           f"worst rel err {worst:.2e}, infeasible named: {named}")


def test_criterion_8_numerical_hygiene(report):
    """Trace conserved to 1e-9, populations positive to -1e-9 on a stiff
    strong-scattering curve; zero-light dynamics match the analytic
    nutation formula to 1e-8."""
    p = PhysicalParams(omega_mw=4.2 * TWO_PI_KHZ, gamma3=GAMMA3)
    r = rates_from_sqrt(700, 700)
    t = np.arange(301) * 100e-6
    ts = integrate(SystemState(n0=0.8, n1=0.2), p, r, t)
    trace_err = float(np.max(np.abs(ts.trace - 1.0)))
    min_pop = float(ts.y[:, 2:].min())

    no_light = ScatteringRates(0.0, 0.0, (0.0, 0.0, 0.0))
    t2 = np.linspace(0, 10 * 2 * math.pi / p.omega_mw, 400)
    ts2 = integrate(SystemState(), p, no_light, t2)
    rabi_err = float(np.max(np.abs(ts2.y[:, 3] - np.sin(p.omega_mw * t2 / 2) ** 2)))
    ok = trace_err < 1e-9 and min_pop > -1e-9 and rabi_err < 1e-8
    report(8, "numerical hygiene", ok,
           f"trace {trace_err:.1e}, min pop {min_pop:.1e}, rabi {rabi_err:.1e}")
