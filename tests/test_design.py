import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iondeco.errors import InfeasibleDesign
from iondeco.design import DesignTarget, design_decoherence, verify_design
from iondeco.model import (
    TWO_PI_KHZ,
    PhysicalParams,
    effective_rates,
    scattering_rates,
)

TEMPLATE = PhysicalParams(
    omega_mw=10 * TWO_PI_KHZ,
    gamma3=18e3 * TWO_PI_KHZ,
    delta_laser=0.0,
    zeeman_delta=5e3 * TWO_PI_KHZ,
)


def achieved(template, knobs):
    i0, alpha, zeeman = knobs
    p = replace(template, i0=i0, alpha=alpha, zeeman_delta=zeeman)
    return effective_rates(p, scattering_rates(p))


class TestRoundTrip:
    def test_random_feasible_targets(self):
        # forward rates from random knob settings define targets the solver
        # must hit; round trip closes to 1e-3 on both rates
        rng = np.random.default_rng(7)
        for _ in range(50):
            i0 = 10 ** rng.uniform(-5, -2.5)
            alpha = rng.uniform(0.15, math.pi / 2 - 0.15)
            p = replace(TEMPLATE, i0=i0, alpha=alpha)
            eff = effective_rates(p, scattering_rates(p))
            target = DesignTarget(gamma_target=eff.gamma_eff,
                                  Gamma_target=eff.Gamma_eff,
                                  i0_bounds=(0.0, 1.0))
            knobs = design_decoherence(target, TEMPLATE)
            got = achieved(TEMPLATE, knobs)
            assert got.gamma_eff == pytest.approx(eff.gamma_eff, rel=1e-3)
            assert got.Gamma_eff == pytest.approx(eff.Gamma_eff, rel=1e-3)

    def test_verify_design_report(self):
        p = replace(TEMPLATE, i0=3e-4, alpha=0.9)
        eff = effective_rates(p, scattering_rates(p))
        target = DesignTarget(gamma_target=eff.gamma_eff,
                              Gamma_target=eff.Gamma_eff)
        knobs = design_decoherence(target, TEMPLATE)
        report = verify_design(target, TEMPLATE, knobs)
        assert report["within_tol"]
        assert report["rel_err_gamma"] < 1e-6

    def test_extra_dephasing_offset(self):
        # the solver must place r1 = gamma - gamma_ph_extra, not gamma
        template = replace(TEMPLATE, gamma_ph_extra=200.0)
        p = replace(template, i0=3e-4, alpha=0.7)
        eff = effective_rates(p, scattering_rates(p))
        target = DesignTarget(gamma_target=eff.gamma_eff,
                              Gamma_target=eff.Gamma_eff)
        knobs = design_decoherence(target, template)
        got = achieved(template, knobs)
        assert got.gamma_eff == pytest.approx(eff.gamma_eff, rel=1e-6)


class TestLimits:
    def test_small_ratio_drives_alpha_to_zero(self):
        # Gamma_target -> inf means r2 -> 0, realized by alpha -> 0
        base = DesignTarget(gamma_target=100.0, Gamma_target=1e9)
        alphas = []
        for Gamma in (1e9, 1e11, 1e13):
            target = replace_target(base, Gamma_target=Gamma)
            _, alpha, _ = design_decoherence(target, TEMPLATE)
            alphas.append(alpha)
        assert alphas[0] > alphas[1] > alphas[2]
        assert alphas[-1] < 1e-2

    def test_large_ratio_drives_alpha_to_pi_half(self):
        # r2/r1 = 1e4 pushes the polarization close to fully circular
        target = DesignTarget(gamma_target=10.0,
                              Gamma_target=TEMPLATE.omega_mw**2 / 1e5,
                              i0_bounds=(0.0, 1.0))
        _, alpha, _ = design_decoherence(target, TEMPLATE)
        assert alpha > 1.5


def replace_target(t: DesignTarget, **kw) -> DesignTarget:
    from dataclasses import replace as _r
    return _r(t, **kw)


class TestInfeasible:
    def test_dephasing_floor_named(self):
        template = replace(TEMPLATE, gamma_ph_extra=500.0)
        target = DesignTarget(gamma_target=400.0, Gamma_target=1e6)
        with pytest.raises(InfeasibleDesign) as exc:
            design_decoherence(target, template)
        assert exc.value.constraint == "gamma_ph_extra"

    def test_r1_ceiling_named(self):
        target = DesignTarget(gamma_target=TEMPLATE.gamma3, Gamma_target=1e6)
        with pytest.raises(InfeasibleDesign) as exc:
            design_decoherence(target, TEMPLATE)
        assert exc.value.constraint == "r1_saturation"

    def test_r2_ceiling_named(self):
        # Omega^2 / Gamma beyond gamma3
        target = DesignTarget(gamma_target=100.0,
                              Gamma_target=TEMPLATE.omega_mw**2 / TEMPLATE.gamma3 / 2)
        with pytest.raises(InfeasibleDesign) as exc:
            design_decoherence(target, TEMPLATE)
        assert exc.value.constraint == "r2_saturation"

    def test_i0_bound_named(self):
        # tight intensity budget cannot reach a strong-scattering target
        p = replace(TEMPLATE, i0=5e-3, alpha=0.8)
        eff = effective_rates(p, scattering_rates(p))
        target = DesignTarget(gamma_target=eff.gamma_eff,
                              Gamma_target=eff.Gamma_eff,
                              i0_bounds=(0.0, 1e-6))
        with pytest.raises(InfeasibleDesign) as exc:
            design_decoherence(target, TEMPLATE)
        assert exc.value.constraint == "i0_bounds"

    def test_alpha_bound_named(self):
        p = replace(TEMPLATE, i0=3e-4, alpha=1.2)
        eff = effective_rates(p, scattering_rates(p))
        target = DesignTarget(gamma_target=eff.gamma_eff,
                              Gamma_target=eff.Gamma_eff,
                              alpha_bounds=(0.0, 0.5))
        with pytest.raises(InfeasibleDesign) as exc:
            design_decoherence(target, TEMPLATE)
        assert exc.value.constraint == "alpha_bounds"

    def test_zero_microwave_drive_named(self):
        # Gamma = Omega^2 / r2 cannot reach a finite target without a drive
        target = DesignTarget(gamma_target=100.0, Gamma_target=1e3)
        with pytest.raises(InfeasibleDesign) as exc:
            design_decoherence(target, replace(TEMPLATE, omega_mw=0.0))
        assert exc.value.constraint == "omega_mw"

    def test_vanishing_line_shapes_name_i0(self):
        # a splitting so large that L(+-1) underflows to 0 needs infinite
        # light, even with no cap on i0
        target = DesignTarget(gamma_target=100.0, Gamma_target=1e6,
                              i0_bounds=(0.0, math.inf))
        with pytest.raises(InfeasibleDesign) as exc:
            design_decoherence(target, replace(TEMPLATE, zeeman_delta=1e170))
        assert exc.value.constraint == "i0_bounds"

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            DesignTarget(gamma_target=-1.0, Gamma_target=1.0)
        with pytest.raises(ValueError):
            DesignTarget(gamma_target=1.0, Gamma_target=1.0, i0_bounds=(1.0, 0.0))

    @pytest.mark.parametrize("bounds", [
        {"i0_bounds": (0.0, math.nan)},
        {"alpha_bounds": (math.nan, 1.0)},
        {"b_bounds": (0.0, math.nan)},
        {"b_bounds": (0.0, math.inf), "optimize_b": True},
        {"b_bounds": (-math.inf, 0.0), "optimize_b": True},
    ], ids=["i0-nan", "alpha-nan", "b-nan", "b-inf-optimized", "b-minus-inf-optimized"])
    def test_nan_or_unbounded_search_rejected(self, bounds):
        with pytest.raises(ValueError):
            DesignTarget(gamma_target=1.0, Gamma_target=1.0, **bounds)


def _knob_round_trip(i0, alpha, delta_laser, zeeman):
    """Design back the knobs whose forward rates define the target."""
    template = replace(TEMPLATE, delta_laser=delta_laser, zeeman_delta=zeeman)
    p = replace(template, i0=i0, alpha=alpha)
    eff = effective_rates(p, scattering_rates(p))
    target = DesignTarget(gamma_target=eff.gamma_eff, Gamma_target=eff.Gamma_eff,
                          i0_bounds=(0.0, math.inf))
    return design_decoherence(target, template)


G3 = TEMPLATE.gamma3
# T = 2 r2 / gamma3 decides which form of the quadratic's root is used
T_BELOW_1 = dict(log_i0=-4.0, alpha=0.8, delta_laser=-0.3 * G3, zeeman=0.25 * G3)
T_ABOVE_1 = dict(log_i0=2.0, alpha=1.5, delta_laser=0.2 * G3, zeeman=0.1 * G3)  # T ~ 1.97


class TestClosedForm:
    @settings(max_examples=200, deadline=None)
    @given(
        log_i0=st.floats(-6.0, 2.0),
        alpha=st.floats(0.01, math.pi / 2 - 0.01),
        delta_laser=st.floats(0.05, 2.0).flatmap(
            lambda d: st.sampled_from([-d * G3, d * G3])),
        zeeman=st.floats(0.0, 2.0).map(lambda z: z * G3),
    )
    @example(**T_BELOW_1)
    @example(**T_ABOVE_1)
    def test_knobs_rates_knobs_round_trip(self, log_i0, alpha, delta_laser, zeeman):
        i0 = 10.0**log_i0
        i0_got, alpha_got, zeeman_got = _knob_round_trip(i0, alpha, delta_laser, zeeman)
        assert zeeman_got == zeeman
        assert i0_got == pytest.approx(i0, rel=1e-12)
        assert alpha_got == pytest.approx(alpha, rel=1e-12)

    def test_examples_reach_both_branches(self):
        Ts = []
        for k in (T_BELOW_1, T_ABOVE_1):
            p = replace(TEMPLATE, i0=10.0 ** k["log_i0"], alpha=k["alpha"],
                        delta_laser=k["delta_laser"], zeeman_delta=k["zeeman"])
            Ts.append(2 * scattering_rates(p).r2 / G3)
        assert Ts[0] < 1 < Ts[1]


class TestOptimizeB:
    def test_optimized_b_needs_no_more_light(self):
        p = replace(TEMPLATE, i0=3e-4, alpha=0.7)
        eff = effective_rates(p, scattering_rates(p))
        target_fixed = DesignTarget(gamma_target=eff.gamma_eff,
                                    Gamma_target=eff.Gamma_eff)
        i0_fixed, _, _ = design_decoherence(target_fixed, TEMPLATE)
        target_opt = replace_target(
            target_fixed, optimize_b=True,
            b_bounds=(0.0, 20e3 * TWO_PI_KHZ))
        i0_opt, _, zeeman = design_decoherence(target_opt, TEMPLATE)
        assert i0_opt <= i0_fixed * (1 + 1e-6)
        assert 0.0 <= zeeman <= 20e3 * TWO_PI_KHZ
        got = achieved(TEMPLATE, (i0_opt, design_decoherence(target_opt, TEMPLATE)[1], zeeman))
        assert got.gamma_eff == pytest.approx(eff.gamma_eff, rel=1e-3)

    def test_infeasible_b_window_named(self):
        # at huge splitting the +-1 lines die off; demanding a large r2
        # with alpha capped keeps every B infeasible
        p = replace(TEMPLATE, i0=3e-4, alpha=1.2)
        eff = effective_rates(p, scattering_rates(p))
        target = DesignTarget(
            gamma_target=eff.gamma_eff, Gamma_target=eff.Gamma_eff,
            alpha_bounds=(0.0, 0.3), optimize_b=True,
            b_bounds=(4e3 * TWO_PI_KHZ, 6e3 * TWO_PI_KHZ),
        )
        with pytest.raises(InfeasibleDesign) as exc:
            design_decoherence(target, TEMPLATE)
        assert exc.value.constraint == "b_bounds"

    def test_detuned_optimum_beats_dense_field_scan(self):
        # red-detuned light: the sigma- line comes into resonance inside the
        # window, so the least-light field is interior, not at an end
        template = replace(TEMPLATE, delta_laser=-10e3 * TWO_PI_KHZ)
        p = replace(template, i0=3e-4, alpha=0.9)
        eff = effective_rates(p, scattering_rates(p))
        hi = 20e3 * TWO_PI_KHZ
        target = DesignTarget(gamma_target=eff.gamma_eff, Gamma_target=eff.Gamma_eff,
                              optimize_b=True, b_bounds=(0.0, hi))
        i0_opt, _, zeeman = design_decoherence(target, template)
        fixed = replace_target(target, optimize_b=False)
        scan = [design_decoherence(fixed, replace(template, zeeman_delta=z))[0]
                for z in np.linspace(0.0, hi, 2001)]
        assert i0_opt <= min(scan) * (1 + 1e-6)
        assert 0.0 < zeeman < hi

    def test_saturated_r1_names_b_bounds(self):
        # under optimize_b every infeasibility reads as "no field works"
        target = DesignTarget(gamma_target=TEMPLATE.gamma3, Gamma_target=1e6,
                              optimize_b=True, b_bounds=(0.0, 20e3 * TWO_PI_KHZ))
        with pytest.raises(InfeasibleDesign) as exc:
            design_decoherence(target, TEMPLATE)
        assert exc.value.constraint == "b_bounds"
