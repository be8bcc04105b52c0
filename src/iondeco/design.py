"""Inverse design: choose light intensity, polarization angle, and
magnetic field to realize target effective relaxation rates.

The target (gamma, Gamma) fixes the required per-atom scattering rates
r1 = gamma - gamma_ph_extra and r2 = Omega^2 / Gamma.  Every line
saturates as p = (1/2) x / (1 + x) with x = I(m) L(m), so at a fixed
Zeeman splitting the knobs follow in closed form, with no iteration:

- the pi line fixes x0 = q / (1 - q) with q = 2 r1 / gamma3, so
  c = i0 cos^2(alpha) = x0 / L0;
- with s = i0 sin^2(alpha) and T = 2 r2 / gamma3, the sigma lines give
  (2 - T) L+ L- s^2 + (1 - T) (L+ + L-) s - T = 0, whose one positive
  root is s;
- i0 = c + s and alpha = atan(sqrt(s / c)).

With optimize_b a golden-section search picks the splitting that needs
the least light.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import InfeasibleDesign
from .model import PhysicalParams, effective_rates, line_shape, scattering_rates


@dataclass(frozen=True)
class DesignTarget:
    gamma_target: float   # transverse rate (rad/s)
    Gamma_target: float   # longitudinal rate (rad/s)
    i0_bounds: tuple[float, float] = (0.0, 0.1)
    alpha_bounds: tuple[float, float] = (0.0, math.pi / 2)
    b_bounds: tuple[float, float] = (0.0, 0.0)
    optimize_b: bool = False  # 3-knob mode: pick B minimizing i0

    def __post_init__(self):
        if not (0 < self.gamma_target < math.inf and 0 < self.Gamma_target < math.inf):
            raise ValueError("targets must be finite and positive")
        for name in ("i0_bounds", "alpha_bounds", "b_bounds"):
            lo, hi = getattr(self, name)
            if not lo <= hi:  # also false for a NaN bound
                raise ValueError(f"{name} must be well-ordered numbers")
        if self.optimize_b and not all(map(math.isfinite, self.b_bounds)):
            raise ValueError("b_bounds must be finite to optimize the field")


def _required_rates(target: DesignTarget, template: PhysicalParams) -> tuple[float, float]:
    """Scattering rates (r1, r2) the target asks for; raises InfeasibleDesign."""
    r1_req = target.gamma_target - template.gamma_ph_extra
    if r1_req <= 0:
        raise InfeasibleDesign(
            "target gamma does not exceed the fixed extra dephasing floor",
            constraint="gamma_ph_extra",
        )
    r2_req = template.omega_mw**2 / target.Gamma_target
    if r2_req == 0:
        raise InfeasibleDesign(
            "target Gamma needs a microwave drive, and omega_mw is zero",
            constraint="omega_mw",
        )
    # saturation ceilings of the exact formulas
    if r1_req >= 0.5 * template.gamma3:
        raise InfeasibleDesign(
            "target gamma demands r1 beyond the saturation ceiling gamma3/2",
            constraint="r1_saturation",
        )
    if r2_req >= template.gamma3:
        raise InfeasibleDesign(
            "target Gamma demands r2 beyond the saturation ceiling gamma3",
            constraint="r2_saturation",
        )
    return r1_req, r2_req


def _solve_fixed_b(
    target: DesignTarget, template: PhysicalParams, zeeman: float
) -> tuple[float, float]:
    """Closed-form (i0, alpha) at fixed Zeeman splitting, checked against the
    knob bounds; raises InfeasibleDesign.  Float arithmetic only, so the
    optimize-B search can afford it at every probe."""
    r1_req, r2_req = _required_rates(target, template)
    g3 = template.gamma3
    l0, lp, lm = (line_shape(g3, -template.delta_laser + m * zeeman) for m in (0, 1, -1))
    q, T = 2.0 * r1_req / g3, 2.0 * r2_req / g3
    a1 = (1.0 - T) * (lp + lm)
    a2 = (2.0 - T) * lp * lm
    try:
        c = q / (1.0 - q) / l0
        root_d = math.sqrt(a1 * a1 + 4.0 * a2 * T)
        # the positive root, in whichever form does not cancel
        s = 2.0 * T / (a1 + root_d) if a1 >= 0 else (root_d - a1) / (2.0 * a2)
    except ZeroDivisionError:  # a line shape underflowed: no finite light suffices
        c = s = math.inf
    i0, alpha = c + s, math.atan2(math.sqrt(s), math.sqrt(c))

    lo, hi = target.i0_bounds
    if not (lo <= i0 <= hi and i0 < math.inf):
        raise InfeasibleDesign(
            f"required i0 = {i0:.4g} outside bounds [{lo:.4g}, {hi:.4g}]",
            constraint="i0_bounds",
        )
    lo, hi = target.alpha_bounds
    if not lo - 1e-12 <= alpha <= hi + 1e-12:
        raise InfeasibleDesign(
            f"required alpha = {alpha:.4g} rad outside bounds [{lo:.4g}, {hi:.4g}]",
            constraint="alpha_bounds",
        )
    return i0, alpha


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _least_light_zeeman(target: DesignTarget, template: PhysicalParams) -> float:
    """Zeeman splitting inside b_bounds that needs the least i0; raises
    InfeasibleDesign (b_bounds) when no splitting there is feasible."""
    lo, hi = target.b_bounds

    def required_i0(z):
        try:
            return _solve_fixed_b(target, template, z)[0]
        except InfeasibleDesign:
            return math.inf

    # golden-section search, assuming one minimum inside b_bounds; each step
    # shrinks the bracket by 1/phi, down to a width of 1e-5 rad/s
    steps = math.ceil(math.log(1e-5 / (hi - lo)) / math.log(_INV_PHI)) if hi - lo > 1e-5 else 0
    a, b = lo, hi
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = required_i0(c), required_i0(d)
    for _ in range(steps):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = required_i0(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = required_i0(d)
    zeeman = 0.5 * (a + b)
    if required_i0(zeeman) == math.inf:
        raise InfeasibleDesign(
            "no feasible Zeeman splitting within b_bounds", constraint="b_bounds"
        )
    return zeeman


def design_decoherence(
    target: DesignTarget, params_template: PhysicalParams
) -> tuple[float, float, float]:
    """Return (i0, alpha, zeeman_delta) realizing the target rates.

    The template fixes gamma3, laser detuning, microwave Rabi frequency,
    and any extra dephasing.  By default the Zeeman splitting is held at
    the template value; with optimize_b the splitting is chosen inside
    b_bounds to minimize the required light level.
    """
    zeeman = params_template.zeeman_delta
    if target.optimize_b:
        zeeman = _least_light_zeeman(target, params_template)
    i0, alpha = _solve_fixed_b(target, params_template, zeeman)
    # one forward evaluation guards the closed form against rounding
    r = scattering_rates(replace(params_template, i0=i0, alpha=alpha, zeeman_delta=zeeman))
    r1_req, r2_req = _required_rates(target, params_template)
    if abs(r.r1 - r1_req) > 1e-4 * r1_req or abs(r.r2 - r2_req) > 1e-4 * r2_req:
        raise InfeasibleDesign(
            "forward rates at the closed-form knobs miss the target",
            constraint="convergence",
        )
    return i0, alpha, zeeman


def verify_design(
    target: DesignTarget,
    params_template: PhysicalParams,
    knobs: tuple[float, float, float],
    rel_tol: float = 1e-3,
) -> dict:
    """Forward-evaluate a knob setting and report achieved vs. target rates."""
    i0, alpha, zeeman = knobs
    p = replace(params_template, i0=i0, alpha=alpha, zeeman_delta=zeeman)
    eff = effective_rates(p, scattering_rates(p))
    err_gamma = abs(eff.gamma_eff / target.gamma_target - 1.0)
    err_Gamma = abs((eff.Gamma_eff or math.inf) / target.Gamma_target - 1.0)
    return {
        "achieved_gamma": eff.gamma_eff,
        "achieved_Gamma": eff.Gamma_eff,
        "rel_err_gamma": err_gamma,
        "rel_err_Gamma": err_Gamma,
        "within_tol": bool(err_gamma < rel_tol and err_Gamma < rel_tol),
    }
