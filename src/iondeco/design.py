"""Inverse design: choose light intensity, polarization angle, and
magnetic field to realize target effective relaxation rates.

The target (gamma, Gamma) fixes the required per-atom scattering rates
r1 = gamma - gamma_ph_extra and r2 = Omega^2 / Gamma.  The weak-field
closed form gives tan^2(alpha) and i0 directly; a short damped-Newton
loop on the exact saturating expressions then removes the O(I) error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InfeasibleDesign
from .model import PhysicalParams, effective_rates, lorentzian, scattering_rates

_MAX_NEWTON_ITER = 20
_REL_TOL = 1e-9


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
            if lo > hi:
                raise ValueError(f"{name} must be well-ordered")


def _exact_rates(template: PhysicalParams, i0, alpha, zeeman):
    p = replace(template, i0=i0, alpha=alpha, zeeman_delta=zeeman)
    r = scattering_rates(p)
    return np.array([r.r1, r.r2])


def _solve_fixed_b(
    target: DesignTarget, template: PhysicalParams, zeeman: float
) -> tuple[float, float]:
    """Solve (i0, alpha) at fixed Zeeman splitting; raises InfeasibleDesign."""
    r1_req = target.gamma_target - template.gamma_ph_extra
    if r1_req <= 0:
        raise InfeasibleDesign(
            "target gamma does not exceed the fixed extra dephasing floor",
            constraint="gamma_ph_extra",
        )
    r2_req = template.omega_mw**2 / target.Gamma_target
    g3 = template.gamma3
    probe = replace(template, zeeman_delta=zeeman)
    l0 = lorentzian(probe, 0)
    lp = lorentzian(probe, +1)
    lm = lorentzian(probe, -1)

    # saturation ceilings of the exact formulas
    if r1_req >= 0.5 * g3:
        raise InfeasibleDesign(
            "target gamma demands r1 beyond the saturation ceiling gamma3/2",
            constraint="r1_saturation",
        )
    if r2_req >= g3:
        raise InfeasibleDesign(
            "target Gamma demands r2 beyond the saturation ceiling gamma3",
            constraint="r2_saturation",
        )

    # weak-field closed form
    ratio = r2_req / r1_req
    tan2 = ratio * l0 / (lp + lm)
    alpha = math.atan(math.sqrt(tan2))
    i0 = 2.0 * r1_req / (math.cos(alpha) ** 2 * l0 * g3)

    # damped Newton on the exact saturating rates
    x = np.array([math.log(i0), alpha])
    req = np.array([r1_req, r2_req])

    def f(x):
        return _exact_rates(template, math.exp(x[0]), x[1], zeeman) / req - 1.0

    fx = f(x)
    for _ in range(_MAX_NEWTON_ITER):
        if np.max(np.abs(fx)) < _REL_TOL:
            break
        jac = np.empty((2, 2))
        for j, h in enumerate((1e-7, 1e-7)):
            xp = x.copy()
            xp[j] += h
            jac[:, j] = (f(xp) - fx) / h
        try:
            step = np.linalg.solve(jac, -fx)
        except np.linalg.LinAlgError:
            break
        scale = 1.0
        for _damp in range(20):
            xn = x + scale * step
            xn[1] = min(max(xn[1], 0.0), math.pi / 2)
            fn = f(xn)
            if np.max(np.abs(fn)) < np.max(np.abs(fx)):
                x, fx = xn, fn
                break
            scale /= 2.0

    i0, alpha = math.exp(x[0]), x[1]
    if np.max(np.abs(fx)) > 1e-4:
        raise InfeasibleDesign(
            "exact-rate correction did not converge to the target",
            constraint="convergence",
        )
    lo, hi = target.i0_bounds
    if not lo <= i0 <= hi:
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


def design_decoherence(
    target: DesignTarget, params_template: PhysicalParams
) -> tuple[float, float, float]:
    """Return (i0, alpha, zeeman_delta) realizing the target rates.

    The template fixes gamma3, laser detuning, microwave Rabi frequency,
    and any extra dephasing.  By default the Zeeman splitting is held at
    the template value; with optimize_b the splitting is chosen inside
    b_bounds to minimize the required light level.
    """
    if not target.optimize_b:
        zeeman = params_template.zeeman_delta
        i0, alpha = _solve_fixed_b(target, params_template, zeeman)
        return i0, alpha, zeeman

    lo, hi = target.b_bounds

    def required_i0(z):
        try:
            i0, _ = _solve_fixed_b(target, params_template, z)
            return i0
        except InfeasibleDesign:
            return math.inf

    if hi <= lo:
        zeeman = lo
    else:
        from scipy.optimize import minimize_scalar  # only this branch needs scipy

        res = minimize_scalar(required_i0, bounds=(lo, hi), method="bounded")
        zeeman = float(res.x)
    if not math.isfinite(required_i0(zeeman)):
        raise InfeasibleDesign(
            "no feasible Zeeman splitting within b_bounds", constraint="b_bounds"
        )
    i0, alpha = _solve_fixed_b(target, params_template, zeeman)
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
