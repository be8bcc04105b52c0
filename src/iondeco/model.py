"""Closed-form model of light-induced relaxation on a hyperfine qubit.

Level scheme: 0 and 1 are the microwave-driven clock states (F=0 and
F=1, m_F=0), level 2 lumps the F=1, m_F=+-1 Zeeman sublevels, level 3 is
the optical resonance level (P_1/2).  Weak resonance light scatters the
ion out of states 1 and 2 at rates r1 and r2; these translate into an
effective transverse rate gamma = r1 (+ any extra dephasing) and an
effective longitudinal rate Gamma = Omega^2 / r2 for the 0-1 qubit, the
longitudinal channel pulling the ion toward the *excited* state 1.

All rates and (angular) frequencies are in rad/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateRates, OutOfRange

#: conversion factor from the 2*pi x kHz reporting convention to rad/s
TWO_PI_KHZ = 2.0 * math.pi * 1e3


def _fold_alpha(alpha: float) -> float:
    """Reduce the polarization angle to [0, pi/2]; only sin^2/cos^2 enter."""
    a = math.fmod(abs(alpha), math.pi)
    if a > math.pi / 2:
        a = math.pi - a
    return a


@dataclass(frozen=True)
class PhysicalParams:
    """Laboratory knobs and atomic constants.

    omega_mw : microwave Rabi frequency Omega
    delta_mw : microwave detuning from the 0-1 resonance (0 = on resonance)
    i0       : saturation-normalized light flux density at the ion
    alpha    : angle between light polarization and magnetic field (rad)
    delta_laser : laser detuning, light frequency minus optical resonance
                  frequency (negative = red detuned)
    zeeman_delta : Zeeman splitting g_F * mu_B * B / hbar, with g_F = 1
    gamma3   : energy relaxation rate of the optical resonance level
    gamma_ph_extra : extra microwave-coherence dephasing of non-optical origin
    beta1, beta2 : branching ratios of level-3 decay into levels 1 and 2
    """

    omega_mw: float
    gamma3: float
    i0: float = 0.0
    alpha: float = 0.0
    delta_mw: float = 0.0
    delta_laser: float = 0.0
    zeeman_delta: float = 0.0
    gamma_ph_extra: float = 0.0
    beta1: float = 1.0 / 3.0
    beta2: float = 2.0 / 3.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if not self.gamma3 > 0:
            raise ValueError("gamma3 must be positive")
        if self.i0 < 0:
            raise ValueError("i0 must be nonnegative")
        if not (0 <= self.beta1 <= 1 and 0 <= self.beta2 <= 1):
            raise ValueError("branching ratios must lie in [0, 1]")
        if abs(self.beta1 + self.beta2 - 1.0) > 1e-12:
            raise ValueError("branching ratios must sum to 1")
        if self.gamma_ph_extra < 0:
            raise ValueError("dephasing rate must be nonnegative")
        object.__setattr__(self, "alpha", _fold_alpha(self.alpha))


@dataclass(frozen=True)
class ScatteringRates:
    """Per-atom scattering rates out of states 1 and 2.

    p3_mean holds the mean excited-state populations for the Zeeman
    components m = (-1, 0, +1), in that order.
    """

    r1: float
    r2: float
    p3_mean: tuple[float, float, float]

    def __post_init__(self):
        if not (0 <= self.r1 < math.inf and 0 <= self.r2 < math.inf):
            raise ValueError("scattering rates must be finite and nonnegative")
        if any(not (0 <= p <= 0.5) for p in self.p3_mean):
            raise ValueError("excited populations must lie in [0, 1/2]")


@dataclass(frozen=True)
class EffectiveRates:
    """Two-level abstraction of the light-induced relaxation.

    Gamma_eff and p1_inf are None when the corresponding scattering
    channel vanishes (r2 = 0 resp. r1 = 0): no energy-relaxation channel
    exists (infinite T1) resp. no flow equilibrium defines a saturation
    level.  They are reported absent rather than as NaN.
    """

    gamma_eff: float
    Gamma_eff: float | None
    p1_inf: float | None


def line_shape(gamma3: float, detuning: float) -> float:
    """Lorentzian (gamma3/2)^2 / ((gamma3/2)^2 + detuning^2); 1 on resonance."""
    half = gamma3 / 2.0
    return half * half / (half * half + detuning * detuning)


def lorentzian(params: PhysicalParams, m: int) -> float:
    """Excitation Lorentzian L(B, m) of the Zeeman component m in {-1, 0, +1}.

    With delta_laser = light frequency - resonance frequency, the detuning
    entering the line shape is (-delta_laser + m * zeeman_delta).
    """
    return line_shape(params.gamma3, -params.delta_laser + m * params.zeeman_delta)


def light_flux(params: PhysicalParams, m: int) -> float:
    """Flux density driving the Zeeman component m: I(0) = I0 cos^2(alpha),
    I(+-1) = I0 sin^2(alpha)."""
    if m == 0:
        # folded alpha hits pi/2 exactly for orthogonal polarization; snap
        # the cosine so the pi channel closes exactly
        if params.alpha == math.pi / 2:
            return 0.0
        return params.i0 * math.cos(params.alpha) ** 2
    return params.i0 * math.sin(params.alpha) ** 2


def excited_population(params: PhysicalParams, m: int) -> float:
    """Mean population of the optical resonance level for component m,
    (1/2) * I(m) L / (1 + I(m) L); bounded by 1/2."""
    x = light_flux(params, m) * lorentzian(params, m)
    return 0.5 * x / (1.0 + x)


def scattering_rates(params: PhysicalParams) -> ScatteringRates:
    """Per-atom scattering rates r1 (out of state 1, pi component) and
    r2 (out of state 2, sum of both sigma components)."""
    p_minus = excited_population(params, -1)
    p_zero = excited_population(params, 0)
    p_plus = excited_population(params, +1)
    return ScatteringRates(
        r1=p_zero * params.gamma3,
        r2=(p_plus + p_minus) * params.gamma3,
        p3_mean=(p_minus, p_zero, p_plus),
    )


def steady_state(rates: ScatteringRates) -> tuple[float, float, float]:
    """Ground-manifold flow equilibrium (n0, n1, n2) under drive + scattering.

    n2 = r1/(r1+r2); microwave dephasing equalizes n0 = n1 = (1-n2)/2.
    """
    if rates.r1 + rates.r2 == 0:
        raise DegenerateRates("no scattering: flow equilibrium undefined")
    n2 = rates.r1 / (rates.r1 + rates.r2)
    n01 = (1.0 - n2) / 2.0
    return (n01, n01, n2)


def saturation_probability(rates: ScatteringRates) -> float:
    """Long-time probability of finding the ion in the probed F=1 manifold,
    1 - (1/2) * (r2/r1) / (1 + r2/r1); lies in (1/2, 1]."""
    if rates.r1 == 0:
        raise DegenerateRates("r1 = 0: saturation level undefined")
    ratio = rates.r2 / rates.r1
    return 1.0 - 0.5 * ratio / (1.0 + ratio)


def effective_rates(params: PhysicalParams, rates: ScatteringRates) -> EffectiveRates:
    """Map scattering rates onto the effective two-level rates.

    gamma_eff = r1 + gamma_ph_extra.  Gamma_eff = Omega^2 / r2 (the
    dimensionally consistent form of the energy-relaxation identification;
    see README).  Absent channels are reported as None.  Raises OutOfRange
    when a rate exceeds the float range (Omega^2 itself, or over a
    subnormal r2).
    """
    gamma_eff = rates.r1 + params.gamma_ph_extra
    try:
        Gamma_eff = params.omega_mw**2 / rates.r2 if rates.r2 > 0 else None
    except OverflowError:
        Gamma_eff = math.inf
    if gamma_eff == math.inf or Gamma_eff == math.inf:
        raise OutOfRange("effective rate beyond the float range")
    p1_inf = saturation_probability(rates) if rates.r1 > 0 else None
    return EffectiveRates(gamma_eff=gamma_eff, Gamma_eff=Gamma_eff, p1_inf=p1_inf)
