"""Time evolution of the driven four-level system.

Three model variants:

* the full hybrid model: coherent microwave dynamics on 0-1 (Bloch
  variables u, v) coupled to optical pumping through levels 2 and 3 via
  rate equations,
* an adiabatic variant with the optical level eliminated (valid far
  below saturation; removes the stiffness gamma3 >> Omega),
* the effective two-level model of the 0-1 qubit alone, with transverse
  rate gamma = r1 + gamma_ph_extra and longitudinal rate Gamma = Omega^2/r2
  (model.effective_rates), the longitudinal fixed point sitting at the
  *excited* state 1.

State vector order is [u, v, n0, n1, n2, n3] with u = 2 Re rho01,
v = 2 Im rho01 in the microwave rotating frame.  The adiabatic model
evolves its first five entries and the two-level model its first four;
`integrate` returns all six, with the quasi-static n3 rebuilt for the
adiabatic model and n2 = n3 = 0 for the two-level model.

Every variant is linear and time-invariant, dy/dt = A y, with A fixed by
(params, rates).  Evolution on a uniform grid of step h is therefore exact:
one propagator P = expm(A h) and one mat-vec per grid point (Moler & Van
Loan, SIAM Rev. 45 (2003)).  expm is numpy-only Pade-13 with scaling and
squaring (Higham, SIAM J. Matrix Anal. Appl. 26 (2005)), so evolution
needs no scipy.  No eigendecomposition is used: A is defective at zero
light and at Omega = 0.  Every variant conserves the populations it
evolves; its step matrix is made to conserve them to rounding, so the
trace does not drift over many steps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateRates, OutOfRange, RegimeViolation
from .model import (PhysicalParams, ScatteringRates, effective_rates, light_flux,
                    lorentzian)

_ADIABATIC_SATURATION_LIMIT = 0.1

# Largest deviation of a grid step from uniform, relative to the step, on
# top of the rounding of the time points themselves.
_GRID_TOLERANCE = 1e-9

# Pade-13 numerator coefficients b_0..b_13, and the 1-norm theta_13 up to
# which the unscaled approximant has backward error below the unit roundoff
# of double precision (Higham 2005).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
    16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152

# The population variables start at this index in the state vector of every
# model variant: [u, v, n0, ...].
_FIRST_POPULATION = 2

# How far a propagated population may stray outside [0, 1].  Exact
# propagation stays within about 1e-12 of it; a state beyond this bound has
# lost its accuracy.
_POPULATION_SLACK = 1e-9


@dataclass(frozen=True)
class SystemState:
    """Populations of levels 0..3 plus the 0-1 coherence components."""

    u: float = 0.0
    v: float = 0.0
    n0: float = 1.0
    n1: float = 0.0
    n2: float = 0.0
    n3: float = 0.0

    def as_vector(self) -> np.ndarray:
        import numpy as np

        return np.array([self.u, self.v, self.n0, self.n1, self.n2, self.n3])


@dataclass(frozen=True)
class TimeSeries:
    """Sampled solution: t of shape (n,), y of shape (n, 6)."""

    t: np.ndarray
    y: np.ndarray

    @property
    def p1(self) -> np.ndarray:
        return self.y[:, 3] + self.y[:, 4]

    @property
    def trace(self) -> np.ndarray:
        return self.y[:, 2:].sum(axis=1)


def generator(
    params: PhysicalParams, rates: ScatteringRates, model: str = "full"
) -> np.ndarray:
    """Generator A of the equations of motion dy/dt = A y.

    model "full": 6x6 on [u, v, n0, n1, n2, n3].  Microwave drive couples
    0-1 only; light pumps 1 -> 3 at r1 and 2 -> 3 at r2; level 3 decays to
    1 and 2 with branching beta1:beta2.  The 0-1 coherence decays at
    gamma_c = r1 + gamma_ph_extra, i.e. all scattering out of state 1
    carries full dephasing weight.

    model "adiabatic": 5x5 on [u, v, n0, n1, n2], n3 eliminated: the
    scattered flux r1*n1 + r2*n2 redistributes instantly.

    model "two-level": 4x4 on [u, v, n0, n1], the Bloch equations of the
    0-1 qubit with gamma_eff and Gamma_eff = Omega^2/r2 from
    model.effective_rates: the coherence decays at gamma_eff and Gamma_eff
    pumps 0 -> 1.  Raises DegenerateRates when r2 = 0 (no longitudinal
    channel) and ValueError when gamma_eff < Gamma_eff/2 (not a physical
    qubit channel).

    Each population diagonal entry is minus the rates out of that level, so
    the population columns sum to exactly 0 in floating point.
    """
    import numpy as np

    om = params.omega_mw
    dmw = params.delta_mw
    gc = rates.r1 + params.gamma_ph_extra
    r1, r2 = rates.r1, rates.r2
    b1, b2 = params.beta1, params.beta2
    if model == "full":
        g3 = params.gamma3
        return np.array(
            [
                [-gc, -dmw, 0.0, 0.0, 0.0, 0.0],
                [dmw, -gc, om, -om, 0.0, 0.0],
                [0.0, -0.5 * om, 0.0, 0.0, 0.0, 0.0],
                [0.0, 0.5 * om, 0.0, -r1, 0.0, b1 * g3],
                [0.0, 0.0, 0.0, 0.0, -r2, b2 * g3],
                [0.0, 0.0, 0.0, r1, r2, -(b1 * g3 + b2 * g3)],
            ]
        )
    if model == "adiabatic":
        return np.array(
            [
                [-gc, -dmw, 0.0, 0.0, 0.0],
                [dmw, -gc, om, -om, 0.0],
                [0.0, -0.5 * om, 0.0, 0.0, 0.0],
                [0.0, 0.5 * om, 0.0, -b2 * r1, b1 * r2],
                [0.0, 0.0, 0.0, b2 * r1, -b1 * r2],
            ]
        )
    if model == "two-level":
        eff = effective_rates(params, rates)
        if eff.Gamma_eff is None:
            raise DegenerateRates("r2 = 0: the two-level model has no longitudinal rate")
        gamma, Gamma = eff.gamma_eff, eff.Gamma_eff
        if not gamma >= Gamma / 2.0:
            raise ValueError("unphysical rates: gamma_eff must be >= Gamma_eff/2")
        return np.array(
            [
                [-gamma, -dmw, 0.0, 0.0],
                [dmw, -gamma, om, -om],
                [0.0, -0.5 * om, -Gamma, 0.0],
                [0.0, 0.5 * om, Gamma, 0.0],
            ]
        )
    raise ValueError(f"unknown model variant {model!r}")


def _expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential by Pade-13 scaling and squaring (Higham 2005).

    The squaring works on X = R - I, as R^2 - I = 2X + X^2.  Squaring R
    itself rounds entries near 1 at 1e-16, and s squarings amplify that by
    2^s (about 1e4 for a stiff full-model step) in the slow modes, whose
    part of X is small and so rounds at its own scale.
    """
    import numpy as np

    b = _PADE13
    norm = np.linalg.norm(M, 1)
    if not np.isfinite(norm):
        raise OutOfRange("matrix exponential of a step |A h| beyond the float range")
    s = int(np.ceil(np.log2(norm / _THETA13))) if norm > _THETA13 else 0
    M = M / 2.0**s
    eye = np.eye(len(M))
    M2 = M @ M
    M4 = M2 @ M2
    M6 = M4 @ M2
    U = M @ (M6 @ (b[13] * M6 + b[11] * M4 + b[9] * M2)
             + b[7] * M6 + b[5] * M4 + b[3] * M2 + b[1] * eye)
    V = (M6 @ (b[12] * M6 + b[10] * M4 + b[8] * M2)
         + b[6] * M6 + b[4] * M4 + b[2] * M2 + b[0] * eye)
    X = np.linalg.solve(V - U, 2.0 * U)  # (V - U)^-1 (V + U) - I
    for _ in range(s):
        X = 2.0 * X + X @ X
    return X + eye


def _propagate(A: np.ndarray, y0, t_grid: np.ndarray) -> np.ndarray:
    """States expm(A t) @ y0 at the points of a uniform grid, shape (n, len(y0)).

    The entries from _FIRST_POPULATION on are populations whose sum A
    conserves.  The last population row of each propagator is rebuilt from
    the others, so the propagator conserves that sum to rounding however
    large |A h| is.
    """
    import numpy as np

    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a non-empty 1-d array")
    h = (t_grid[-1] - t_grid[0]) / max(t_grid.size - 1, 1)
    rounding = 4 * np.finfo(float).eps * np.abs(t_grid).max()
    if np.any(np.abs(np.diff(t_grid) - h) > _GRID_TOLERANCE * abs(h) + rounding):
        raise ValueError("t_grid must be uniformly spaced")

    def propagator(t):
        P = _expm(A * t)
        e = np.zeros(len(A))
        e[_FIRST_POPULATION:] = 1.0
        P[-1] = e - P[_FIRST_POPULATION:-1].sum(axis=0)
        return P

    y0 = np.asarray(y0, dtype=float)
    ys = np.empty((t_grid.size, len(y0)))
    # a state beyond the float range is left inf or nan for integrate to report
    with np.errstate(over="ignore", invalid="ignore"):
        # expm(A * 0) is exactly the identity, so a grid from 0 skips it
        ys[0] = y0 if t_grid[0] == 0 else propagator(t_grid[0]) @ y0
        step = propagator(h)
        for i in range(1, t_grid.size):
            ys[i] = step @ ys[i - 1]
    return ys


def integrate(
    initial: SystemState,
    params: PhysicalParams,
    rates: ScatteringRates,
    t_grid,
    model: str = "full",
) -> TimeSeries:
    """Evolve model variant `model` (see generator) from `initial` at t = 0
    to the points of the uniform time grid t_grid (ValueError otherwise).

    The variant evolves the first len(A) entries of `initial`; the returned
    series has all six columns, with the quasi-static n3 rebuilt for the
    adiabatic model and n2 = n3 = 0 for the two-level model.  The
    adiabatic model raises RegimeViolation when any Zeeman component is
    driven beyond I(m)*L(m) = 0.1, where the elimination is unjustified.

    Raises OutOfRange when a propagated state is not finite or a population
    leaves [0, 1] by more than _POPULATION_SLACK: the step overflowed or
    lost its accuracy (for example |A h| near the float range).
    """
    import numpy as np

    if model == "adiabatic":
        for m in (-1, 0, +1):
            if light_flux(params, m) * lorentzian(params, m) > _ADIABATIC_SATURATION_LIMIT:
                raise RegimeViolation(
                    f"I({m:+d})*L({m:+d}) > {_ADIABATIC_SATURATION_LIMIT}: adiabatic "
                    "elimination of the optical level is unjustified"
                )
    t_grid = np.asarray(t_grid, dtype=float)
    A = generator(params, rates, model)
    ys = np.zeros((t_grid.size, 6))
    ys[:, :len(A)] = _propagate(A, initial.as_vector()[:len(A)], t_grid)
    if model == "adiabatic":
        ys[:, 5] = (rates.r1 * ys[:, 3] + rates.r2 * ys[:, 4]) / params.gamma3
    pops = ys[:, _FIRST_POPULATION:]
    if not (np.isfinite(ys).all() and pops.min() >= -_POPULATION_SLACK
            and pops.max() <= 1.0 + _POPULATION_SLACK):
        raise OutOfRange("propagation lost accuracy: a state is not finite or a "
                         "population left [0, 1]")
    return TimeSeries(t=t_grid, y=ys)
