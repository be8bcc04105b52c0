"""Time evolution of the driven four-level system.

Three model variants:

* the full hybrid model: coherent microwave dynamics on 0-1 (Bloch
  variables u, v) coupled to optical pumping through levels 2 and 3 via
  rate equations,
* an adiabatic variant with the optical level eliminated (valid far
  below saturation; removes the stiffness gamma3 >> Omega),
* the effective two-level model with rates (gamma, Gamma), the
  longitudinal fixed point sitting at the *excited* state 1.

State vector order is [u, v, n0, n1, n2, n3] with u = 2 Re rho01,
v = 2 Im rho01 in the microwave rotating frame.

Every variant is linear and time-invariant, dy/dt = A y, with A fixed by
(params, rates).  Evolution on a uniform grid of step h is therefore exact:
one propagator P = expm(A h) and one mat-vec per grid point (Moler & Van
Loan, SIAM Rev. 45 (2003)).  expm is numpy-only Pade-13 with scaling and
squaring (Higham, SIAM J. Matrix Anal. Appl. 26 (2005)), so evolution
needs no scipy.  No eigendecomposition is used: A is defective at zero
light and at Omega = 0.  The full and adiabatic models conserve the
populations n0..n3 (n0..n2); their step matrix is made to conserve them
to rounding, so the trace does not drift over many steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RegimeViolation
from .model import PhysicalParams, ScatteringRates, light_flux, lorentzian

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

# The population variables start at this index in the full and adiabatic
# state vectors: [u, v, n0, ...].
_FIRST_POPULATION = 2


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
        return np.array([self.u, self.v, self.n0, self.n1, self.n2, self.n3])

    @classmethod
    def from_vector(cls, y) -> "SystemState":
        return cls(*(float(x) for x in y))

    @property
    def trace(self) -> float:
        return self.n0 + self.n1 + self.n2 + self.n3

    @property
    def p1(self) -> float:
        """Probability of the probed F=1 manifold (levels 1 and 2)."""
        return self.n1 + self.n2


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

    def state(self, i: int) -> SystemState:
        return SystemState.from_vector(self.y[i])


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

    Each population diagonal entry is minus the rates out of that level, so
    the population columns sum to exactly 0 in floating point.
    """
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
    raise ValueError(f"unknown model variant {model!r}")


def _expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential by Pade-13 scaling and squaring (Higham 2005).

    The squaring works on X = R - I, as R^2 - I = 2X + X^2.  Squaring R
    itself rounds entries near 1 at 1e-16, and s squarings amplify that by
    2^s (about 1e4 for a stiff full-model step) in the slow modes, whose
    part of X is small and so rounds at its own scale.
    """
    b = _PADE13
    norm = np.linalg.norm(M, 1)
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


def _propagate(
    A: np.ndarray, y0, t_grid: np.ndarray, conserving: bool = True
) -> np.ndarray:
    """States expm(A t) @ y0 at the points of a uniform grid, shape (n, len(y0)).

    conserving: the entries from _FIRST_POPULATION on are populations whose
    sum A conserves.  The last population row of each propagator is then
    rebuilt from the others, so the propagator conserves that sum to
    rounding however large |A h| is.
    """
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a non-empty 1-d array")
    h = (t_grid[-1] - t_grid[0]) / max(t_grid.size - 1, 1)
    rounding = 4 * np.finfo(float).eps * np.abs(t_grid).max()
    if np.any(np.abs(np.diff(t_grid) - h) > _GRID_TOLERANCE * abs(h) + rounding):
        raise ValueError("t_grid must be uniformly spaced")

    def propagator(t):
        P = _expm(A * t)
        if conserving:
            e = np.zeros(len(A))
            e[_FIRST_POPULATION:] = 1.0
            P[-1] = e - P[_FIRST_POPULATION:-1].sum(axis=0)
        return P

    y0 = np.asarray(y0, dtype=float)
    ys = np.empty((t_grid.size, len(y0)))
    # expm(A * 0) is exactly the identity, so a grid from 0 skips it
    ys[0] = y0 if t_grid[0] == 0 else propagator(t_grid[0]) @ y0
    step = propagator(h)
    for i in range(1, t_grid.size):
        ys[i] = step @ ys[i - 1]
    return ys


def derivative(
    state: SystemState, params: PhysicalParams, rates: ScatteringRates
) -> SystemState:
    """Right-hand side A y of the four-level equations of motion."""
    return SystemState.from_vector(generator(params, rates) @ state.as_vector())


def integrate(
    initial: SystemState,
    params: PhysicalParams,
    rates: ScatteringRates,
    t_grid,
) -> TimeSeries:
    """Evolve the full four-level model from `initial` at t = 0 to the
    points of the uniform time grid t_grid (ValueError otherwise)."""
    t_grid = np.asarray(t_grid, dtype=float)
    ys = _propagate(generator(params, rates, "full"), initial.as_vector(), t_grid)
    return TimeSeries(t=t_grid, y=ys)


def integrate_adiabatic(
    initial: SystemState,
    params: PhysicalParams,
    rates: ScatteringRates,
    t_grid,
) -> TimeSeries:
    """Evolve the reduced five-variable model (optical level eliminated)
    from `initial` at t = 0 to the points of the uniform grid t_grid.

    Raises RegimeViolation when any Zeeman component is driven beyond
    I(m)*L(m) = 0.1, where the elimination is unjustified.  The returned
    series carries the reconstructed quasi-static n3 in its last column.
    """
    for m in (-1, 0, +1):
        if light_flux(params, m) * lorentzian(params, m) > _ADIABATIC_SATURATION_LIMIT:
            raise RegimeViolation(
                f"I({m:+d})*L({m:+d}) > {_ADIABATIC_SATURATION_LIMIT}: adiabatic "
                "elimination of the optical level is unjustified"
            )
    t_grid = np.asarray(t_grid, dtype=float)
    A = generator(params, rates, "adiabatic")
    ys5 = _propagate(A, initial.as_vector()[:5], t_grid)
    n3 = (rates.r1 * ys5[:, 3] + rates.r2 * ys5[:, 4]) / params.gamma3
    return TimeSeries(t=t_grid, y=np.column_stack([ys5, n3]))


def integrate_effective_two_level(
    initial: tuple[float, float, float],
    gamma_eff: float,
    Gamma_eff: float,
    omega_mw: float,
    t_grid,
    delta_mw: float = 0.0,
) -> TimeSeries:
    """Effective two-level Bloch evolution with transverse rate gamma and
    longitudinal rate Gamma decaying into the excited state.

    initial is (w, u, v) with w = n1 - n0, at t = 0; t_grid is uniform.
    Returns a TimeSeries whose populations columns hold n0 = (1-w)/2,
    n1 = (1+w)/2, n2 = n3 = 0, so p1 has its usual meaning.  On resonance
    the stationary point is P1 = 1 - (1/2) I/(1+I) with
    I = Omega^2/(Gamma*gamma).
    """
    if not gamma_eff >= Gamma_eff / 2.0:
        raise ValueError("unphysical rates: gamma_eff must be >= Gamma_eff/2")
    # [w, u, v, 1]: the constant component carries the pull of w toward +1
    A = np.array(
        [
            [-Gamma_eff, 0.0, omega_mw, Gamma_eff],
            [0.0, -gamma_eff, -delta_mw, 0.0],
            [-omega_mw, delta_mw, -gamma_eff, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )
    t_grid = np.asarray(t_grid, dtype=float)
    ys = _propagate(A, [*initial, 1.0], t_grid, conserving=False)
    w, u, v = ys[:, 0], ys[:, 1], ys[:, 2]
    zero = np.zeros_like(w)
    y6 = np.column_stack([u, v, (1 - w) / 2, (1 + w) / 2, zero, zero])
    return TimeSeries(t=t_grid, y=y6)
