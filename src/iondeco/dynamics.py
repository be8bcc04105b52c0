"""Time evolution of the driven four-level system.

Two model variants, named in MODELS:

* the full hybrid model: coherent microwave dynamics on 0-1 (Bloch
  variables u, v) coupled to optical pumping through levels 2 and 3 via
  rate equations,
* an adiabatic variant with the optical level eliminated (valid far
  below saturation; removes the stiffness gamma3 >> Omega).

State vector order is [u, v, n0, n1, n2, n3] with u = 2 Re rho01,
v = 2 Im rho01 in the microwave rotating frame.  The adiabatic model
evolves its first five entries; `integrate` returns all six, with the
quasi-static n3 rebuilt for the adiabatic model.

Every variant is linear and time-invariant, dy/dt = A y, with A fixed by
(params, rates).  Evolution on a uniform grid of step h is therefore exact:
one propagator P = expm(A h) (Moler & Van Loan, SIAM Rev. 45 (2003)),
applied by doubling: the states at points m..2m-1 are those at 0..m-1
times P^m, and P^m is squared between blocks, so n points take about
2 log2(n) small matrix products.  expm is numpy-only Pade-13 with scaling
and squaring (Higham, SIAM J. Matrix Anal. Appl. 26 (2005)), so evolution
needs no scipy.  No eigendecomposition is used: A is defective at zero
light and at Omega = 0.  Every variant conserves the populations it
evolves; its step matrix and every square of it are made to conserve them
to rounding, so the trace does not drift along the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OutOfRange, RegimeViolation
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


# model -> (size, terms): the generator is the sum of its terms, each a named
# physical rate times a constant matrix, given as (row, column, entry)s.
_COHERENT = (
    ("omega_mw", ((1, 2, 1.0), (1, 3, -1.0), (2, 1, -0.5), (3, 1, 0.5))),
    ("delta_mw", ((0, 1, -1.0), (1, 0, 1.0))),
    ("gamma_c", ((0, 0, -1.0), (1, 1, -1.0))),
)
_TERMS = {
    "full": (6, _COHERENT + (
        ("r1", ((3, 3, -1.0), (5, 3, 1.0))),
        ("r2", ((4, 4, -1.0), (5, 4, 1.0))),
        ("beta1_gamma3", ((3, 5, 1.0), (5, 5, -1.0))),
        ("beta2_gamma3", ((4, 5, 1.0), (5, 5, -1.0))),
    )),
    "adiabatic": (5, _COHERENT + (
        ("beta2_r1", ((3, 3, -1.0), (4, 3, 1.0))),
        ("beta1_r2", ((3, 4, 1.0), (4, 4, -1.0))),
    )),
}
MODELS = tuple(_TERMS)  # the model variants `generator` and `integrate` take


def generator(
    params: PhysicalParams, rates: ScatteringRates, model: str = "full"
) -> np.ndarray:
    """Generator A of dy/dt = A y, the sum of the model's terms in _TERMS
    (ValueError for another model).  The population rows of every term sum
    to exactly 0 in each column, so A conserves the populations' sum.

    "full", 6x6 on [u, v, n0, n1, n2, n3]: the microwave drive (Omega,
    detuning delta_mw) couples 0-1 only; light pumps 1 -> 3 at r1 and 2 -> 3
    at r2; level 3 decays to 1 and 2 at beta1 gamma3 and beta2 gamma3.  The
    0-1 coherence decays at gamma_c = r1 + gamma_ph_extra, i.e. all
    scattering out of state 1 carries full dephasing weight.
    "adiabatic", 5x5 on [u, v, n0, n1, n2], n3 eliminated: the scattered
    flux redistributes instantly, 1 -> 2 at beta2 r1 and 2 -> 1 at beta1 r2.
    """
    import numpy as np

    if model not in _TERMS:
        raise ValueError(f"unknown model variant {model!r}")
    p, r = params, rates
    rate = {"omega_mw": p.omega_mw, "delta_mw": p.delta_mw,
            "gamma_c": r.r1 + p.gamma_ph_extra, "r1": r.r1, "r2": r.r2,
            "beta1_gamma3": p.beta1 * p.gamma3, "beta2_gamma3": p.beta2 * p.gamma3,
            "beta2_r1": p.beta2 * r.r1, "beta1_r2": p.beta1 * r.r2}
    size, terms = _TERMS[model]
    A = np.zeros((size, size))
    for name, entries in terms:
        for i, j, entry in entries:
            A[i, j] += entry * rate[name]
    return A


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

    The grid is filled by doubling: with P = expm(A h)^m, the block
    ys[m:2m] is ys[0:m] @ P^T, and P is squared between blocks, so n points
    take about log2(n) block products and as many squarings, and each state
    passes through at most ceil(log2 n) rounded products.

    The entries from _FIRST_POPULATION on are populations whose sum A
    conserves.  The last population row of the step and of each square is
    rebuilt from the others, so every propagator conserves that sum to
    rounding however large |A h| is.
    """
    import numpy as np

    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a non-empty 1-d array")
    n = t_grid.size
    h = (t_grid[-1] - t_grid[0]) / max(n - 1, 1)
    rounding = 4 * np.finfo(float).eps * np.abs(t_grid).max()
    if np.any(np.abs(np.diff(t_grid) - h) > _GRID_TOLERANCE * abs(h) + rounding):
        raise ValueError("t_grid must be uniformly spaced")

    e = np.zeros(len(A))
    e[_FIRST_POPULATION:] = 1.0

    def conserving(P):
        P[-1] = e - P[_FIRST_POPULATION:-1].sum(axis=0)
        return P

    ys = np.empty((n, len(A)))
    ys[0] = y0
    # a state beyond the float range is left inf or nan for integrate to report
    with np.errstate(over="ignore", invalid="ignore"):
        # expm(A * 0) is exactly the identity, so a grid from 0 skips it.  A
        # grid from h takes its first row in the blocks' product form, so it
        # equals row 1 of a grid from 0 bit for bit.
        if t_grid[0] != 0:
            ys[:1] = ys[:1] @ conserving(_expm(A * t_grid[0])).T
        P = conserving(_expm(A * h))
        m = 1
        while m < n:
            k = min(m, n - m)
            ys[m:m + k] = ys[:k] @ P.T
            m += k
            if m < n:
                P = conserving(P @ P)
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
    adiabatic model.  The adiabatic model raises ValueError when
    `initial.n3` is not 0, a population it cannot hold, and RegimeViolation
    when any Zeeman component is driven beyond I(m)*L(m) = 0.1, where the
    elimination is unjustified.

    Raises OutOfRange when a propagated state is not finite or a population
    leaves [0, 1] by more than _POPULATION_SLACK: the step overflowed or
    lost its accuracy (for example |A h| near the float range).
    """
    import numpy as np

    if model == "adiabatic":
        if initial.n3 != 0:
            raise ValueError("the adiabatic model holds no n3: start it from n3 = 0")
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
