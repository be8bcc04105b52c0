"""Recover nutation parameters from P1(tau) curves and map them back to
effective relaxation rates.

The fitted model is a damped cosine over a constant plateau,

    P1(tau) = p_inf + A * exp(-lambda*tau) * cos(Omega*tau + phi).

Fitting happens in a normalized time variable (tau / span), which makes
the estimator exactly equivariant under uniform time rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateRates, OscillationUnresolved, OutOfRange
from .model import EffectiveRates


@dataclass(frozen=True)
class NutationFit:
    omega_fit: float      # rad/s
    lambda_fit: float     # rad/s, envelope decay
    p_inf_fit: float      # plateau
    amplitude: float
    phase: float          # rad
    residual_rms: float
    converged: bool
    iterations: int


def _spectral_peak(t: np.ndarray, y: np.ndarray) -> float:
    """Dominant angular frequency of a (near) uniformly sampled signal,
    parabolic interpolation around the FFT peak."""
    import numpy as np

    dt = np.mean(np.diff(t))
    yf = np.abs(np.fft.rfft(y - y.mean()))
    if len(yf) < 3:
        raise OscillationUnresolved("too few samples for a spectral estimate")
    k = int(np.argmax(yf[1:]) + 1)
    # refine peak position by parabolic interpolation where neighbours exist
    if 1 <= k < len(yf) - 1:
        a, b, c = yf[k - 1], yf[k], yf[k + 1]
        denom = a - 2 * b + c
        if denom != 0:
            k = k + 0.5 * (a - c) / denom
    return 2 * math.pi * k / (len(y) * dt)


def _residual(x, s, y, w):
    """Weighted residual of the damped cosine x = (omega, lambda, p_inf,
    amplitude, phase) in normalized time s; w = None means unit weights."""
    import numpy as np

    om, lam, pi_, amp, phi = x
    r = pi_ + amp * np.exp(-lam * s) * np.cos(om * s + phi) - y
    return r if w is None else r * w


def _jacobian(x, s, y, w):
    """Analytic Jacobian of _residual, one column per parameter."""
    import numpy as np

    om, lam, _, amp, phi = x
    e = np.exp(-lam * s)
    ec, es = e * np.cos(om * s + phi), e * np.sin(om * s + phi)
    J = np.column_stack([-amp * s * es, -amp * s * ec, np.ones_like(s), ec, -amp * es])
    return J if w is None else J * w[:, None]


def _envelope(x: np.ndarray) -> np.ndarray:
    """Modulus of the analytic signal of x: FFT, weights 1 (zero and, for
    even lengths, Nyquist frequency), 2 (positive) and 0 (negative), IFFT."""
    import numpy as np

    n = len(x)
    h = np.zeros(n)
    h[0] = 1.0
    h[1:(n + 1) // 2] = 2.0
    if n % 2 == 0:
        h[n // 2] = 1.0
    return np.abs(np.fft.ifft(np.fft.fft(x) * h))


def _levenberg_marquardt(x0, s, y, w, max_iter, tol=1e-8):
    """Minimize sum(_residual**2) from x0 subject to omega, lambda >= 0.

    Each step solves the Marquardt-scaled normal equations
    (J'J + mu D) d = -J'r (Moré 1978) and is projected onto the bounds; a
    bounded parameter at 0 whose gradient points outward is held there.  mu
    follows Nielsen's gain-ratio update.  D is diag(J'J) floored at 1e-10
    of its largest entry: at 2 samples per period the omega and phase
    columns vanish, and unfloored damping would not hold them back.  A step
    longer than |x| is refused like a failed one: the spectral initializer
    starts near the optimum, and such a step jumps to another basin.

    Stops, as converged, when an accepted step lowers the cost by less than
    tol relative with a gain ratio above 1/4, when a step is shorter than
    tol * (tol + |x|), or when every free gradient component is below tol
    times its column norm times |r|.  Returns (x, residual evaluations,
    converged); converged is False after max_iter steps.
    """
    import numpy as np

    lower_bounded = np.array([True, True, False, False, False])  # omega, lambda >= 0
    x = np.array(x0, dtype=float)
    r = _residual(x, s, y, w)
    cost, nfev, mu, nu = r @ r, 1, 1e-3, 2.0
    J = _jacobian(x, s, y, w)
    A, g = J.T @ J, J.T @ r
    for _ in range(max_iter):
        d = np.diag(A)
        free = ~(lower_bounded & (x <= 0) & (g > 0))
        if np.all(np.abs(g[free]) <= tol * np.sqrt(d[free] * cost)):
            return x, nfev, True
        M = A + mu * np.diag(np.maximum(d, 1e-10 * d.max()))
        step = np.zeros_like(x)
        step[free] = np.linalg.solve(M[np.ix_(free, free)], -g[free])
        x_new = np.where(lower_bounded, np.maximum(x + step, 0.0), x + step)
        step = x_new - x
        predicted = -(2 * g @ step + step @ A @ step)
        step_norm, x_norm = np.linalg.norm(step), np.linalg.norm(x)
        rho = -1.0
        if predicted > 0 and step_norm <= x_norm:
            r_new = _residual(x_new, s, y, w)
            cost_new, nfev = r_new @ r_new, nfev + 1
            rho = (cost - cost_new) / predicted
        small_step = step_norm < tol * (tol + x_norm)
        if rho > 0:
            small_drop = cost - cost_new < tol * cost and rho > 0.25
            x, r, cost = x_new, r_new, cost_new
            if small_drop or small_step:
                return x, nfev, True
            J = _jacobian(x, s, y, w)
            A, g = J.T @ J, J.T @ r
            mu, nu = mu * max(1 / 3, 1 - (2 * rho - 1) ** 3), 2.0
        elif small_step:
            return x, nfev, True
        else:
            mu, nu = mu * nu, 2 * nu
    return x, nfev, False


def fit_nutation(t, p1, sigma=None, max_iter: int = 200) -> NutationFit:
    """Weighted nonlinear least-squares fit of the damped-cosine model.

    t, p1: sampled curve (t need not start at zero but must be close to
    uniformly spaced for the spectral initializer).  sigma: pointwise
     1-sigma uncertainties; omitted means unit weights.  max_iter bounds the
    Levenberg-Marquardt steps; a fit that reaches it is returned with
    converged=False, and iterations counts residual evaluations.

    Raises ValueError when t or p1 is not finite, or sigma is not finite,
    strictly positive and shaped like t.  Raises OscillationUnresolved
    when fewer than 8 samples are given, the span covers less than one
    oscillation period, or the curve is overdamped (initial lambda
    estimate above the frequency estimate).
    """
    import numpy as np

    t = np.asarray(t, dtype=float)
    y = np.asarray(p1, dtype=float)
    if t.ndim != 1 or t.shape != y.shape:
        raise ValueError("t and p1 must be 1-d arrays of equal length")
    for name, v in (("t", t), ("p1", y)):
        if not np.isfinite(v).all():
            raise ValueError(f"{name} must be finite")
    w = None
    if sigma is not None:
        sigma = np.asarray(sigma, dtype=float)
        if sigma.shape != t.shape or not (np.isfinite(sigma) & (sigma > 0)).all():
            raise ValueError("sigma must be finite, strictly positive and shaped like t")
        w = 1.0 / sigma
    if len(t) < 8:
        raise OscillationUnresolved("need at least 8 samples")
    span = t[-1] - t[0]
    if span <= 0:
        raise ValueError("time grid must be increasing")

    # work in normalized time so the estimate is scale-equivariant
    s = t / span

    # -- initialization
    tail = y[-max(len(y) // 5, 4):]
    p_inf0 = float(tail.mean())
    detr = y - p_inf0
    omega0 = _spectral_peak(s, detr)

    # envelope decay from log-linear regression on the analytic-signal modulus
    env = _envelope(detr)
    core = slice(len(env) // 10, max(len(env) // 10 + 2, 9 * len(env) // 10))
    pos = env[core] > 1e-12 * max(env.max(), 1e-300)
    if pos.sum() >= 2:
        lam0 = max(0.0, -np.polyfit(s[core][pos], np.log(env[core][pos]), 1)[0])
    else:
        lam0 = 0.0
    if lam0 > omega0:
        raise OscillationUnresolved("overdamped curve: oscillation not resolved")

    # linear phase/amplitude estimate at fixed (omega0, lam0)
    e = np.exp(-lam0 * s)
    basis = np.column_stack([e * np.cos(omega0 * s), e * np.sin(omega0 * s)])
    (a, b), *_ = np.linalg.lstsq(basis, detr, rcond=None)
    amp0 = math.hypot(a, b)
    phi0 = math.atan2(-b, a)

    x, iterations, converged = _levenberg_marquardt(
        [omega0, lam0, p_inf0, amp0, phi0], s, y, w, max_iter)

    om, lam, pi_, amp, phi = x
    # defined failure modes: never report a frequency the data cannot support
    if lam > om:
        raise OscillationUnresolved("overdamped fit (lambda > omega)")
    if om < 2 * math.pi:  # normalized span shorter than one fitted period
        raise OscillationUnresolved("curve spans less than one oscillation period")
    if amp < 0:  # canonicalize to positive amplitude
        amp = -amp
        phi += math.pi
    phi = math.atan2(math.sin(phi), math.cos(phi))
    rms = float(np.sqrt(np.mean(_residual((om, lam, pi_, amp, phi), s, y, None) ** 2)))
    return NutationFit(
        omega_fit=float(om / span),
        lambda_fit=float(lam / span),
        p_inf_fit=float(pi_),
        amplitude=float(amp),
        phase=float(phi),
        residual_rms=rms,
        converged=converged,
        iterations=iterations,
    )


def invert_saturation(p_inf: float) -> float:
    """Invert the plateau level to the scattering-rate ratio r2/r1.

    Only plateaus strictly above 1/2 are invertible; at or below, the
    energy channel is unidentifiable (pure-dephasing-dominated data).
    """
    if not p_inf > 0.5:
        raise OutOfRange(f"plateau {p_inf} <= 1/2: r2/r1 unidentifiable")
    if p_inf > 1.0:
        raise OutOfRange(f"plateau {p_inf} > 1")
    return 2.0 * (1.0 - p_inf) / (2.0 * p_inf - 1.0)


def effective_from_fit(fit: NutationFit, omega_mw: float) -> EffectiveRates:
    """Translate a nutation fit into the effective qubit rates (gamma, Gamma).

    gamma = lambda_fit; r2/r1 from the plateau; Gamma = Omega^2 / r2 with
    r1 = gamma and r2 = gamma * (r2/r1).  Raises OutOfRange when Gamma
    exceeds the float range.
    """
    if fit.lambda_fit <= 0:
        raise DegenerateRates("undamped fit: no decoherence to quantify")
    ratio = invert_saturation(fit.p_inf_fit)
    gamma = fit.lambda_fit
    r2 = gamma * ratio
    try:
        Gamma = omega_mw**2 / r2 if r2 > 0 else None
    except OverflowError:
        Gamma = math.inf
    if Gamma == math.inf:
        raise OutOfRange("Gamma = Omega^2 / r2 beyond the float range")
    return EffectiveRates(gamma_eff=gamma, Gamma_eff=Gamma, p1_inf=fit.p_inf_fit)
