"""Independent physics reference for the benchmark's correctness checks.

Everything here is re-derived from the model's documented equations, not
imported from iondeco: closed-form scattering rates, the 6x6 (full) and
5x5 (adiabatic) generators with their exact propagator expm(A t), and the
on-probability of the thresholded-counts detector.

Frequencies passed in are in the 2*pi x kHz convention of the CLI and
config files; everything returned is in rad/s unless a name says otherwise.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm
from scipy.stats import binom, poisson

TWO_PI_KHZ = 2.0 * math.pi * 1e3
BETA1 = 1.0 / 3.0


def scattering_rates(i0, alpha_deg, b_2pikhz, gamma3_2pikhz):
    """(r1, r2, (p3(-1), p3(0), p3(+1))) for the given knobs, rates in rad/s,
    with the laser on the optical resonance (the workloads' setting).

    L(m) = h^2 / (h^2 + d^2) with h = gamma3/2 and d = m*B;
    I(0) = i0 cos^2(alpha), I(+-1) = i0 sin^2(alpha); p3 = x / (2 (1 + x))
    with x = I L; r1 = p3(0) gamma3, r2 = (p3(+1) + p3(-1)) gamma3.
    """
    g3 = gamma3_2pikhz * TWO_PI_KHZ
    half = g3 / 2.0
    a = math.radians(alpha_deg)
    flux = {0: i0 * math.cos(a) ** 2, -1: i0 * math.sin(a) ** 2, 1: i0 * math.sin(a) ** 2}
    p3 = {}
    for m in (-1, 0, 1):
        det = m * b_2pikhz * TWO_PI_KHZ
        x = flux[m] * half * half / (half * half + det * det)
        p3[m] = 0.5 * x / (1.0 + x)
    return p3[0] * g3, (p3[1] + p3[-1]) * g3, (p3[-1], p3[0], p3[1])


def full_generator(omega, r1, r2, gamma3):
    """Generator of d/dt [u, v, n0, n1, n2, n3] on microwave resonance; the
    0-1 coherence decays at r1."""
    gc = r1
    return np.array([
        [-gc, 0, 0, 0, 0, 0],
        [0, -gc, omega, -omega, 0, 0],
        [0, -omega / 2, 0, 0, 0, 0],
        [0, omega / 2, 0, -r1, 0, BETA1 * gamma3],
        [0, 0, 0, 0, -r2, (1 - BETA1) * gamma3],
        [0, 0, 0, r1, r2, -gamma3],
    ])


def adiabatic_generator(omega, r1, r2):
    """Generator of d/dt [u, v, n0, n1, n2] with level 3 eliminated: the
    scattered flux r1 n1 + r2 n2 returns at once with branching 1/3 : 2/3."""
    gc = r1
    b2 = 1 - BETA1
    return np.array([
        [-gc, 0, 0, 0, 0],
        [0, -gc, omega, -omega, 0],
        [0, -omega / 2, 0, 0, 0],
        [0, omega / 2, 0, -r1 + BETA1 * r1, BETA1 * r2],
        [0, 0, 0, b2 * r1, -r2 + b2 * r2],
    ])


def evolve(generator, y0, times):
    """States expm(A t) y0 at each t, shape (len(times), dim)."""
    y0 = np.asarray(y0, dtype=float)
    return np.array([expm(generator * t) @ y0 for t in times])


def full_curve(knobs, times):
    """Full-model states for a curve-stiff knob dict, starting in level 0."""
    r1, r2, _ = scattering_rates(knobs["i0"], knobs["alpha_deg"], knobs["b_2pikhz"],
                                 knobs["gamma3_2pikhz"])
    a = full_generator(knobs["omega_2pikhz"] * TWO_PI_KHZ, r1, r2,
                       knobs["gamma3_2pikhz"] * TWO_PI_KHZ)
    return evolve(a, [0, 0, 1, 0, 0, 0], times)


def adiabatic_p1(knobs, times, excited=False):
    """Adiabatic-model P1 = n1 + n2 for a protocol-mc knob dict."""
    r1, r2, _ = scattering_rates(knobs["i0"], knobs["alpha_deg"], knobs["b_2pikhz"],
                                 knobs["gamma3_2pikhz"])
    a = adiabatic_generator(knobs["omega_2pikhz"] * TWO_PI_KHZ, r1, r2)
    y0 = [0, 0, 0, 1, 0] if excited else [0, 0, 1, 0, 0]
    y = evolve(a, y0, times)
    return y[:, 3] + y[:, 4]


def on_probability(p1_good, p1_bad, prep_error, det):
    """Probability that the thresholded-counts probe reads "on".

    A preparation error (probability prep_error) starts the drive in 1
    instead of 0; the probe then counts Poisson photons at
    (bright + dark) rate from F=1 and dark rate otherwise, and reads on
    when counts exceed the threshold.
    """
    t = det["probe_ms"] * 1e-3
    q1 = poisson.sf(det["threshold"], (det["bright_rate_hz"] + det["dark_rate_hz"]) * t)
    q0 = poisson.sf(det["threshold"], det["dark_rate_hz"] * t)
    good = p1_good * q1 + (1 - p1_good) * q0
    bad = p1_bad * q1 + (1 - p1_bad) * q0
    return (1 - prep_error) * good + prep_error * bad


def binomial_outliers(counts, n, p_on, family_alpha=1e-3):
    """Two-sided exact binomial test at every point, Bonferroni-corrected so
    that the chance of any false alarm over all points is <= family_alpha.

    Returns (max |z|, number of points whose p-value falls below
    family_alpha / len(counts)).
    """
    counts = np.asarray(counts)
    p_on = np.clip(np.asarray(p_on, dtype=float), 1e-300, 1 - 1e-16)
    z = (counts - n * p_on) / np.sqrt(n * p_on * (1 - p_on))
    pval = 2 * np.minimum(binom.cdf(counts, n, p_on), binom.sf(counts - 1, n, p_on))
    return float(np.max(np.abs(z))), int(np.sum(pval < family_alpha / len(counts)))
