#!/usr/bin/env python3
"""End-to-end demo: simulate the measurement protocol, accumulate the
binary outcomes, fit the damped nutation, and compare the recovered rates
against the ones that generated the data.

Usage: python scripts/run_protocol_demo.py [n_trajectories] [seed]
"""

import math
import sys

import numpy as np

from iondeco import (
    TWO_PI_KHZ,
    PhysicalParams,
    ProtocolConfig,
    accumulate,
    fit_nutation,
    invert_saturation,
    run_trajectories,
    scattering_rates,
)

def main():
    n_traj = int(sys.argv[1]) if len(sys.argv) > 1 else 500
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 7

    params = PhysicalParams(omega_mw=4.2 * TWO_PI_KHZ, gamma3=18e3 * TWO_PI_KHZ,
                            i0=3e-4, alpha=math.radians(60))
    rates = scattering_rates(params)
    cfg = ProtocolConfig(dt_unit=100e-6, n_max=300, n_trajectories=n_traj,
                         seed=seed)
    print(f"true rates: r1 = {rates.r1 / TWO_PI_KHZ:.4f}, "
          f"r2 = {rates.r2 / TWO_PI_KHZ:.4f} (2pi kHz), "
          f"r2/r1 = {rates.r2 / rates.r1:.3f}")

    curve = accumulate(run_trajectories(params, rates, cfg, model="adiabatic"))
    sigma = np.maximum((curve.ci_high - curve.ci_low) / (2 * 1.96), 1e-3)
    fit = fit_nutation(curve.tau_s, curve.p1_mean, sigma=sigma)

    print(f"{n_traj} trajectories, seed {seed}:")
    print(f"  fitted Omega   = {fit.omega_fit / TWO_PI_KHZ:.4f} 2pi kHz "
          f"(true {params.omega_mw / TWO_PI_KHZ})")
    print(f"  fitted lambda  = {fit.lambda_fit / TWO_PI_KHZ:.4f} 2pi kHz")
    print(f"  fitted plateau = {fit.p_inf_fit:.4f}")
    ratio = invert_saturation(fit.p_inf_fit)
    print(f"  recovered r2/r1 = {ratio:.3f} "
          f"(rel err {abs(ratio / (rates.r2 / rates.r1) - 1):.1%})")


if __name__ == "__main__":
    main()
