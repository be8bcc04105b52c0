#!/usr/bin/env python3
"""Generate the two nutation curve families (energy-relaxation sweep and
dephasing sweep) as CSV files, one curve per column.

Usage: python scripts/run_curve_families.py [outdir]
"""

import math
import sys
from pathlib import Path

import numpy as np

from iondeco import (
    TWO_PI_KHZ,
    PhysicalParams,
    ScatteringRates,
    SystemState,
    integrate,
    saturation_probability,
)
from iondeco.protocol import format_table

GAMMA3 = 18e3 * TWO_PI_KHZ
GAMMA_L = 9e3  # 2pi kHz


def rates_from_sqrt(sqrt_2r1gl: float, sqrt_r2gl: float) -> ScatteringRates:
    r1 = sqrt_2r1gl**2 / (2 * GAMMA_L) * TWO_PI_KHZ
    r2 = sqrt_r2gl**2 / GAMMA_L * TWO_PI_KHZ
    return ScatteringRates(r1=r1, r2=r2,
                           p3_mean=(0.5 * r2 / GAMMA3, r1 / GAMMA3, 0.5 * r2 / GAMMA3))


def family(params, rate_pairs, t):
    columns = []
    for s1, s2 in rate_pairs:
        ts = integrate(SystemState(), params, rates_from_sqrt(s1, s2), t, "adiabatic")
        columns.append(ts.p1)
    return np.column_stack(columns)


def write_family(path, labels, t, theta, block):
    path.write_text(format_table([], "theta_rad,tau_s," + ",".join(labels),
                                 np.column_stack([theta, t, block])))


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("curves")
    outdir.mkdir(parents=True, exist_ok=True)
    params = PhysicalParams(omega_mw=4.2 * TWO_PI_KHZ, gamma3=GAMMA3)
    t = np.arange(301) * 100e-6
    theta = params.omega_mw * t

    # sweep the energy-relaxation channel at fixed dephasing strength
    sweep_r2 = [(700, s2) for s2 in (70, 140, 350, 700)]
    block = family(params, sweep_r2, t)
    write_family(outdir / "sweep_energy_channel.csv",
                 [f"p1_s2_{s2}" for _, s2 in sweep_r2], t, theta, block)

    # sweep the dephasing channel at fixed energy-relaxation strength
    sweep_r1 = [(s1, 70) for s1 in (70, 220, 700, 2200)]
    block = family(params, sweep_r1, t)
    write_family(outdir / "sweep_dephasing_channel.csv",
                 [f"p1_s1_{s1}" for s1, _ in sweep_r1], t, theta, block)

    print(f"wrote {outdir}/sweep_energy_channel.csv and "
          f"{outdir}/sweep_dephasing_channel.csv")
    for _, s2 in sweep_r2:
        r = rates_from_sqrt(700, s2)
        print(f"  s2={s2:5d}: r2/r1 = {r.r2 / r.r1:6.3f}, "
              f"plateau = {saturation_probability(r):.4f}")


if __name__ == "__main__":
    main()
