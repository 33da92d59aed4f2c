#!/usr/bin/env python3
"""Measure the rotating-wave approximation error against the lab-frame model.

For a sequence of frequency hierarchies nu = r * Omega (with omega_0 = 50 nu)
the lab-frame state, transformed into the interaction picture, is compared
with the RWA evolution at a fixed fraction of the pulse time. The infidelity
between the two states should shrink as the hierarchy ratio r grows; absolute
optical-scale frequencies are numerically out of reach, and the RWA claim is
about separations, not absolute scales. The lab-frame run is the one the
protocol makes (``evolve_lab``): the exact laser-frame Hamiltonian, integrated
over one period pi / omega_L of its counter-rotating term and carried to the
end time by the period propagator, so its cost barely grows with the ratio.
"""

import argparse

import numpy as np

from ghz_sim.evolution import evolve_static
from ghz_sim.fock_core import HilbertShape, basis_state
from ghz_sim.ghz_protocol import evolve_lab, ghz_schedule, tune_coupling
from ghz_sim.hamiltonian import SystemParams, build_rwa_hamiltonian

OMEGA = 1.0
ETA = 0.05


def infidelity_at(ratio: float, shape: HilbertShape, time_fraction: float) -> float:
    nu = ratio * OMEGA
    omega_0 = 50.0 * nu
    params = SystemParams(Omega=OMEGA, g=tune_coupling(OMEGA, ETA, 1),
                          eta_L=ETA, eta_c=ETA, nu=nu, omega_0=omega_0,
                          omega_c=omega_0 - nu, omega_L=omega_0)
    schedule = ghz_schedule(params, shape=shape)
    t_end = time_fraction * schedule.t_p
    psi0 = basis_state(shape, "g", 0, 0)

    rwa = evolve_static(build_rwa_hamiltonian(params, shape), psi0, [t_end])
    lab = evolve_lab(params, psi0, [0.0, t_end])

    overlap = abs(np.vdot(rwa.amplitudes[-1], lab.amplitudes[-1])) ** 2
    return 1.0 - overlap


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ratios", default="5,10,20,40,80,160,320",
                        help="nu/Omega hierarchy ratios (comma list)")
    parser.add_argument("--shape", default="3x3")
    parser.add_argument("--time-fraction", type=float, default=0.05,
                        help="fraction of t_p to evolve (default 0.05)")
    args = parser.parse_args(argv)

    vib, cav = (int(v) for v in args.shape.split("x"))
    shape = HilbertShape(vib, cav)
    ratios = [float(r) for r in args.ratios.split(",")]

    print("nu/Omega,rwa_infidelity")
    for r in ratios:
        err = infidelity_at(r, shape, args.time_fraction)
        print(f"{r:g},{err:.6e}")


if __name__ == "__main__":
    main()
