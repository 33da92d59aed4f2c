#!/usr/bin/env python3
"""Block leakage and truncation convergence of the full Lamb-Dicke model.

The tuned in-block sideband coupling is pinned by the GHZ condition, but the
full model also couples |e,m,n> up the Fock ladder (strength growing like
sqrt(mn)), so population leaks out of the 4-state block. This script reports,
per truncation, the final fidelity, the leaked population, and the worst
top-level population seen along the pulse (the truncation diagnostic)."""

import argparse
from dataclasses import replace

import numpy as np

from ghz_sim.evolution import evolve_static
from ghz_sim.fock_core import HilbertShape, basis_state
from ghz_sim.ghz_protocol import fidelity, ghz_schedule, target_state
from ghz_sim.hamiltonian import (SystemParams, build_ld_hamiltonian,
                                 build_rwa_hamiltonian)

OMEGA = 8.95e6
NU = 20.0 * OMEGA
OMEGA_0 = 200.0 * NU


def study_point(eta_c: float, dim: int, model: str):
    params = SystemParams(Omega=OMEGA, g=0.0, eta_L=eta_c, eta_c=eta_c,
                          nu=NU, omega_0=OMEGA_0, omega_c=OMEGA_0 - NU,
                          omega_L=OMEGA_0)
    shape = HilbertShape(dim, dim)
    schedule = ghz_schedule(params, shape=shape, tune=True)
    run_params = replace(params, g=schedule.tuned_g)

    build = build_rwa_hamiltonian if model == "rwa" else build_ld_hamiltonian
    h = build(run_params, shape)
    psi0 = basis_state(shape, "g", 0, 0)
    times = np.linspace(0.0, schedule.t_p, 101)
    result = evolve_static(h, psi0, times)

    tgt = target_state(("g", 0, 0), shape)
    block_idx = [shape.index(*lbl) for lbl in
                 (("g", 1, 1), ("e", 1, 1), ("g", 0, 0), ("e", 0, 0))]
    pops = np.abs(result.amplitudes[-1]) ** 2
    leak = 1.0 - sum(pops[i] for i in block_idx)
    worst_top = result.truncation_leak.max()
    return fidelity(result.final_state, tgt), leak, worst_top


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--eta-c", default="0.02,0.05,0.1")
    parser.add_argument("--dims", default="6,8,10")
    parser.add_argument("--model", choices=("rwa", "ld"), default="rwa",
                        help="dressed model by default; the tuned LD model "
                             "depends only on Omega and g*eta_c, so its rows "
                             "do not vary with eta_c")
    args = parser.parse_args(argv)

    print("eta_c,dim,fidelity,block_leakage,max_top_level_population")
    for eta_c in (float(v) for v in args.eta_c.split(",")):
        for dim in (int(v) for v in args.dims.split(",")):
            fid, leak, top = study_point(eta_c, dim, args.model)
            print(f"{eta_c:g},{dim},{fid:.9f},{leak:.6e},{top:.3e}")


if __name__ == "__main__":
    main()
