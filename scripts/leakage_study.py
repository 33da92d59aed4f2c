#!/usr/bin/env python3
"""Block leakage and truncation convergence of the full Lamb-Dicke model.

The tuned in-block sideband coupling is pinned by the GHZ condition, but the
full model also couples |e,m,n> up the Fock ladder (strength growing like
sqrt(mn)), so population leaks out of the 4-state block. This script reports,
per truncation, the final fidelity, the leaked population, and the worst
top-level population seen along the pulse (the truncation diagnostic)."""

import argparse

from ghz_sim import (HilbertShape, SystemParams, TruncationError,
                     ghz_schedule, protocol_timeseries)
from ghz_sim.ghz_protocol import LD_FULL, RWA_FULL, pulse_times

OMEGA = 8.95e6
NU = 20.0 * OMEGA
OMEGA_0 = 200.0 * NU


def study_point(eta_c: float, dim: int, model: str):
    params = SystemParams(Omega=OMEGA, g=0.0, eta_L=eta_c, eta_c=eta_c,
                          nu=NU, omega_0=OMEGA_0, omega_c=OMEGA_0 - NU,
                          omega_L=OMEGA_0)
    shape = HilbertShape(dim, dim)
    schedule = ghz_schedule(params, shape=shape, tune=True)
    try:
        series = protocol_timeseries(
            schedule, ("g", 0, 0), RWA_FULL if model == "rwa" else LD_FULL,
            pulse_times(schedule.t_p, 101))
    except TruncationError as exc:   # a shape too small, scored all the same
        series = exc.series
    return (series.fidelity[-1], series.block_leakage[-1],
            series.truncation_leak.max())


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
