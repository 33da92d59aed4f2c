#!/usr/bin/env python3
"""Run the single-pulse GHZ protocol at the reference operating point and
print the outcome for all four block initial states under the closed-form
block model and the full Lamb-Dicke model."""

import argparse

from ghz_sim.errors import TruncationError
from ghz_sim.fock_core import HilbertShape
from ghz_sim.ghz_protocol import ghz_schedule, run_protocol
from ghz_sim.hamiltonian import SystemParams

OMEGA = 8.95e6      # rad/s (8.95 MHz, angular)
ETA_C = 0.05
ETA_L = 0.05
NU = 20.0 * OMEGA
OMEGA_0 = 200.0 * NU

INITIAL_STATES = (("g", 0, 0), ("e", 0, 0), ("g", 1, 1), ("e", 1, 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shape", default="8x8",
                        help="truncation for the full model (default 8x8; the "
                             "upper-pair initial states leak higher up the "
                             "ladder than (g,0,0) does)")
    parser.add_argument("--p", type=int, default=1, help="pulse index")
    args = parser.parse_args(argv)

    vib, cav = (int(v) for v in args.shape.split("x"))
    shape = HilbertShape(vib, cav)
    params = SystemParams(Omega=OMEGA, g=0.0, eta_L=ETA_L, eta_c=ETA_C,
                          nu=NU, omega_0=OMEGA_0, omega_c=OMEGA_0 - NU,
                          omega_L=OMEGA_0)
    schedule = ghz_schedule(params, p=args.p, shape=shape, tune=True)

    print(f"pulse p={args.p}: t_p = {schedule.t_p * 1e6:.6f} us, "
          f"tuned g = {schedule.params.g / 1e6:.4f} MHz, "
          f"a t_p = {schedule.block.a * schedule.t_p:.12f}")
    print(f"{'initial':>8} {'model':>15} {'fidelity':>14} {'leakage':>12}")
    for initial in INITIAL_STATES:
        for model in ("block_analytic", "ld_full"):
            label = ",".join(str(v) for v in initial)
            try:
                rep = run_protocol(schedule, initial, model)
            except TruncationError as exc:
                print(f"{label:>8} {model:>15} {'truncated':>14} ({exc})")
                continue
            print(f"{label:>8} {model:>15} {rep.fidelity:>14.9f} "
                  f"{rep.block_leakage:>12.3e}")


if __name__ == "__main__":
    main()
