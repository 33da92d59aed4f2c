#!/usr/bin/env python3
"""The result tables of README.md, one function per table, each returning
the table's rows, its header first.

Run as ``python3 scripts/tables.py`` to rewrite every table between its
``<!-- table:NAME -->`` and ``<!-- /table:NAME -->`` markers in README.md;
tests/test_readme.py regenerates them all and requires the README's bytes.
"""

import re
from pathlib import Path

import numpy as np

from ghz_sim import (HilbertShape, SystemParams, TruncationError,
                     ghz_schedule, protocol_timeseries)
from ghz_sim.checks import run_checks
from ghz_sim.evolution import evolve_static
from ghz_sim.fock_core import basis_state
from ghz_sim.ghz_protocol import (RWA, evolve_lab, pulse_times,
                                  tune_coupling)
from ghz_sim.hamiltonian import build_rwa_hamiltonian

README = Path(__file__).resolve().parent.parent / "README.md"


def leakage() -> list[tuple[str, ...]]:
    """Block leakage and truncation convergence of the dressed RWA model:
    final fidelity and block leakage and the worst top-level population of
    a tuned g,0,0 pulse per eta_c and square truncation. A shape the
    truncation guard refuses is read from the scores its TruncationError
    carries, so the refused shapes show next to the converged ones."""
    rows = [("eta_c", "dim", "fidelity", "block leakage",
             "max top-level population")]
    omega = 8.95e6
    nu = 20.0 * omega
    omega_0 = 200.0 * nu
    for eta_c in (0.02, 0.05, 0.1):
        params = SystemParams(Omega=omega, g=0.0, eta_L=eta_c, eta_c=eta_c,
                              nu=nu, omega_0=omega_0, omega_c=omega_0 - nu,
                              omega_L=omega_0)
        for dim in (3, 4, 5, 6, 8, 10):
            schedule = ghz_schedule(params, shape=HilbertShape(dim, dim),
                                    tune=True)
            try:
                series = protocol_timeseries(schedule, ("g", 0, 0), RWA,
                                             pulse_times(schedule.t_p, 101))
            except TruncationError as exc:
                series = exc.series
            rows.append((f"{eta_c:g}", f"{dim}",
                         f"{series.fidelity[-1]:.9f}",
                         f"{series.block_leakage[-1]:.6e}",
                         f"{series.truncation_leak.max():.3e}"))
    return rows


def rwa_error() -> list[tuple[str, ...]]:
    """Infidelity between the lab-frame state (evolve_lab, in the
    interaction picture) and the RWA state at 5% of t_p, 3x3, as the
    hierarchy nu = r Omega, omega_0 = omega_L = 50 nu grows. The RWA claim
    is about frequency separations, and optical scales are out of reach."""
    rows = [("nu/Omega", "RWA infidelity")]
    shape = HilbertShape(3, 3)
    psi0 = basis_state(shape, "g", 0, 0)
    for ratio in (5, 10, 20, 40, 80, 160, 320):
        nu = float(ratio)
        omega_0 = 50.0 * nu
        params = SystemParams(Omega=1.0, g=tune_coupling(1.0, 0.05, 1),
                              eta_L=0.05, eta_c=0.05, nu=nu, omega_0=omega_0,
                              omega_c=omega_0 - nu, omega_L=omega_0)
        t_end = 0.05 * ghz_schedule(params, shape=shape).t_p
        rwa = evolve_static(build_rwa_hamiltonian(params, shape), psi0,
                            [t_end])
        lab = evolve_lab(params, psi0, [0.0, t_end])
        overlap = abs(np.vdot(rwa.amplitudes[-1], lab.amplitudes[-1])) ** 2
        rows.append((f"{ratio:g}", f"{1.0 - overlap:.6e}"))
    return rows


def validation() -> list[tuple[str, ...]]:
    """The checks of ``ghz-sim validate`` that fail. A passing check's
    value is round-off below its threshold and moves between machines, so
    it gets no row."""
    return [("check", "measured", "threshold")] + [
        (check.name, f"{check.measured:.4g}", f"{check.threshold:g}")
        for check in run_checks() if not check.passed]


TABLES = {"leakage": leakage, "rwa_error": rwa_error,
          "validation": validation}


def markdown(rows: list[tuple[str, ...]]) -> str:
    lines = ["| " + " | ".join(row) + " |" for row in rows]
    lines.insert(1, "|" + "---|" * len(rows[0]))
    return "\n".join(lines)


def rewrite(text: str, name: str, rows: list[tuple[str, ...]]) -> str:
    """``text`` with the table between the markers of ``name`` replaced by
    ``rows``; a README without that marker pair is an error."""
    block = f"<!-- table:{name} -->\n{markdown(rows)}\n<!-- /table:{name} -->"
    new, count = re.subn(f"<!-- table:{name} -->\n.*?<!-- /table:{name} -->",
                         lambda _: block, text, flags=re.DOTALL)
    if count != 1:
        raise ValueError(f"README.md has {count} table:{name} marker pairs")
    return new


if __name__ == "__main__":
    text = README.read_text(encoding="utf-8")
    for name, table in TABLES.items():
        text = rewrite(text, name, table())
    README.write_text(text, encoding="utf-8")
