"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criteria 3 and 4 tie the closed-form block propagator to the 4x4 block matrix
and currently FAIL: the closed form is the exact propagator of the chain with
a doubled sideband element (2a), not of the coupling-a block matrix it is
checked against, while the protocol criteria (1, 2, 5, 6, 9) are built on the
closed form and pass exactly. Both sides cannot hold at once; the suite
reports the contradiction instead of hiding it.
"""

import math

import numpy as np
import scipy.linalg

from conftest import lab_reference, scaled_params
from ghz_sim.cli import main as cli_main
from ghz_sim.evolution import block_propagator, evolve_static, evolve_timedep
from ghz_sim.fock_core import HilbertShape, basis_state, partial_trace
from ghz_sim.ghz_protocol import (ghz_schedule, protocol_timeseries,
                                  pulse_times, target_state, tune_coupling)
from ghz_sim.hamiltonian import (BlockParams, build_ld_hamiltonian,
                                 build_rwa_hamiltonian)

SEED = 20260808


def report(num, description, ok, measured):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {status} [{num:02d}] {description} ({measured})")
    return ok


def random_block(rng):
    omega = rng.uniform(0.5, 2.0)
    a = rng.uniform(0.05, 1.0)
    return BlockParams(m=1, n=1, Omega=omega, a=a, mu=math.hypot(a, omega))


def block_matrix(block):
    h = np.zeros((4, 4), dtype=complex)
    h[0, 1] = h[1, 0] = block.Omega
    h[2, 3] = h[3, 2] = block.Omega
    h[0, 3] = h[3, 0] = block.a
    return h


def test_criterion_01_operation_time():
    omega = 8.95e6  # rad/s (angular reading of 8.95 MHz)
    t1 = math.pi * math.sqrt(15.0) / (4.0 * omega)
    schedule = ghz_schedule(scaled_params(), shape=HilbertShape(2, 2))
    err = abs(t1 - 0.34e-6) / 0.34e-6
    ok = err < 0.01 and abs(schedule.t_p - t1) < 1e-18
    assert report(1, "operation time t_1 = pi sqrt(15)/(4 Omega) = 0.34 us "
                     "within 1%", ok, f"t_1 = {t1 * 1e6:.6f} us, err = {err:.2e}")


def test_criterion_02_tuning_identity():
    omega, eta_c = 8.95e6, 0.05
    g = tune_coupling(omega, eta_c, 1)
    err_g = abs(g * eta_c * math.sqrt(15.0) - omega) / omega
    mu = BlockParams.from_params(scaled_params(g=g), 1, 1).mu
    mu_ref = 4.0 * omega / math.sqrt(15.0)
    err_mu = abs(mu - mu_ref) / mu_ref
    ok = err_g < 1e-12 and err_mu < 1e-12
    assert report(2, "tuning identities g eta_c sqrt(15) = Omega and "
                     "mu = 4 Omega / sqrt(15) to 1e-12", ok,
                  f"err_g = {err_g:.2e}, err_mu = {err_mu:.2e}")


def test_criterion_03_analytic_solution_schrodinger_residual():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(20):
        block = random_block(rng)
        h = block_matrix(block)
        t = rng.uniform(0.1, 3.0) / block.mu
        psi0 = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi0 /= np.linalg.norm(psi0)
        step = 1e-6 / block.mu
        dpsi = (block_propagator(block, t + step) @ psi0
                - block_propagator(block, t - step) @ psi0) / (2.0 * step)
        psi = block_propagator(block, t) @ psi0
        residual = np.linalg.norm(1j * dpsi - h @ psi) / np.linalg.norm(h @ psi)
        worst = max(worst, float(residual))
    ok = worst < 1e-5
    assert report(3, "closed-form propagator satisfies the Schrodinger "
                     "equation of the 4x4 block matrix (residual < 1e-5 at "
                     "20 random points)", ok, f"max residual = {worst:.3e}")


def test_criterion_04_oracle_equivalence_matrix_exponential():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(5):
        block = random_block(rng)
        h = block_matrix(block)
        for t in np.linspace(0.0, 2.0 * math.pi / block.mu, 100):
            u_ref = scipy.linalg.expm(-1j * h * t)
            dev = np.max(np.abs(block_propagator(block, t) - u_ref))
            worst = max(worst, float(dev))
    ok = worst < 1e-10
    assert report(4, "closed-form propagator matches expm(-iHt) of the same "
                     "4x4 for all basis initial states (max deviation < 1e-10)",
                  ok, f"max deviation = {worst:.3e}")


def test_criterion_05_paper_states_table():
    params = scaled_params()
    shape = HilbertShape(2, 2)
    schedule = ghz_schedule(params, shape=shape)
    block_order = (("g", 1, 1), ("e", 1, 1), ("g", 0, 0), ("e", 0, 0))
    worst = 0.0
    for lbl in (("g", 0, 0), ("e", 0, 0), ("g", 1, 1), ("e", 1, 1)):
        start = np.zeros(4, dtype=complex)
        start[block_order.index(lbl)] = 1.0
        final = block_propagator(schedule.block, schedule.t_p) @ start
        amps = np.zeros(shape.total_dim, dtype=complex)
        for k, blk in enumerate(block_order):
            amps[shape.index(*blk)] = final[k]
        worst = max(worst, float(np.max(np.abs(
            amps - target_state(lbl, shape).amplitudes))))
    ok = worst < 1e-10
    assert report(5, "block model maps the four initial states onto the "
                     "printed targets, amplitudes within 1e-10 including the "
                     "(-1)^p sign and -i phase", ok,
                  f"max amplitude deviation = {worst:.3e}")


def test_criterion_06_ghz_marginals_maximally_mixed():
    shape = HilbertShape(2, 2)
    worst = 0.0
    for lbl in (("g", 0, 0), ("e", 0, 0), ("g", 1, 1), ("e", 1, 1)):
        tgt = target_state(lbl, shape)
        for slot in ("ion", "vib", "cav"):
            eigs = np.sort(np.linalg.eigvalsh(partial_trace(tgt, {slot})))[::-1]
            worst = max(worst, float(np.max(np.abs(eigs[:2] - 0.5))))
    ok = worst < 1e-12
    assert report(6, "every single-subsystem reduction of every target has "
                     "eigenvalues {1/2, 1/2} within 1e-12", ok,
                  f"max eigenvalue deviation = {worst:.3e}")


def test_criterion_07_full_model_truncation_convergence():
    params = scaled_params()
    fids, leaks, norms = [], [], []
    for dim in (6, 8):
        shape = HilbertShape(dim, dim)
        schedule = ghz_schedule(params, shape=shape)
        series = protocol_timeseries(schedule, ("g", 0, 0), "ld_full",
                                     pulse_times(schedule.t_p, 101))
        fids.append(series.fidelity[-1])
        leaks.append(series.block_leakage[-1])
        norms.append(series.norm[-1])
    fid_diff = abs(fids[0] - fids[1])
    norm_err = max(abs(n - 1.0) for n in norms)
    ok = fid_diff < 1e-6 and all(l >= 0.0 for l in leaks) and norm_err < 1e-9
    assert report(7, "full LD model at 6x6 vs 8x8: final fidelities within "
                     "1e-6, leakage >= 0, norm conserved within 1e-9", ok,
                  f"fid diff = {fid_diff:.3e}, leak = {leaks[0]:.3e}, "
                  f"norm err = {norm_err:.3e}")


def test_criterion_08_lamb_dicke_convergence_rate():
    shape = HilbertShape(5, 5)

    def diff(eta):
        params = scaled_params(Omega=1.0, eta_c=eta, eta_L=eta, g=2.0)
        return float(np.max(np.abs(build_rwa_hamiltonian(params, shape)
                                   - build_ld_hamiltonian(params, shape))))

    ratio = diff(0.1) / diff(0.05)
    ok = abs(ratio - 4.0) <= 0.8
    assert report(8, "max-entry RWA-vs-LD difference scales as O(eta^2): "
                     "ratio at eta 0.1 vs 0.05 is 4 +- 20%", ok,
                  f"ratio = {ratio:.4f}")


def test_criterion_09_node_offset_compensation():
    shape = HilbertShape(2, 2)
    base_g = tune_coupling(8.95e6, 0.05, 1)
    worst = 0.0
    for phi in (0.0, math.pi / 6, math.pi / 3):
        g = base_g / math.cos(phi)
        params_phi = scaled_params(g=g, phi=phi)
        params_flat = scaled_params(g=g * math.cos(phi), phi=0.0)
        sched_phi = ghz_schedule(params_phi, shape=shape)
        sched_flat = ghz_schedule(params_flat, shape=shape)
        times = np.linspace(0.0, sched_flat.t_p, 40)
        series_phi = protocol_timeseries(sched_phi, ("g", 0, 0),
                                         "block_analytic", times)
        series_flat = protocol_timeseries(sched_flat, ("g", 0, 0),
                                          "block_analytic", times)
        worst = max(worst, float(np.max(np.abs(series_phi.fidelity
                                               - series_flat.fidelity))))
    ok = worst < 1e-6
    assert report(9, "block protocol with (g, phi) equals (g cos phi, 0): "
                     "fidelity time-series within 1e-6 for phi in "
                     "{0, pi/6, pi/3}", ok, f"max fidelity gap = {worst:.3e}")


def test_criterion_10_integrator_quality():
    params = scaled_params(Omega=1.0, nu_ratio=3.0, omega0_ratio=5.0)
    shape = HilbertShape(2, 2)
    source = lab_reference(params, shape)
    psi0 = basis_state(shape, "g", 0, 0)
    t_end = 0.5

    def terminal(dt):
        return evolve_timedep(source, psi0, t_end, dt).amplitudes[-1]

    ref = terminal(3e-3 / 8)
    err_coarse = np.linalg.norm(terminal(3e-3) - ref)
    err_fine = np.linalg.norm(terminal(1.5e-3) - ref)
    order = math.log2(err_coarse / err_fine)

    h_const = build_ld_hamiltonian(scaled_params(Omega=1.0), HilbertShape(3, 3))
    psi0_c = basis_state(HilbertShape(3, 3), "g", 0, 0)
    static = evolve_static(h_const, psi0_c, [2.5]).amplitudes[-1]
    timedep = evolve_timedep(lambda t: h_const, psi0_c, 2.5,
                             dt=5e-3).amplitudes[-1]
    cross = float(np.max(np.abs(static - timedep)))
    ok = order >= 3.8 and cross < 1e-8
    assert report(10, "fixed-step integrator: self-convergence order >= 3.8 "
                      "on the scaled lab model and constant-H cross-check "
                      "within 1e-8", ok,
                  f"order = {order:.3f}, cross-check = {cross:.3e}")


def test_criterion_11_cli_determinism_and_exit_codes(tmp_path, capsys):
    golden_a = tmp_path / "golden_a.csv"
    golden_b = tmp_path / "golden_b.csv"
    rc_ok = cli_main(["ghz", "--output", str(golden_a)])
    rc_ok_b = cli_main(["ghz", "--output", str(golden_b)])
    byte_identical = golden_a.read_bytes() == golden_b.read_bytes()

    rc_accuracy = cli_main(["ghz", "--model", "ld", "--shape", "4x4",
                            "--output", str(tmp_path / "trunc.csv")])
    rc_usage = cli_main(["ghz", "--model", "warp",
                         "--output", str(tmp_path / "warp.csv")])
    capsys.readouterr()

    ok = (byte_identical and rc_ok == 0 and rc_ok_b == 0
          and rc_accuracy == 1 and rc_usage == 2)
    assert report(11, "cmd_ghz golden file byte-identical across two runs; "
                      "exit codes 0/1/2 from three crafted configs", ok,
                  f"identical = {byte_identical}, codes = "
                  f"({rc_ok}, {rc_accuracy}, {rc_usage})")
