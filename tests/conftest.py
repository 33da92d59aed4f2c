import importlib.util
import sys
from pathlib import Path

from ghz_sim.checks import _o_k_entry_laguerre
from ghz_sim.ghz_protocol import tune_coupling
from ghz_sim.hamiltonian import SystemParams


def scaled_params(Omega=8.95e6, eta_c=0.05, eta_L=0.05, g=None, phi=0.0,
                  nu_ratio=20.0, omega0_ratio=200.0):
    """Resonant parameter set with the scaled hierarchy nu = nu_ratio * Omega,
    omega_0 = omega0_ratio * nu; g defaults to the tuned p=1 value."""
    nu = nu_ratio * Omega
    omega_0 = omega0_ratio * nu
    if g is None:
        g = tune_coupling(Omega, eta_c, 1)
    return SystemParams(Omega=Omega, g=g, eta_L=eta_L, eta_c=eta_c, nu=nu,
                        omega_0=omega_0, omega_c=omega_0 - nu, omega_L=omega_0,
                        phi=phi)


# independent oracle for <m|O_k|m>: the generalized-Laguerre closed form
# exp(-eta^2/2) m!/(m+k)! L_m^(k)(eta^2) shared with the validate suite, not a
# copy of the production series
o_k_oracle = _o_k_entry_laguerre


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name: str):
    """The benchmark's module ``perfbench/<name>.py``, loaded by path (the
    benchmark directory is not a package) as ``perfbench_<name>``."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module
