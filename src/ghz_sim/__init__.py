"""Simulation of single-step tripartite GHZ generation for a trapped ion in
an optical cavity: Hamiltonians at several approximation levels, analytic and
numerical evolution engines, and a protocol layer that tunes, runs and scores
the pulse."""

from .errors import (AccuracyError, ConfigurationError, GhzSimError,
                     ModelError, TruncationError, UntunedError)
from .evolution import (EvolutionResult, block_propagator, evolve_static,
                        evolve_timedep, to_interaction_picture)
from .fock_core import (HilbertShape, QuantumState, basis_state, kron3,
                        ladder_ops, partial_trace, pauli_ops)
from .ghz_protocol import (ProtocolSchedule, ProtocolSeries, evolve_lab,
                           ghz_schedule, protocol_timeseries, target_state,
                           tune_coupling)
from .hamiltonian import (BlockParams, SystemParams, block_matrix,
                          build_ld_hamiltonian, build_O_k,
                          build_rwa_hamiltonian, effective_coupling,
                          rotating_frame_source)

__version__ = "0.1.0"
