"""Truncated Fock-space and qubit algebra for the ion + phonon + photon system.

Everything in the package lives on the tripartite product space

    ion (2 levels: g, e)  x  vibration (vib_dim Fock levels)  x  cavity (cav_dim levels)

with the flat index ordering fixed once and for all as s slowest, then m, then n:

    index(s, m, n) = s * vib_dim * cav_dim + m * cav_dim + n,   s in {g: 0, e: 1}.

This matches ``np.kron(ion_op, np.kron(vib_op, cav_op))``, so operators built by
Kronecker products and states built by :func:`basis_state` agree by construction.

Operators are plain dense complex ``np.ndarray`` matrices; at the truncations used
here (at most a few hundred dimensions) sparsity buys nothing and dense arrays keep
the linear algebra exact and obvious. Ladder operators silently drop the coupling
out of the top Fock level, so every evolution run reports top-level population as a
truncation diagnostic (see :mod:`ghz_sim.evolution`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

ION = "ion"
VIB = "vib"
CAV = "cav"
SLOTS = (ION, VIB, CAV)

ION_LABELS = ("g", "e")


@dataclass(frozen=True)
class HilbertShape:
    """Truncation of the tripartite Hilbert space.

    Parameters
    ----------
    vib_dim : int
        Number of vibrational Fock levels kept (phonon truncation).
    cav_dim : int
        Number of cavity Fock levels kept (photon truncation).
    """

    vib_dim: int
    cav_dim: int
    ion_dim: int = 2

    def __post_init__(self):
        if self.ion_dim != 2:
            raise ValueError("ion_dim must be 2 (two-level ion)")
        if self.vib_dim < 1 or self.cav_dim < 1:
            raise ValueError("vib_dim and cav_dim must be >= 1")

    @property
    def total_dim(self) -> int:
        return self.ion_dim * self.vib_dim * self.cav_dim

    def index(self, s: str, m: int, n: int) -> int:
        """Flat index of the basis state |s, m, n>."""
        if s not in ION_LABELS:
            raise IndexError(f"ion label must be 'g' or 'e', got {s!r}")
        if not (0 <= m < self.vib_dim):
            raise IndexError(f"vibrational level m={m} outside [0, {self.vib_dim})")
        if not (0 <= n < self.cav_dim):
            raise IndexError(f"cavity level n={n} outside [0, {self.cav_dim})")
        return ION_LABELS.index(s) * self.vib_dim * self.cav_dim + m * self.cav_dim + n

    def labels(self) -> Iterator[tuple[str, int, int]]:
        """All basis labels (s, m, n) in flat-index order."""
        for s in ION_LABELS:
            for m in range(self.vib_dim):
                for n in range(self.cav_dim):
                    yield (s, m, n)


@dataclass(frozen=True)
class QuantumState:
    """Complex amplitude vector over the |s, m, n> basis of a :class:`HilbertShape`.

    Amplitudes are stored read-only; states are immutable values that callers
    can share without copying.
    """

    shape: HilbertShape
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.shape.total_dim,):
            raise ValueError(
                f"amplitude vector has length {amps.shape}, "
                f"expected ({self.shape.total_dim},)"
            )
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


def ladder_ops(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Truncated lowering and raising operators on a single Fock space.

    ``lower[m-1, m] = sqrt(m)`` for 1 <= m < dim and ``raise = lower†``
    bit for bit. Truncation drops the coupling out of level dim - 1.
    """
    if dim < 1:
        raise ValueError("Fock-space dimension must be >= 1")
    lower = np.zeros((dim, dim), dtype=complex)
    for m in range(1, dim):
        lower[m - 1, m] = np.sqrt(m)
    return lower, lower.conj().T


def pauli_ops() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sigma_z, sigma_plus, sigma_minus) in basis order (g, e).

    Sign convention: |e> is the upper level, sigma_z = diag(-1, +1), and
    sigma_plus |g> = |e>.
    """
    sigma_z = np.diag([-1.0 + 0j, 1.0 + 0j])
    sigma_plus = np.zeros((2, 2), dtype=complex)
    sigma_plus[1, 0] = 1.0
    return sigma_z, sigma_plus, sigma_plus.conj().T


def kron3(ion_op: np.ndarray, vib_op: np.ndarray, cav_op: np.ndarray) -> np.ndarray:
    """Kronecker product ion x vib x cav in the package index ordering."""
    return np.kron(np.asarray(ion_op, dtype=complex),
                   np.kron(np.asarray(vib_op, dtype=complex),
                           np.asarray(cav_op, dtype=complex)))


def basis_state(shape: HilbertShape, s: str, m: int, n: int) -> QuantumState:
    """Unit vector |s, m, n>."""
    amps = np.zeros(shape.total_dim, dtype=complex)
    amps[shape.index(s, m, n)] = 1.0
    return QuantumState(shape, amps)


def partial_trace(state: QuantumState, keep: Iterable[str]) -> np.ndarray:
    """Reduced density matrix of a pure state on the kept subsystems.

    Parameters
    ----------
    keep : iterable of slot names
        Subset of {"ion", "vib", "cav"}; kept slots appear in that canonical
        order in the output regardless of iteration order.

    Returns
    -------
    np.ndarray
        Hermitian, positive semidefinite density matrix with unit trace
        (for a normalized input state).
    """
    keep_set = set(keep)
    if not keep_set:
        raise ValueError("keep must name at least one subsystem")
    unknown = keep_set - set(SLOTS)
    if unknown:
        raise ValueError(f"unknown subsystem(s) {sorted(unknown)}")

    sh = state.shape
    psi = state.amplitudes.reshape(sh.ion_dim, sh.vib_dim, sh.cav_dim)
    kept_axes = [i for i, slot in enumerate(SLOTS) if slot in keep_set]
    traced_axes = [i for i, slot in enumerate(SLOTS) if slot not in keep_set]
    psi = np.transpose(psi, kept_axes + traced_axes)
    d_keep = int(np.prod([psi.shape[i] for i in range(len(kept_axes))]))
    mat = psi.reshape(d_keep, -1)
    return mat @ mat.conj().T
