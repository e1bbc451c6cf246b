"""Dense statevector register with gate application and basis sampling."""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby

import numpy as np

from .circuit import Gate, Hadamard, PhaseGate, Swap
from .classical_bpm import is_power_of_two

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class SampleCounts:
    """Histogram of ``total_shots`` basis-state measurements.

    ``counts[i]`` is the number of shots that collapsed onto basis index
    ``i``: a dense 1-D integer array with one entry per basis state.
    """

    counts: np.ndarray
    total_shots: int

    def __post_init__(self) -> None:
        counts = self.counts
        integer = isinstance(counts, np.ndarray) and counts.dtype.kind in "iu"
        if not integer or counts.ndim != 1:
            raise ValueError("counts must be a 1-D integer array")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        if int(counts.sum()) != self.total_shots:
            raise ValueError("counts must sum to total_shots")

    def frequencies(self) -> np.ndarray:
        """Empirical probability of each basis index."""
        return self.counts / float(self.total_shots)


def _check_register(gate: Gate, n_qubits: int) -> None:
    if max(gate.qubits) >= n_qubits:
        raise ValueError(f"gate {gate} exceeds register of {n_qubits} qubits")


def _apply_inplace(amplitudes: np.ndarray, n_qubits: int, gate: Gate) -> None:
    _check_register(gate, n_qubits)
    if isinstance(gate, Hadamard):
        halves = amplitudes.reshape(-1, 2, 1 << gate.target)
        a = halves[:, 0, :].copy()
        b = halves[:, 1, :]
        halves[:, 0, :] = (a + b) * _INV_SQRT2
        halves[:, 1, :] = (a - b) * _INV_SQRT2
    elif isinstance(gate, Swap):
        lo, hi = sorted((gate.a, gate.b))
        view = amplitudes.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
        tmp = view[:, 0, :, 1, :].copy()
        view[:, 0, :, 1, :] = view[:, 1, :, 0, :]
        view[:, 1, :, 0, :] = tmp
    else:
        raise TypeError(f"unknown gate type {type(gate).__name__}")


def _phase_diagonal(masks: np.ndarray, phis: np.ndarray, span: int) -> np.ndarray:
    """``exp(i * theta)`` over the ``2**span`` basis indices of ``span`` qubits.

    ``theta[b]`` sums the ``phi`` of every mask whose bits are all 1 in
    ``b``.  Each gate's ``exp(i * phi)`` is multiplied onto its mask, then
    a product (zeta) transform, one pass per qubit, multiplies every entry
    into all its supersets.  Before the pass over qubit ``q`` an entry
    differs from 1 only if its bits from ``q`` up are those of a mask, so
    the pass touches only the rows of masks with bit ``q`` clear.
    """
    diagonal = np.ones(1 << span, dtype=np.complex128)
    np.multiply.at(diagonal, masks, np.exp(1j * phis))
    for q in range(span):
        marker = np.zeros(1 << (span - q - 1), dtype=bool)
        marker[masks[(masks >> q) & 1 == 0] >> (q + 1)] = True
        rows = np.flatnonzero(marker)
        halves = diagonal.reshape(-1, 2, 1 << q)
        halves[rows, 1, :] *= halves[rows, 0, :]
    return diagonal


def _apply_phase_run(amplitudes: np.ndarray, n_qubits: int, gates: list[PhaseGate]) -> None:
    """Apply a run of phase gates as diagonals split at its highest qubit ``h``.

    The gates without ``h`` multiply every amplitude by a diagonal over
    qubits ``0..h-1``; the gates with ``h``, ``h`` dropped, multiply only
    the amplitudes where ``h`` is 1.  No diagonal spans more than ``2**h``.
    """
    masks = np.empty(len(gates), dtype=np.intp)
    for i, gate in enumerate(gates):
        _check_register(gate, n_qubits)
        masks[i] = sum(1 << q for q in gate.qubits)
    phis = np.array([gate.phi for gate in gates])
    h = int(masks.max()).bit_length() - 1
    top = 1 << h
    halves = amplitudes.reshape(-1, 2, top)
    with_top = masks >= top
    if not with_top.all():
        halves *= _phase_diagonal(masks[~with_top], phis[~with_top], h)
    halves[:, 1, :] *= _phase_diagonal(masks[with_top] - top, phis[with_top], h)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm register of ``2**n_qubits`` complex amplitudes.

    Qubit ``j`` carries binary digit ``a_j`` of the basis index, with
    qubit 0 the least significant bit.  Gate application returns a new
    state; a ``StateVector`` is never mutated after construction.
    """

    n_qubits: int
    amplitudes: np.ndarray

    @classmethod
    def from_amplitudes(cls, values) -> "StateVector":
        """Normalize ``values`` into a state; length must be a power of two >= 2."""
        arr = np.ravel(np.asarray(values, dtype=np.complex128))
        if len(arr) < 2 or not is_power_of_two(len(arr)):
            raise ValueError(f"amplitude count must be a power of two >= 2, got {len(arr)}")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        with np.errstate(over="ignore", under="ignore"):
            norm = np.linalg.norm(arr)
        if not 0.0 < norm < np.inf:
            if not np.any(arr):
                raise ValueError("amplitudes must not all be zero")
            raise ValueError("the norm of the amplitudes overflows or underflows float64")
        return cls(len(arr).bit_length() - 1, arr / norm)

    @classmethod
    def basis_state(cls, n_qubits: int, index: int = 0) -> "StateVector":
        if n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
        if not 0 <= index < 1 << n_qubits:
            raise ValueError(f"index must be in 0..{(1 << n_qubits) - 1}, got {index}")
        amplitudes = np.zeros(1 << n_qubits, dtype=np.complex128)
        amplitudes[index] = 1.0
        return cls(n_qubits, amplitudes)

    @property
    def n_states(self) -> int:
        return 1 << self.n_qubits

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        """Collapse probability of each basis index, ``|amplitude|**2``."""
        return np.abs(self.amplitudes) ** 2

    def apply_sequence(self, gates) -> "StateVector":
        """State after a gate sequence, applied in order; norm is preserved.

        Each maximal run of consecutive phase gates is applied as one
        diagonal.
        """
        n = self.n_qubits
        amplitudes = self.amplitudes.copy()
        for is_phase, run in groupby(gates, key=lambda gate: isinstance(gate, PhaseGate)):
            if is_phase:
                _apply_phase_run(amplitudes, n, list(run))
            else:
                for gate in run:
                    _apply_inplace(amplitudes, n, gate)
        return StateVector(n, amplitudes)

    @cached_property
    def _sampling_distribution(self) -> np.ndarray:
        # normalized once per state; every draw from it reuses the same p
        p = self.probabilities()
        return p / p.sum()

    def sample(self, n_shots: int, seed: int) -> SampleCounts:
        """Multinomial draw of ``n_shots`` basis indices; deterministic per seed."""
        if not isinstance(n_shots, numbers.Integral) or n_shots < 1:
            raise ValueError(f"n_shots must be an integer >= 1, got {n_shots!r}")
        draws = np.random.default_rng(seed).multinomial(n_shots, self._sampling_distribution)
        return SampleCounts(draws, n_shots)
