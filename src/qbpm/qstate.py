"""Dense statevector register with gate application and basis sampling.

``StateVector.apply_sequence`` compiles a gate sequence into a plan and
runs it on one copy of the amplitudes.  The plan has three kinds of step,
each with one kernel:

- a dense window: Hadamards and phase gates on at most ``R`` consecutive
  qubits, multiplied into one ``2**w x 2**w`` matrix and applied in place
  with ``np.matmul``, about ``_CHUNK`` amplitudes at a time;
- a diagonal run: adjacent phase gates that no window takes, applied as
  one diagonal built by a product transform;
- a permutation: a maximal run of swaps, applied as one transposed copy.

The plan moves a phase gate only past phase gates and past Hadamards on
other qubits, which commute with it, so it equals the gate-by-gate product
up to rounding.  On the QFT the windows are a radix-``2**R`` Cooley-Tukey
schedule, found from the gates.  No window or diagonal run crosses a swap
run, and none crosses the QFT / transfer / inverse-QFT boundaries of a
propagation circuit, so running those slices one after another executes
the same steps as running the whole circuit.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuit import Hadamard, PhaseGate, Swap, check_qubits, check_register
from .classical_bpm import is_power_of_two

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

R = 5  # widest dense window, in qubits
_CHUNK = 1 << 16  # amplitudes per window block: 1 MiB of complex128


@dataclass(frozen=True, eq=False)
class SampleCounts:
    """Histogram of basis-state measurements.

    ``counts[i]`` is the number of shots that collapsed onto basis index
    ``i``: a dense 1-D integer array with one entry per basis state.
    """

    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = self.counts
        integer = isinstance(counts, np.ndarray) and counts.dtype.kind in "iu"
        if not integer or counts.ndim != 1:
            raise ValueError("counts must be a 1-D integer array")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        # frequencies() divides by the total
        if not counts.any():
            raise ValueError("counts must hold at least one shot")

    @property
    def total_shots(self) -> int:
        return int(self.counts.sum())

    def frequencies(self) -> np.ndarray:
        """Empirical probability of each basis index."""
        return self.counts / float(self.total_shots)


def _span(bits: int) -> tuple[int, int]:
    """Lowest set bit of ``bits`` and the width from it to the highest."""
    lo = (bits & -bits).bit_length() - 1
    return lo, bits.bit_length() - lo


class _Window:
    """Hadamards and phase gates gathered on at most ``R`` consecutive qubits.

    A phase gate joins when it fits and touches both a Hadamarded qubit and
    one without a Hadamard; one on no Hadamarded qubit is hoisted before
    the window, and any other is deferred after it.  A Hadamard joins only
    on a qubit that a joined phase gate brought in and that no deferred
    gate touches.  So a gate is only moved past gates it commutes with.
    A phase gate on Hadamarded qubits only could join too; it is deferred
    so that no window takes in a transfer layer, and the QFT, transfer and
    inverse-QFT slices compile to the same steps alone as together.
    Masks are bit sets of qubits.
    """

    def __init__(self, target: int) -> None:
        self.members = self.hadamarded = 1 << target
        self.ops: list = [target]  # a Hadamard target or a (mask, phi) pair
        self.deferred: list[tuple[int, float]] = []
        self.deferred_bits = 0

    def add_hadamard(self, target: int) -> bool:
        """Join a Hadamard on ``target``; False if it closes the window."""
        bit = 1 << target
        if not bit & self.members & ~self.hadamarded & ~self.deferred_bits:
            return False
        self.ops.append(target)
        self.hadamarded |= bit
        return True

    def add_phase(self, mask: int, phi: float) -> bool:
        """Join or defer a phase gate; False if it is hoisted before the window."""
        if not mask & self.hadamarded:
            return False
        members = self.members | mask
        if mask & ~self.hadamarded and _span(members)[1] <= R:
            self.ops.append((mask, phi))
            self.members = members
        else:
            self.deferred.append((mask, phi))
            self.deferred_bits |= mask
        return True

    def matrix(self) -> tuple[int, np.ndarray]:
        """Lowest qubit and ``2**w x 2**w`` matrix of the window's gates,
        applied in order to the identity."""
        lo, width = _span(self.members)
        matrix = np.eye(1 << width, dtype=np.complex128)
        index = np.arange(1 << width)
        for op in self.ops:
            if isinstance(op, int):
                halves = matrix.reshape(-1, 2, 1 << (op - lo + width))
                a = halves[:, 0].copy()
                b = halves[:, 1]
                halves[:, 0] = (a + b) * _INV_SQRT2
                halves[:, 1] = (a - b) * _INV_SQRT2
            else:
                mask, phi = op[0] >> lo, op[1]
                matrix[index & mask == mask] *= np.exp(1j * phi)
        return lo, matrix


def _apply_window(amplitudes: np.ndarray, lo: int, matrix: np.ndarray) -> None:
    """Multiply the amplitudes of qubits ``lo..lo+w-1`` by a ``2**w`` matrix
    in place, through a temporary of about ``_CHUNK`` amplitudes."""
    size = len(matrix)
    view = amplitudes.reshape(-1, size, 1 << lo)
    rows = max(1, _CHUNK // view[0].size)
    cols = min(1 << lo, _CHUNK // size)
    for r in range(0, len(view), rows):
        for c in range(0, 1 << lo, cols):
            block = view[r : r + rows, :, c : c + cols]
            if lo:
                block[...] = np.matmul(matrix, block)
            else:  # one product over all rows, not one matrix-vector product per row
                block[..., 0] = block[..., 0] @ matrix.T


def _permute(amplitudes: np.ndarray, source: list[int]) -> None:
    """Move qubit ``source[q]`` to qubit ``q``, for every ``q``, with one
    transposed copy."""
    n = len(source)
    tensor = amplitudes.reshape((2,) * n)
    # tensor axis k holds qubit n - 1 - k
    tensor[...] = tensor.transpose([n - 1 - source[q] for q in reversed(range(n))]).copy()


def _phase_diagonal(masks: np.ndarray, phis: np.ndarray, span: int) -> np.ndarray:
    """``exp(i * theta)`` over the ``2**span`` basis indices of ``span`` qubits.

    ``theta[b]`` sums the ``phi`` of every mask whose bits are all 1 in
    ``b``.  Each gate's ``exp(i * phi)`` is multiplied onto its mask, then
    a product (zeta) transform, one pass per qubit, multiplies every entry
    into all its supersets.  Before the pass over qubit ``q`` an entry
    differs from 1 only if its bits from ``q`` up are those of a mask, so
    the pass touches only the rows of masks with bit ``q`` clear.  When
    those rows are one contiguous range, as on the high qubits of a QFT or
    transfer run, the pass multiplies through a slice, not an index array.
    """
    diagonal = np.ones(1 << span, dtype=np.complex128)
    np.multiply.at(diagonal, masks, np.exp(1j * phis))
    for q in range(span):
        marker = np.zeros(1 << (span - q - 1), dtype=bool)
        marker[masks[(masks >> q) & 1 == 0] >> (q + 1)] = True
        rows = np.flatnonzero(marker)
        if len(rows) and rows[-1] - rows[0] + 1 == len(rows):
            rows = slice(rows[0], rows[-1] + 1)
        halves = diagonal.reshape(-1, 2, 1 << q)
        halves[rows, 1, :] *= halves[rows, 0, :]
    return diagonal


def _apply_phase_run(amplitudes: np.ndarray, masks: np.ndarray, phis: np.ndarray) -> None:
    """Apply a run of phase gates as diagonals split at its highest qubit ``h``.

    The gates without ``h`` multiply every amplitude by a diagonal over
    qubits ``0..h-1``; the gates with ``h``, ``h`` dropped, multiply only
    the amplitudes where ``h`` is 1.  No diagonal spans more than ``2**h``.
    """
    h = int(masks.max()).bit_length() - 1
    top = 1 << h
    halves = amplitudes.reshape(-1, 2, top)
    with_top = masks >= top
    if not with_top.all():
        halves *= _phase_diagonal(masks[~with_top], phis[~with_top], h)
    halves[:, 1, :] *= _phase_diagonal(masks[with_top] - top, phis[with_top], h)


def _compile(gates, n_qubits: int) -> list[tuple]:
    """Plan of ``(kernel, *args)`` steps equal to applying ``gates`` in
    order; every gate is checked against the register first."""
    plan: list[tuple] = []
    pending: list[tuple[int, float]] = []  # phase gates placed before the open window
    window: _Window | None = None
    source: list[int] | None = None  # net permutation of the open swap run

    def place_phases() -> None:
        if pending:
            masks, phis = zip(*pending)
            plan.append((_apply_phase_run, np.array(masks, dtype=np.intp), np.array(phis)))
            pending.clear()

    def close_window() -> None:
        nonlocal window
        if window is not None:
            place_phases()
            plan.append((_apply_window, *window.matrix()))
            pending.extend(window.deferred)
            window = None

    def close_swap_run() -> None:
        nonlocal source
        if source is not None and source != sorted(source):
            plan.append((_permute, source))
        source = None

    for gate in gates:
        check_register(gate, n_qubits)
        if isinstance(gate, Swap):
            if source is None:
                close_window()
                place_phases()
                source = list(range(n_qubits))
            source[gate.a], source[gate.b] = source[gate.b], source[gate.a]
            continue
        close_swap_run()
        # int(): numpy integer qubits would make numpy integer masks
        if isinstance(gate, PhaseGate):
            mask = sum(1 << int(q) for q in gate.qubits)
            if window is None or not window.add_phase(mask, gate.phi):
                pending.append((mask, gate.phi))
        elif isinstance(gate, Hadamard):
            target = int(gate.target)
            if window is None or not window.add_hadamard(target):
                close_window()
                window = _Window(target)
        else:
            raise TypeError(f"unknown gate type {type(gate).__name__}")
    close_window()
    place_phases()
    close_swap_run()
    return plan


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm register of ``2**n_qubits`` complex amplitudes, ``n_qubits``
    read from their count.  Qubit ``j`` carries binary digit ``a_j`` of the
    basis index, with qubit 0 the least significant bit.  Gate application
    returns a new state; a ``StateVector`` is never mutated after construction.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        count = len(self.amplitudes)
        if count < 2 or not is_power_of_two(count):
            raise ValueError(f"amplitude count must be a power of two >= 2, got {count}")

    @classmethod
    def from_amplitudes(cls, values) -> "StateVector":
        """Normalize ``values`` into a state; length must be a power of two >= 2."""
        arr = np.ravel(np.asarray(values, dtype=np.complex128))
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        with np.errstate(over="ignore", under="ignore"):
            norm = np.linalg.norm(arr)
        if not 0.0 < norm < np.inf:
            if not np.any(arr):
                raise ValueError("amplitudes must not all be zero")
            raise ValueError("the norm of the amplitudes overflows or underflows float64")
        return cls(arr / norm)

    @classmethod
    def basis_state(cls, n_qubits: int, index: int = 0) -> "StateVector":
        check_qubits("n_qubits", n_qubits)
        if not 0 <= index < 1 << n_qubits:
            raise ValueError(f"index must be in 0..{(1 << n_qubits) - 1}, got {index}")
        amplitudes = np.zeros(1 << n_qubits, dtype=np.complex128)
        amplitudes[index] = 1.0
        return cls(amplitudes)

    @property
    def n_qubits(self) -> int:
        return len(self.amplitudes).bit_length() - 1

    @property
    def n_states(self) -> int:
        return len(self.amplitudes)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        """Collapse probability of each basis index, ``|amplitude|**2``."""
        return np.abs(self.amplitudes) ** 2

    def apply_sequence(self, gates) -> "StateVector":
        """State after a gate sequence, applied in order; norm is preserved.

        The sequence is compiled into dense windows, diagonal runs and swap
        permutations (see the module docstring), which run on one copy of
        the amplitudes.
        """
        plan = _compile(gates, self.n_qubits)
        amplitudes = self.amplitudes.copy()
        for kernel, *args in plan:
            kernel(amplitudes, *args)
        return StateVector(amplitudes)

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
        return SampleCounts(draws)
