"""Quantum Fourier transform builders with a pinned exponent sign.

``build_qft(n)`` realizes the unitary with matrix elements
``exp(-2j*pi * g*g' / N) / sqrt(N)`` on the basis indices, including the
final qubit-reversal swaps so output bit order equals input bit order.
The sign -1 matches the ``exp(-i alpha x)`` analysis convention; for even
transfer phases the sign is unobservable, but odd polynomial orders make
it physical.  ``build_iqft(n)`` is its adjoint: the sign +1 transform with
its gates in reverse order.  A dense matrix transform with either sign is
provided as the verification oracle.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .circuit import MAX_QUBITS, TWO_PI, Circuit, Hadamard, PhaseGate, Swap
from .classical_bpm import is_power_of_two

FORWARD = -1
BACKWARD = +1

# largest oracle register: its dense matrix holds 4**12 complex values, 256 MiB
_MAX_ORACLE_QUBITS = 12


def _check_args(n: int, sign: int) -> None:
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in 1..{MAX_QUBITS}, got {n}")
    if sign not in (FORWARD, BACKWARD):
        raise ValueError(f"sign must be +1 or -1, got {sign}")


def _qft(n: int, sign: int) -> Circuit:
    """Fourier-transform circuit on ``n`` qubits with the given exponent sign.

    Uses ``n`` Hadamards, ``n*(n-1)/2`` controlled phases with angles
    ``sign * 2*pi / 2**j``, and ``n//2`` explicit qubit-reversal swaps.
    """
    _check_args(n, sign)
    circuit = Circuit(n)
    for target in range(n - 1, -1, -1):
        circuit.append(Hadamard(target))
        for control in range(target - 1, -1, -1):
            angle = sign * TWO_PI / 2 ** (target - control + 1)
            circuit.append(PhaseGate((control, target), angle))
    for q in range(n // 2):
        circuit.append(Swap(q, n - 1 - q))
    return circuit


def build_qft(n: int) -> Circuit:
    """Forward (sign -1) Fourier-transform circuit on ``n`` qubits."""
    return _qft(n, FORWARD)


def build_iqft(n: int) -> Circuit:
    """Exact adjoint of ``build_qft(n)``: Hadamards and swaps are
    self-inverse, so reversing the sign +1 transform negates every phase."""
    return Circuit(n, reversed(_qft(n, BACKWARD).gates))


@lru_cache(maxsize=8)
def _dft_matrix(n: int, sign: int) -> np.ndarray:
    n_states = 1 << n
    idx = np.arange(n_states)
    return np.exp(sign * 2j * np.pi / n_states * np.outer(idx, idx)) / np.sqrt(n_states)


def dft_oracle(values, sign: int = FORWARD) -> np.ndarray:
    """Unitary-normalized discrete Fourier transform by dense matrix product.

    Deliberately independent of the circuit path; O(N**2) is acceptable at
    verification scale, up to ``N = 2**12``.
    """
    arr = np.asarray(values, dtype=np.complex128)
    if arr.ndim != 1 or not is_power_of_two(len(arr)) or len(arr) < 2:
        raise ValueError("input length must be a power of two >= 2")
    n = len(arr).bit_length() - 1
    if n > _MAX_ORACLE_QUBITS:
        raise ValueError(f"oracle supports at most {_MAX_ORACLE_QUBITS} qubits, got {n}")
    _check_args(n, sign)
    return _dft_matrix(n, sign) @ arr
