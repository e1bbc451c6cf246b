"""Quantum Fourier transform builders with a pinned exponent sign.

``build_qft(n)`` realizes the unitary with matrix elements
``exp(-2j*pi * g*g' / N) / sqrt(N)`` on the basis indices, including the
final qubit-reversal swaps so output bit order equals input bit order.
The sign -1 matches the ``exp(-i alpha x)`` analysis convention; for even
transfer phases the sign is unobservable, but odd polynomial orders make
it physical.  ``build_iqft(n)`` is its adjoint: the sign +1 transform with
its gates in reverse order.
"""
from __future__ import annotations

from functools import cache

from .circuit import TWO_PI, Circuit, Gate, Hadamard, PhaseGate, Swap, check_qubits

FORWARD = -1
BACKWARD = +1


def _qft(n: int, sign: int) -> tuple[Gate, ...]:
    """Gates of the Fourier transform on ``n`` qubits with exponent ``sign``.

    Uses ``n`` Hadamards, ``n*(n-1)/2`` controlled phases with angles
    ``sign * 2*pi / 2**j``, and ``n//2`` explicit qubit-reversal swaps.
    The gates do not depend on anything else, so each ``(n, sign)`` is made
    once per process and shared: gates are immutable.
    """
    # checked before the cache, where 2.0 or True would find the entry of 2 or 1
    check_qubits("n", n)
    return _qft_gates(int(n), sign)


@cache
def _qft_gates(n: int, sign: int) -> tuple[Gate, ...]:
    gates: list[Gate] = []
    for target in range(n - 1, -1, -1):
        gates.append(Hadamard(target))
        for control in range(target - 1, -1, -1):
            angle = sign * TWO_PI / 2 ** (target - control + 1)
            gates.append(PhaseGate((control, target), angle))
    gates.extend(Swap(q, n - 1 - q) for q in range(n // 2))
    return tuple(gates)


def build_qft(n: int) -> Circuit:
    """Forward (sign -1) Fourier-transform circuit on ``n`` qubits."""
    return Circuit(n, _qft(n, FORWARD))


def build_iqft(n: int) -> Circuit:
    """Exact adjoint of ``build_qft(n)``: Hadamards and swaps are
    self-inverse, so reversing the sign +1 transform negates every phase."""
    return Circuit(n, reversed(_qft(n, BACKWARD)))
