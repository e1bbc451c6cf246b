"""Quantum Fourier transform builder with a pinned exponent sign.

``build_qft(n)`` realizes the unitary with matrix elements
``exp(-2j*pi * g*g' / N) / sqrt(N)`` on the basis indices, including the
final qubit-reversal swaps so output bit order equals input bit order.
The sign -1 matches the ``exp(-i alpha x)`` analysis convention; for even
transfer phases the sign is unobservable, but odd polynomial orders make
it physical.  ``build_iqft(n)`` is its adjoint, ``build_qft(n).inverse()``.
"""
from __future__ import annotations

from functools import cache

from .circuit import TWO_PI, Circuit, Gate, Hadamard, PhaseGate, Swap, check_integer, inverted


def _qft(n: int) -> tuple[tuple[Gate, ...], tuple[Gate, ...]]:
    """Gates of the Fourier transform on ``n`` qubits, and of its inverse.

    The forward transform uses ``n`` Hadamards, ``n*(n-1)/2`` controlled
    phases with angles ``-2*pi / 2**j``, and ``n//2`` explicit
    qubit-reversal swaps; the inverse is those gates ``inverted``.  The
    gates do not depend on anything else, so each ``n``'s pair is made once
    per process and shared: gates are immutable.
    """
    # checked before the cache, where 2.0 or True would find the entry of 2 or 1
    check_integer("n", n)
    return _qft_pair(int(n))


@cache
def _qft_pair(n: int) -> tuple[tuple[Gate, ...], tuple[Gate, ...]]:
    gates: list[Gate] = []
    for target in range(n - 1, -1, -1):
        gates.append(Hadamard(target))
        for control in range(target - 1, -1, -1):
            gates.append(PhaseGate((control, target), -TWO_PI / 2 ** (target - control + 1)))
    gates.extend(Swap(q, n - 1 - q) for q in range(n // 2))
    return tuple(gates), inverted(gates)


def build_qft(n: int) -> Circuit:
    """Forward (sign -1) Fourier-transform circuit on ``n`` qubits."""
    return Circuit(n, _qft(n)[0])


def build_iqft(n: int) -> Circuit:
    """Exact adjoint of ``build_qft(n)``."""
    return build_qft(n).inverse()
