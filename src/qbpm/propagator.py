"""Diagonal transfer-operator synthesis from binary digit expansions.

A basis index is read as a two's-complement signed value
``g = -a_{n-1} * 2**(n-1) + sum_j a_j * 2**j``.  Expanding ``g**p`` over
the binary digits (digits are idempotent, ``a_j**m == a_j``) turns the
transfer phase ``exp(i * phi * g**p)`` into a product of phase gates, one
per surviving digit subset: ``p = 2`` needs exactly ``n*(n+1)/2`` single-
and two-qubit phase gates, and order ``p`` needs ``O(n**p)`` gates with at
most ``p`` qubits each.  The signed frequency layout is encoded by the
sign-bit terms themselves; no index reshuffling happens anywhere.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cache
from typing import Mapping

from .circuit import MAX_QUBITS, Circuit, Gate, PhaseGate, _shifted, check_qubits, scaled_phase
from .classical_bpm import GridSpec, check_propagation_args, wavenumber
from .qft import BACKWARD, FORWARD, _qft

MAX_ORDER = 4


def _check_order(name: str, p) -> None:
    """Polynomial order ``p`` is an integer in ``1..MAX_ORDER``."""
    # bool is an Integral, but True is no order
    integer = isinstance(p, numbers.Integral) and not isinstance(p, bool)
    if not (integer and 1 <= p <= MAX_ORDER):
        raise ValueError(f"{name} must be an integer in 1..{MAX_ORDER}, got {p}")


@dataclass(frozen=True)
class DispersionPolynomial:
    """Transfer-phase polynomial: phase ``= sum_p orders[p] * alpha**p * z``."""

    orders: Mapping[int, float]

    def __post_init__(self) -> None:
        orders = dict(self.orders)
        for p, c in orders.items():
            _check_order("polynomial order", p)
            if not math.isfinite(c):
                raise ValueError(f"coefficient of order {p} must be finite, got {c}")
        object.__setattr__(self, "orders", orders)

    @classmethod
    def paraxial(cls, wavelength: float) -> "DispersionPolynomial":
        """Quadratic truncation of the free-space dispersion, ``-alpha**2 / (2 k)``."""
        return cls({2: -1.0 / (2.0 * wavenumber(wavelength))})

    def phase_angles(self, grid: GridSpec, z: float) -> dict[int, float]:
        """Per-order phase per unit ``g**p`` after discretizing ``alpha = g * d_alpha``;
        an angle that overflows float64 or is not finite raises ``ValueError``."""
        try:
            angles = {p: c * grid.d_alpha**p * z for p, c in sorted(self.orders.items())}
            if all(map(math.isfinite, angles.values())):
                return angles
        except OverflowError:  # d_alpha**p of a tiny grid spacing
            pass
        raise ValueError(f"phase must be finite: the transfer phase overflows at z = {z}")


def signed_index_weights(n: int) -> list[int]:
    """Digit weights of the signed index: ``2**j`` except ``-2**(n-1)`` on top."""
    weights = [1 << j for j in range(n)]
    weights[n - 1] = -weights[n - 1]
    return weights


def decompose_monomial(n: int, p: int) -> list[tuple[tuple[int, ...], int]]:
    """Exact digit-subset expansion of ``g**p`` over ``n`` two's-complement digits.

    Returns ``(qubits, coefficient)`` pairs, ordered by subset size, then
    qubits.  Repeated digits collapse (``a_j**m == a_j``), coefficients of
    identical subsets merge, and zero coefficients are dropped; summing
    ``coefficient * prod(a_j for j in qubits)`` over the result reproduces
    ``g**p`` exactly for every representable signed ``g``.
    """
    # checked before the cache, where 2.0 or True would find the entry of 2 or 1
    check_qubits("n", n)
    _check_order("order", p)
    return list(_expansion(int(n), int(p)))


@cache
def _expansion(n: int, p: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The terms of ``decompose_monomial(n, p)``, made once per ``(n, p)``
    per process: they do not depend on the phase."""
    weights = signed_index_weights(n)
    terms: dict[frozenset[int], int] = {frozenset((j,)): weights[j] for j in range(n)}
    for _ in range(p - 1):
        product: dict[frozenset[int], int] = {}
        for subset, coefficient in terms.items():
            for j in range(n):
                key = subset | {j}
                product[key] = product.get(key, 0) + coefficient * weights[j]
        terms = product
    nonzero = ((tuple(sorted(subset)), c) for subset, c in terms.items() if c != 0)
    return tuple(sorted(nonzero, key=lambda item: (len(item[0]), item[0])))


def _monomial_gates(n: int, p: int, phi: float) -> list[Gate]:
    return [PhaseGate(qubits, scaled_phase(phi, c)) for qubits, c in decompose_monomial(n, p)]


def build_monomial_propagator(n: int, p: int, phi: float) -> Circuit:
    """Diagonal circuit applying ``exp(i * phi * g**p)`` to every basis state.

    Emits one :class:`PhaseGate` per monomial term, on the term's qubits,
    with the term coefficient times ``phi`` folded into (-pi, pi].
    """
    return Circuit(n, _monomial_gates(n, p, phi))


def _propagation_gates(
    n: int, grid: GridSpec, wavelength: float, z: float, polynomial: DispersionPolynomial | None
) -> list[Gate]:
    """Forward QFT, the transfer phase of every order, then the inverse QFT
    (the sign +1 transform reversed)."""
    gates = list(_qft(n, FORWARD))  # checks n first
    if grid.n_qubits != n:
        raise ValueError(f"grid has {grid.n_qubits} qubits, expected {n}")
    check_propagation_args(wavelength, z)
    if polynomial is None:
        polynomial = DispersionPolynomial.paraxial(wavelength)
    for p, phi in polynomial.phase_angles(grid, z).items():
        gates += _monomial_gates(n, p, phi)
    gates += reversed(_qft(n, BACKWARD))
    return gates


def build_qbpm_circuit(
    n: int,
    grid: GridSpec,
    wavelength: float,
    z: float,
    polynomial: DispersionPolynomial | None = None,
) -> Circuit:
    """Full 1D propagation circuit: forward QFT, diagonal phases, inverse QFT.

    The forward transform uses exponent sign -1 and the back transform
    sign +1.  With the default paraxial polynomial the quadratic phase per
    unit ``g**2`` is ``-2 pi**2 z / (N**2 dx**2 k)`` with ``k = 2 pi /
    wavelength``.
    """
    return Circuit(n, _propagation_gates(n, grid, wavelength, z, polynomial))


def build_qbpm_circuit_2d(
    n_per_axis: int,
    grid: GridSpec,
    wavelength: float,
    z: float,
    polynomial: DispersionPolynomial | None = None,
) -> Circuit:
    """Propagation circuit on a square register of ``2 * n_per_axis`` qubits.

    The pipeline for one axis on ``grid`` acts on qubits ``[0, n)``, and a
    copy shifted by ``n`` propagates the other axis on ``[n, 2n)``; the two
    commute, so arbitrary (including non-separable) 2D inputs propagate.
    """
    check_qubits("n_per_axis", n_per_axis, MAX_QUBITS // 2)
    axis = _propagation_gates(n_per_axis, grid, wavelength, z, polynomial)
    return Circuit(2 * n_per_axis, axis + [_shifted(g, n_per_axis) for g in axis])
