"""Diagonal transfer-operator synthesis from binary digit expansions.

A basis index is read as a two's-complement signed value
``g = -a_{n-1} * 2**(n-1) + sum_j a_j * 2**j``.  Expanding ``g**p`` over
the binary digits (digits are idempotent, ``a_j**m == a_j``) turns the
transfer phase ``exp(i * phi * g**p)`` into a product of phase gates, one
per surviving digit subset: ``p = 2`` needs exactly ``n*(n+1)/2`` single-
and two-qubit phase gates, and order ``p`` needs ``O(n**p)`` gates with at
most ``p`` qubits each.  The signed frequency layout is encoded by the
sign-bit terms themselves; no index reshuffling happens anywhere.  Each
``phi`` is ``classical_bpm.DispersionPolynomial.phase_angles``, as on the FFT path.
"""
from __future__ import annotations

from functools import cache
from itertools import combinations

from .circuit import MAX_QUBITS, Circuit, Gate, PhaseGate, _shifted, check_integer, scaled_phase
from .classical_bpm import MAX_ORDER, DispersionPolynomial, GridSpec
from .qft import _qft


def signed_index_weights(n: int) -> list[int]:
    """Digit weights of the signed index: ``2**j`` except ``-2**(n-1)`` on top."""
    weights = [1 << j for j in range(n)]
    weights[n - 1] = -weights[n - 1]
    return weights


def decompose_monomial(n: int, p: int) -> list[tuple[tuple[int, ...], int]]:
    """Exact digit-subset expansion of ``g**p`` over ``n`` two's-complement digits.

    Returns ``(qubits, coefficient)`` pairs, ordered by subset size, then
    qubits, without zero coefficients; summing ``coefficient * prod(a_j for
    j in qubits)`` over the result reproduces ``g**p`` exactly for every
    representable signed ``g``.
    """
    # checked before the cache, where 2.0 or True would find the entry of 2 or 1
    check_integer("n", n)
    check_integer("order", p, MAX_ORDER)
    return list(_expansion(int(n), int(p)))


@cache
def _expansion(n: int, p: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The terms of ``decompose_monomial(n, p)``, made once per ``(n, p)``
    per process.  With the digits of ``T`` set, ``g**p = (sum of w over T)**p``
    sums the coefficients of the subsets of ``T``; inclusion-exclusion inverts
    that sum.  Digits are idempotent, so no term has more than ``p`` digits."""
    weights = signed_index_weights(n)
    terms = []
    for subset in (s for size in range(1, p + 1) for s in combinations(range(n), size)):
        w = [weights[j] for j in subset]
        parts = (t for k in range(len(w) + 1) for t in combinations(w, k))
        if c := sum((-1) ** (len(w) - len(t)) * sum(t) ** p for t in parts):
            terms.append((subset, c))
    return tuple(terms)


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
) -> list[tuple[str, tuple[Gate, ...]]]:
    """The ``qft``, ``transfer`` and ``iqft`` parts: forward QFT, the transfer
    phase of every order, then the inverse QFT, both transforms from
    ``_qft(n)``'s cached pair, which also checks ``n``."""
    qft, iqft = _qft(n)
    if grid.n_qubits != n:
        raise ValueError(f"grid has {grid.n_qubits} qubits, expected {n}")
    paraxial = DispersionPolynomial.paraxial(wavelength)  # checks the wavelength
    angles = (polynomial or paraxial).phase_angles(grid, z)
    transfer = tuple(gate for p, phi in angles.items() for gate in _monomial_gates(n, p, phi))
    return [("qft", qft), ("transfer", transfer), ("iqft", iqft)]


def build_qbpm_circuit(
    n: int,
    grid: GridSpec,
    wavelength: float,
    z: float,
    polynomial: DispersionPolynomial | None = None,
) -> Circuit:
    """Full 1D propagation circuit: segments ``qft``, ``transfer`` and ``iqft``.

    The forward transform uses exponent sign -1 and the back transform
    sign +1.  With the default paraxial polynomial the quadratic phase per
    unit ``g**2`` is ``-2 pi**2 z / (N**2 dx**2 k)`` with ``k = 2 pi /
    wavelength``.
    """
    return Circuit.from_segments(n, _propagation_gates(n, grid, wavelength, z, polynomial))


def build_qbpm_circuit_2d(n_per_axis: int, grid: GridSpec, wavelength: float, z: float) -> Circuit:
    """Paraxial propagation circuit on a square register of ``2 * n_per_axis`` qubits.

    The three segments of one axis on ``grid`` act on qubits ``[0, n)``, then
    a copy shifted by ``n`` propagates the other axis on ``[n, 2n)``; the two
    commute, so arbitrary (including non-separable) 2D inputs propagate.
    """
    check_integer("n_per_axis", n_per_axis, MAX_QUBITS // 2)
    axis = _propagation_gates(n_per_axis, grid, wavelength, z, None)
    shifted = [(name, tuple(_shifted(g, n_per_axis) for g in gates)) for name, gates in axis]
    return Circuit.from_segments(2 * n_per_axis, axis + shifted)
