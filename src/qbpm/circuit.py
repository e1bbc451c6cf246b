"""Gate descriptors, the fixed gate-tuple circuit, gate counting, and OpenQASM export."""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence, Union

TWO_PI = 2.0 * math.pi

# Qubit budget shared by every builder and command: 2**24 complex128
# amplitudes are 256 MiB.  Two-axis registers get MAX_QUBITS // 2 per axis.
MAX_QUBITS = 24

# 2*pi to 50 decimal digits as the ratio of two integers, used to reduce
# large integer multiples of a phase without the rounding a double-precision
# product would introduce.
_TWO_PI_NUMERATOR = 628318530717958647692528676655900576839433879875021
_TWO_PI_DENOMINATOR = 10**50


def check_integer(name: str, value, limit: int = MAX_QUBITS) -> None:
    """The one integer-range check, of a register size or polynomial order."""
    # bool is an Integral, but True is no size or order
    integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integer and 1 <= value <= limit):
        raise ValueError(f"{name} must be an integer in 1..{limit}, got {value}")


def fold_phase(phi: float) -> float:
    """Reduce an angle into (-pi, pi]."""
    r = math.fmod(phi, TWO_PI)
    if r > math.pi:
        r -= TWO_PI
    elif r <= -math.pi:
        r += TWO_PI
    return r


def scaled_phase(phi: float, coefficient: int) -> float:
    """``coefficient * phi`` reduced into (-pi, pi].

    The product is reduced modulo the 50-digit ``2*pi`` in exact integer
    arithmetic; coefficients such as ``2**(n+l)`` would otherwise push the
    reduction error well above the per-gate phase accuracy the diagonal
    synthesis relies on.  With ``phi = a / b`` exactly, the multiple of
    ``2*pi`` nearest the product is taken, ties to even, and the remainder
    is one correctly rounded integer division: the same double, signed zero
    included, as the product and reduction done in ``Fraction`` arithmetic.
    """
    if not math.isfinite(phi):
        raise ValueError(f"phase must be finite, got {phi}")
    a, b = phi.as_integer_ratio()
    # coefficient * phi / (2*pi) = numerator / denominator; index() makes a
    # numpy integer coefficient a Python int, which cannot overflow
    numerator = a * operator.index(coefficient) * _TWO_PI_DENOMINATOR
    denominator = b * _TWO_PI_NUMERATOR
    multiple, remainder = divmod(numerator, denominator)
    if 2 * remainder > denominator or (2 * remainder == denominator and multiple % 2):
        remainder -= denominator  # round the multiple up
    return fold_phase(remainder / (b * _TWO_PI_DENOMINATOR))


def _check_indices(*indices: int) -> None:
    for q in indices:
        # a plain int passes without the costlier Integral check; bool is an
        # Integral, but would export as q[True]
        if type(q) is not int and (isinstance(q, bool) or not isinstance(q, numbers.Integral)):
            raise ValueError(f"qubit index must be an integer, got {q!r}")
        if q < 0:
            raise ValueError(f"qubit index must be non-negative, got {q}")
    if len(set(indices)) != len(indices):
        raise ValueError(f"qubit indices must be distinct, got {indices}")


@dataclass(frozen=True)
class Hadamard:
    target: int

    def __post_init__(self) -> None:
        _check_indices(self.target)

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.target,)


@dataclass(frozen=True)
class PhaseGate:
    """exp(i*phi) on basis states where every listed qubit is 1.

    One qubit is a plain phase gate, two a controlled phase, three or more
    a multi-controlled phase.  The gate is symmetric in its qubits, which
    are stored sorted.
    """

    qubits: tuple[int, ...]
    phi: float

    def __post_init__(self) -> None:
        qubits = tuple(sorted(self.qubits))
        if not qubits:
            raise ValueError("a phase gate needs at least one qubit")
        _check_indices(*qubits)
        if not math.isfinite(self.phi):
            raise ValueError(f"phase must be finite, got {self.phi}")
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "phi", fold_phase(self.phi))


@dataclass(frozen=True)
class Swap:
    a: int
    b: int

    def __post_init__(self) -> None:
        _check_indices(self.a, self.b)

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.a, self.b)


Gate = Union[Hadamard, PhaseGate, Swap]

GATE_KINDS = ("Hadamard", "Phase", "ControlledPhase", "MultiControlledPhase", "Swap")


def _kind(gate: Gate) -> str:
    """``GATE_KINDS`` label; a phase gate is labelled by its arity."""
    if isinstance(gate, PhaseGate):
        return GATE_KINDS[min(len(gate.qubits), 3)]
    return type(gate).__name__


def _shifted(gate: Gate, offset: int) -> Gate:
    if isinstance(gate, PhaseGate):
        return PhaseGate(tuple(q + offset for q in gate.qubits), gate.phi)
    if isinstance(gate, Hadamard):
        return Hadamard(gate.target + offset)
    return Swap(gate.a + offset, gate.b + offset)


def inverted(gates: Sequence[Gate]) -> tuple[Gate, ...]:
    """The adjoint's gates: ``gates`` reversed, each phase negated;
    Hadamards and swaps are their own inverses."""
    return tuple(
        PhaseGate(g.qubits, -g.phi) if isinstance(g, PhaseGate) else g for g in reversed(gates)
    )


def check_register(gate: Gate, n_qubits: int) -> None:
    """Reject ``gate`` if it acts on a qubit outside a register of ``n_qubits``."""
    if max(gate.qubits) >= n_qubits:
        raise ValueError(f"gate {gate} exceeds register of {n_qubits} qubits")


class Circuit:
    """Fixed sequence of gates on a register of ``n_qubits`` qubits.

    The whole sequence is given when the circuit is made, checked against
    the register and kept as the tuple ``gates``; nothing changes it
    afterwards, so a circuit can be shared freely and a slice of its gates
    stays valid; running, counting and export ignore its named ``segments``.
    """

    def __init__(self, n_qubits: int, gates: Iterable[Gate] = ()) -> None:
        check_integer("n_qubits", n_qubits)
        self.n_qubits = n_qubits
        self.gates = tuple(gates)
        self.segments: tuple[tuple[str, int, int], ...] = ()  # see from_segments
        for gate in self.gates:
            check_register(gate, n_qubits)

    @classmethod
    def from_segments(cls, n_qubits: int, parts: list[tuple[str, Sequence[Gate]]]) -> Circuit:
        """The ``(name, gates)`` parts joined, each kept as ``(name, start, stop)``."""
        circuit = cls(n_qubits, [gate for _, gates in parts for gate in gates])
        bounds = [0, *accumulate(len(gates) for _, gates in parts)]
        circuit.segments = tuple(zip([name for name, _ in parts], bounds, bounds[1:]))
        return circuit

    def __len__(self) -> int:
        return len(self.gates)

    def inverse(self) -> Circuit:
        """The adjoint circuit; its segments come in reverse order, each
        with its bounds mirrored."""
        inverse = Circuit(self.n_qubits, inverted(self.gates))
        size = len(self.gates)
        inverse.segments = tuple(
            (name, size - stop, size - start) for name, start, stop in reversed(self.segments)
        )
        return inverse

    def gate_count(self) -> dict[str, int]:
        """Exact per-kind gate counts; every kind is present, possibly zero."""
        counts = {kind: 0 for kind in GATE_KINDS}
        for gate in self.gates:
            counts[_kind(gate)] += 1
        return counts

    def run(self, state):
        """Apply all gates in order to ``state``; returns the new state."""
        if state.n_qubits != self.n_qubits:
            raise ValueError(
                f"state has {state.n_qubits} qubits, circuit expects {self.n_qubits}"
            )
        return state.apply_sequence(self.gates)

    def to_qasm_text(self) -> str:
        """OpenQASM 2.0 text for this circuit.

        Three-qubit phase gates are expanded with the standard cp/cx
        construction, the two lowest qubits acting as controls; higher
        arities are rejected.
        """
        lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{self.n_qubits}];"]
        for gate in self.gates:
            lines.extend(_qasm_lines(gate))
        return "\n".join(lines) + "\n"


def _qasm_lines(gate: Gate) -> list[str]:
    if isinstance(gate, Hadamard):
        return [f"h q[{gate.target}];"]
    if isinstance(gate, Swap):
        return [f"swap q[{gate.a}],q[{gate.b}];"]
    if not isinstance(gate, PhaseGate):
        raise TypeError(f"unknown gate type {type(gate).__name__}")
    qubits = gate.qubits
    if len(qubits) == 1:
        return [f"p({gate.phi!r}) q[{qubits[0]}];"]
    if len(qubits) == 2:
        return [f"cp({gate.phi!r}) q[{qubits[0]}],q[{qubits[1]}];"]
    if len(qubits) == 3:
        c1, c2, t = qubits
        half = fold_phase(gate.phi / 2.0)
        return [
            f"cp({half!r}) q[{c2}],q[{t}];",
            f"cx q[{c1}],q[{c2}];",
            f"cp({-half!r}) q[{c2}],q[{t}];",
            f"cx q[{c1}],q[{c2}];",
            f"cp({half!r}) q[{c1}],q[{t}];",
        ]
    raise ValueError(
        f"cannot export a phase gate with {len(qubits) - 1} controls to OpenQASM 2.0"
    )
