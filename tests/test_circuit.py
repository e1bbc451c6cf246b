import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbpm import (
    DEFAULT_DOUBLE_SLIT,
    DEFAULT_GAUSSIAN_2D,
    MAX_QUBITS,
    Circuit,
    GridSpec,
    Hadamard,
    PhaseGate,
    StateVector,
    Swap,
    build_iqft,
    build_qbpm_circuit,
    build_qbpm_circuit_2d,
    build_qft,
    decompose_monomial,
    fold_phase,
    scaled_phase,
)
from qbpm.propagator import build_monomial_propagator

from oracles import fraction_scaled_phase


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return StateVector.from_amplitudes(v)


class TestPhaseFolding:
    def test_range_boundaries(self):
        assert fold_phase(math.pi) == math.pi
        assert fold_phase(-math.pi) == math.pi
        assert fold_phase(3 * math.pi) == pytest.approx(math.pi)
        assert fold_phase(0.0) == 0.0

    def test_large_arguments(self):
        for phi in (123456.789, -98765.4321):
            r = fold_phase(phi)
            assert -math.pi < r <= math.pi
            assert math.cos(r) == pytest.approx(math.cos(phi), abs=1e-9)

    def test_scaled_matches_plain_product_when_exact(self):
        # small coefficient and phase keep the double product exact enough
        for c in (1, 7, 1024):
            for phi in (1e-4, -3.7e-3):
                assert scaled_phase(phi, c) == pytest.approx(fold_phase(c * phi), abs=1e-12)

    def test_scaled_is_additive_in_coefficient(self):
        phi = 0.7321
        total = fold_phase(scaled_phase(phi, 2**40) + scaled_phase(phi, 12345))
        assert scaled_phase(phi, 2**40 + 12345) == pytest.approx(total, abs=1e-12)

    def test_scaled_exact_for_huge_coefficients(self):
        # reference computed with exact rationals at a different modulus split
        phi = 0.1234567891234
        c = 2**46 + 3
        x = Fraction(phi) * c
        two_pi = Fraction("6.28318530717958647692528676655900576839433879875021")
        ref = float(x - (x // two_pi) * two_pi)
        assert math.cos(scaled_phase(phi, c)) == pytest.approx(math.cos(ref), abs=1e-12)
        assert math.sin(scaled_phase(phi, c)) == pytest.approx(math.sin(ref), abs=1e-12)


# every distinct coefficient of the expansions at the largest register of
# orders 2, 3 and 4
_EXPANSION_COEFFICIENTS = sorted(
    {c for n, p in ((24, 2), (18, 3), (16, 4)) for _, c in decompose_monomial(n, p)}
)
_TINY = sys.float_info.min  # the least normal double
_PHASES = st.one_of(
    st.floats(-_TINY, _TINY),  # subnormals and both zeros
    st.sampled_from([math.pi, -math.pi]),
    st.builds(math.copysign, st.floats(1e-12, 1e3), st.sampled_from([1.0, -1.0])),
    st.builds(math.copysign, st.floats(1e299, 1e301), st.sampled_from([1.0, -1.0])),
)


class TestScaledPhaseOracle:
    """The integer reduction gives the bits of the ``Fraction`` one."""

    @settings(max_examples=50, deadline=None)
    @given(_PHASES)
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(-5e-324)
    @example(math.pi)
    @example(1e300)
    def test_bit_for_bit_on_every_expansion_coefficient(self, phi):
        # float.hex tells -0.0 from 0.0
        got = [scaled_phase(phi, c).hex() for c in _EXPANSION_COEFFICIENTS]
        assert got == [fraction_scaled_phase(phi, c).hex() for c in _EXPANSION_COEFFICIENTS]

    def test_numpy_integer_coefficient(self):
        assert scaled_phase(0.3, np.int64(2**40 + 7)) == fraction_scaled_phase(0.3, 2**40 + 7)


class TestGateValidation:
    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            PhaseGate((0, 0), 0.4)
        with pytest.raises(ValueError):
            Swap(2, 2)
        with pytest.raises(ValueError):
            PhaseGate((0, 1, 1), 0.2)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            Hadamard(-1)

    @pytest.mark.parametrize(
        "gate_type, args, bad",
        [
            (PhaseGate, ((0.5,), 1.0), "0.5"),
            (Hadamard, (1.0,), "1.0"),
            (Swap, (0, 2.0), "2.0"),
            (Hadamard, (True,), "True"),
        ],
        ids=["phase", "hadamard", "swap", "bool"],
    )
    def test_non_integer_index_rejected(self, gate_type, args, bad):
        with pytest.raises(ValueError, match=f"qubit index must be an integer, got {bad}"):
            gate_type(*args)

    def test_numpy_integer_index_accepted(self):
        gates = [Hadamard(np.int64(3)), Swap(np.int32(0), 1), PhaseGate((np.int64(2),), 0.5)]
        assert Circuit(4, gates).to_qasm_text().splitlines()[3:] == [
            "h q[3];",
            "swap q[0],q[1];",
            "p(0.5) q[2];",
        ]

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_rejected(self, phi):
        with pytest.raises(ValueError, match="phase must be finite"):
            PhaseGate((0,), phi)
        with pytest.raises(ValueError, match="phase must be finite"):
            scaled_phase(phi, 3)

    def test_empty_controls_rejected(self):
        with pytest.raises(ValueError):
            PhaseGate((), 0.1)

    def test_phase_stored_folded(self):
        gate = PhaseGate((0,), 5 * math.pi)
        assert -math.pi < gate.phi <= math.pi
        assert gate.phi == pytest.approx(math.pi)
        assert PhaseGate((0, 2, 1), -math.pi).phi == math.pi

    def test_controls_sorted(self):
        gate = PhaseGate((3, 1, 0), 0.2)
        assert gate.qubits == (0, 1, 3)


class TestCircuit:
    def test_constructor_checks_register_bounds(self):
        with pytest.raises(ValueError) as made:
            Circuit(2, [Hadamard(0), Hadamard(2)])
        with pytest.raises(ValueError) as applied:
            StateVector.basis_state(2).apply_sequence([Hadamard(2)])
        message = "gate Hadamard(target=2) exceeds register of 2 qubits"
        assert str(made.value) == str(applied.value) == message

    def test_constructor_preserves_order(self):
        gates = [Hadamard(0), PhaseGate((1,), 0.5)]
        circuit = Circuit(2, gates)
        gates.append(Swap(0, 1))  # the circuit keeps its own fixed tuple
        assert len(circuit) == 2
        assert isinstance(circuit.gates, tuple)
        assert isinstance(circuit.gates[0], Hadamard)
        assert isinstance(circuit.gates[1], PhaseGate)

    def test_empty_circuit_counts_are_all_zero(self):
        counts = Circuit(3).gate_count()
        assert counts == {
            "Hadamard": 0,
            "Phase": 0,
            "ControlledPhase": 0,
            "MultiControlledPhase": 0,
            "Swap": 0,
        }

    def test_empty_circuit_is_identity(self):
        state = random_state(3, seed=10)
        out = Circuit(3).run(state)
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_run_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            Circuit(3).run(random_state(2, seed=11))

    def test_plain_circuit_has_no_segments(self):
        assert Circuit(2, [Hadamard(0)]).segments == ()

    def test_from_segments_tiles_the_joined_parts(self):
        parts = [("a", [Hadamard(0)]), ("empty", ()), ("b", (PhaseGate((0, 1), 0.5), Swap(0, 1)))]
        circuit = Circuit.from_segments(2, parts)
        assert circuit.segments == (("a", 0, 1), ("empty", 1, 1), ("b", 1, 3))
        for (_, gates), (_, a, b) in zip(parts, circuit.segments):
            assert circuit.gates[a:b] == tuple(gates)

    def test_segments_change_no_run_count_or_export(self):
        gates = [Hadamard(0), PhaseGate((0, 1, 2), 0.5), Swap(0, 2)]
        plain = Circuit(3, gates)
        named = Circuit.from_segments(3, [("a", gates[:1]), ("b", gates[1:])])
        state = random_state(3, seed=14)
        assert len(named) == len(plain)
        assert named.gate_count() == plain.gate_count()
        assert named.to_qasm_text() == plain.to_qasm_text()
        assert np.array_equal(named.run(state).amplitudes, plain.run(state).amplitudes)

    def test_inverse_reverses_and_negates_phases(self):
        circuit = Circuit(2, [Hadamard(0), PhaseGate((0, 1), 0.5), Swap(0, 1), PhaseGate((1,), -2.0)])
        assert circuit.inverse().gates == (
            PhaseGate((1,), 2.0),
            Swap(0, 1),
            PhaseGate((0, 1), -0.5),
            Hadamard(0),
        )
        state = random_state(2, seed=15)
        back = circuit.inverse().run(circuit.run(state))
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12

    def test_inverse_mirrors_the_segments(self):
        parts = [("a", [Hadamard(0)]), ("empty", ()), ("b", (PhaseGate((0, 1), 0.5), Swap(0, 1)))]
        inverse = Circuit.from_segments(2, parts).inverse()
        assert inverse.segments == (("b", 0, 2), ("empty", 2, 2), ("a", 2, 3))
        for (_, gates), (_, a, b) in zip(parts, reversed(inverse.segments)):
            assert inverse.gates[a:b] == Circuit(2, gates).inverse().gates
        assert Circuit(2, [Hadamard(0)]).inverse().segments == ()

    def test_quadratic_propagator_gate_total(self):
        for n in (1, 4, 15):
            assert len(build_monomial_propagator(n, 2, 0.3)) == n * (n + 1) // 2

    def test_diagonal_gates_commute(self):
        circuit = build_monomial_propagator(5, 2, 0.831)
        state = random_state(5, seed=12)
        expected = circuit.run(state)
        rng = np.random.default_rng(13)
        for _ in range(3):
            shuffled = Circuit(5, rng.permutation(np.array(circuit.gates, dtype=object)))
            out = shuffled.run(state)
            assert np.max(np.abs(out.amplitudes - expected.amplitudes)) < 1e-12


def simulate_qasm_gates(lines, n):
    """Tiny dense interpreter for the exported cp/cx lines (oracle for the
    two-control expansion)."""
    import re

    dim = 2**n
    psi = np.eye(dim, dtype=complex)
    for line in lines:
        qubits = [int(q) for q in re.findall(r"q\[(\d+)\]", line)]
        if line.startswith("cx"):
            c, t = qubits
            out = psi.copy()
            for b in range(dim):
                if (b >> c) & 1:
                    out[b ^ (1 << t)] = psi[b]
            psi = out
        elif line.startswith("cp"):
            phi = float(re.search(r"cp\(([^)]+)\)", line).group(1))
            for b in range(dim):
                if all((b >> q) & 1 for q in qubits):
                    psi[b] *= np.exp(1j * phi)
        else:
            raise AssertionError(f"unexpected line {line!r}")
    return psi


# every entry point that takes a register size, as (make from size, limit)
_TWO_POINTS = GridSpec(2, 1e-3)
BUDGET_ENTRY_POINTS = {
    "build_qft": (build_qft, MAX_QUBITS),
    "build_iqft": (build_iqft, MAX_QUBITS),
    "build_qbpm_circuit": (
        lambda n: build_qbpm_circuit(n, _TWO_POINTS, 532e-9, 0.1), MAX_QUBITS
    ),
    "build_qbpm_circuit_2d": (
        lambda n: build_qbpm_circuit_2d(n, _TWO_POINTS, 532e-9, 0.1), MAX_QUBITS // 2
    ),
    "build_monomial_propagator": (lambda n: build_monomial_propagator(n, 2, 0.3), MAX_QUBITS),
    "decompose_monomial": (lambda n: decompose_monomial(n, 2), MAX_QUBITS),
    "Circuit": (lambda n: Circuit(n, []), MAX_QUBITS),
    "StateVector.basis_state": (StateVector.basis_state, MAX_QUBITS),
    "DoubleSlitParams": (lambda n: replace(DEFAULT_DOUBLE_SLIT, n_qubits=n), MAX_QUBITS),
    "GaussianParams": (
        lambda n: replace(DEFAULT_GAUSSIAN_2D, n_qubits_per_axis=n), MAX_QUBITS // 2
    ),
}


class TestQubitBudget:
    """Every register size goes through the one check, with one message."""

    @pytest.mark.parametrize("entry", BUDGET_ENTRY_POINTS)
    @pytest.mark.parametrize("bad", ["zero", "over", 2.0, True], ids=str)
    def test_size_outside_budget_rejected(self, entry, bad):
        make, limit = BUDGET_ENTRY_POINTS[entry]
        bad = {"zero": 0, "over": limit + 1}.get(bad, bad)
        with pytest.raises(ValueError, match=f"must be an integer in 1[.][.]{limit}, got {bad}$"):
            make(bad)

    def test_numpy_integer_accepted(self):
        assert Circuit(np.int64(2), [Hadamard(1)]).n_qubits == 2


class TestQasmExport:
    def test_single_hadamard(self):
        text = Circuit(1, [Hadamard(0)]).to_qasm_text()
        assert text == 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nh q[0];\n'

    def test_phase_full_precision(self):
        text = Circuit(2, [PhaseGate((1,), math.pi)]).to_qasm_text()
        assert "p(3.141592653589793) q[1];" in text

    def test_controlled_phase_and_swap_forms(self):
        text = Circuit(3, [PhaseGate((0, 2), 0.25), Swap(1, 2)]).to_qasm_text()
        assert "cp(0.25) q[0],q[2];" in text
        assert "swap q[1],q[2];" in text

    def test_quadratic_propagator_line_count(self):
        text = build_monomial_propagator(3, 2, 0.41).to_qasm_text()
        lines = text.strip().split("\n")
        assert len(lines) == 3 + 6  # header + n(n+1)/2 gates

    def test_two_control_phase_expansion_is_exact(self):
        gate = PhaseGate((0, 1, 2), 1.234)
        text = Circuit(3, [gate]).to_qasm_text()
        gate_lines = text.strip().split("\n")[3:]
        assert len(gate_lines) == 5
        matrix = simulate_qasm_gates(gate_lines, 3)
        expected = np.eye(8, dtype=complex)
        expected[7, 7] = np.exp(1.234j)
        assert np.max(np.abs(matrix - expected)) < 1e-12

    def test_three_controls_rejected(self):
        circuit = Circuit(4, [PhaseGate((0, 1, 2, 3), 0.5)])
        with pytest.raises(ValueError):
            circuit.to_qasm_text()


@st.composite
def phase_gates(draw, n):
    qubits = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(4, n), unique=True))
    return PhaseGate(tuple(qubits), draw(st.floats(-100.0, 100.0)))


@st.composite
def registers_with_gates(draw):
    n = draw(st.integers(1, 6))
    gates = draw(st.lists(phase_gates(n), min_size=1, max_size=8))
    return n, gates, draw(st.integers(0, 2**32 - 1))


class TestPhaseGateProperties:
    @settings(max_examples=60, deadline=None)
    @given(registers_with_gates())
    def test_apply_equals_dense_diagonal(self, case):
        n, gates, seed = case
        state = random_state(n, seed)
        indices = np.arange(2**n)
        for gate in gates:
            fires = np.all([(indices >> q) & 1 for q in gate.qubits], axis=0)
            expected = np.where(fires, np.exp(1j * gate.phi), 1.0) * state.amplitudes
            state = state.apply_sequence([gate])
            assert np.max(np.abs(state.amplitudes - expected)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(registers_with_gates())
    def test_gate_count_labels_by_arity(self, case):
        n, gates, _ = case
        counts = Circuit(n, gates).gate_count()
        labels = {1: "Phase", 2: "ControlledPhase"}
        expected = {kind: 0 for kind in counts}
        for gate in gates:
            expected[labels.get(len(gate.qubits), "MultiControlledPhase")] += 1
        assert counts == expected


@dataclass(frozen=True)
class ForeignGate:
    """Acts on a register qubit but is none of the three gate types."""

    qubits: tuple = (0,)


@pytest.mark.parametrize(
    "use",
    [Circuit.to_qasm_text, lambda circuit: circuit.run(StateVector.basis_state(1))],
    ids=["to_qasm_text", "run"],
)
def test_unknown_gate_type_rejected(use):
    # run reaches the state vector's plan compiler, to_qasm_text the exporter
    with pytest.raises(TypeError, match="unknown gate type ForeignGate"):
        use(Circuit(1, [ForeignGate()]))
