import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbpm import (
    DispersionPolynomial,
    DoubleSlitParams,
    GridSpec,
    Hadamard,
    PhaseGate,
    SampleCounts,
    StateVector,
    Swap,
    build_monomial_propagator,
    build_qbpm_circuit,
    build_qbpm_circuit_2d,
    build_qft,
    decompose_monomial,
    double_slit_initial,
)
from qbpm import qstate

from oracles import diagonal_oracle

INV_SQRT2 = 1 / np.sqrt(2)


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return StateVector.from_amplitudes(v)


class TestConstruction:
    def test_basis_state_kept_exact(self):
        state = StateVector.from_amplitudes([1, 0])
        assert state.n_qubits == 1
        assert state.amplitudes.tolist() == [1.0 + 0.0j, 0.0 + 0.0j]

    def test_uniform_normalization(self):
        state = StateVector.from_amplitudes([1, 1, 1, 1])
        assert np.allclose(state.amplitudes, 0.5)

    def test_slit_field_loads_to_unit_norm(self):
        # expected norm from a direct nonzero-point count
        params = DoubleSlitParams(5e-4, 1e-4, 532e-9, 15, 0.1024)
        field = double_slit_initial(params, params.make_grid())
        n_nonzero = int(np.count_nonzero(field.values))
        state = StateVector.from_amplitudes(field.values)
        assert state.n_qubits == 15
        assert abs(state.norm() - 1.0) < 1e-12
        nonzero = state.amplitudes[np.abs(state.amplitudes) > 0]
        assert np.allclose(nonzero, 1.0 / np.sqrt(n_nonzero))

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            StateVector.from_amplitudes([1.0])
        with pytest.raises(ValueError):
            StateVector.from_amplitudes([1.0, 0.0, 0.0])

    @pytest.mark.parametrize("count", [0, 1, 3, 6])
    def test_constructor_rejects_bad_lengths(self, count):
        # n_qubits is read from the length, so every length must be 2**n
        with pytest.raises(ValueError, match=f"power of two >= 2, got {count}$"):
            StateVector(np.ones(count, dtype=np.complex128))

    def test_rejects_zero_and_non_finite(self):
        with pytest.raises(ValueError, match="amplitudes must not all be zero"):
            StateVector.from_amplitudes([0.0, 0.0])
        with pytest.raises(ValueError):
            StateVector.from_amplitudes([np.nan, 1.0])

    @pytest.mark.parametrize("value", [1e300, 1e-320], ids=["overflow", "underflow"])
    def test_rejects_norm_outside_float64(self, value):
        with pytest.raises(ValueError, match="norm of the amplitudes overflows or underflows"):
            StateVector.from_amplitudes([value + value * 1j] * 4)

    @pytest.mark.parametrize("n_qubits, index", [(0, 0), (3, -1), (3, 8)])
    def test_basis_state_rejects_bad_arguments(self, n_qubits, index):
        with pytest.raises(ValueError):
            StateVector.basis_state(n_qubits, index)

    def test_equality_is_identity_and_does_not_raise(self):
        state = StateVector.basis_state(2)
        assert (state == StateVector.basis_state(2)) is False
        assert (state == state) is True


class TestGateAction:
    def test_hadamard_on_zero(self):
        out = StateVector.basis_state(1).apply_sequence([Hadamard(0)])
        assert np.allclose(out.amplitudes, [INV_SQRT2, INV_SQRT2])

    def test_phase_pi_is_z(self):
        plus = StateVector.from_amplitudes([1, 1])
        out = plus.apply_sequence([PhaseGate((0,), np.pi)])
        assert np.allclose(out.amplitudes, [INV_SQRT2, -INV_SQRT2])

    def test_controlled_phase_condition(self):
        phi = 0.731
        on = StateVector.basis_state(2, 0b11).apply_sequence([PhaseGate((1, 0), phi)])
        assert on.amplitudes[0b11] == pytest.approx(np.exp(1j * phi))
        off = StateVector.basis_state(2, 0b01).apply_sequence([PhaseGate((1, 0), phi)])
        assert off.amplitudes[0b01] == 1.0

    def test_multi_controlled_phase_condition(self):
        gate = PhaseGate((0, 1, 2), 0.5)
        fires = StateVector.basis_state(3, 0b111).apply_sequence([gate])
        assert fires.amplitudes[0b111] == pytest.approx(np.exp(0.5j))
        idle = StateVector.basis_state(3, 0b101).apply_sequence([gate])
        assert idle.amplitudes[0b101] == 1.0

    def test_swap_exchanges_bits(self):
        out = StateVector.basis_state(3, 0b001).apply_sequence([Swap(0, 2)])
        assert out.amplitudes[0b100] == 1.0

    def test_apply_does_not_mutate_input(self):
        state = random_state(3, seed=20)
        before = state.amplitudes.copy()
        state.apply_sequence([Hadamard(1)])
        assert np.array_equal(state.amplitudes, before)

    def test_gate_out_of_range(self):
        with pytest.raises(ValueError):
            StateVector.basis_state(2).apply_sequence([Hadamard(2)])

    def test_norm_preserved_over_ten_thousand_gates(self):
        rng = np.random.default_rng(21)
        state = random_state(6, seed=22)
        gates = []
        for _ in range(10_000):
            kind = rng.integers(0, 4)
            q = rng.permutation(6)
            phi = float(rng.uniform(-np.pi, np.pi))
            if kind == 0:
                gates.append(Hadamard(int(q[0])))
            elif kind == 1:
                gates.append(PhaseGate((int(q[0]),), phi))
            elif kind == 2:
                gates.append(PhaseGate((int(q[0]), int(q[1])), phi))
            else:
                gates.append(Swap(int(q[0]), int(q[1])))
        out = state.apply_sequence(gates)
        assert abs(out.norm() - 1.0) < 1e-10

    def test_diagonal_gates_do_not_move_population(self):
        gates = [PhaseGate((0,), 0.3), PhaseGate((1, 3), -2.2), PhaseGate((0, 2, 3), 1.1)]
        for index in (0b0000, 0b1011, 0b1111):
            out = StateVector.basis_state(4, index).apply_sequence(gates)
            leaked = np.abs(out.amplitudes).copy()
            leaked[index] = 0.0
            assert leaked.max() < 1e-14
            assert abs(abs(out.amplitudes[index]) - 1.0) < 1e-14


def random_phase_run(n, length, rng):
    """``length`` phase gates of arity 1..4 on random qubits of an n-qubit register."""
    gates = []
    for _ in range(length):
        arity = int(rng.integers(1, min(4, n) + 1))
        qubits = tuple(int(q) for q in rng.choice(n, size=arity, replace=False))
        gates.append(PhaseGate(qubits, float(rng.uniform(-np.pi, np.pi))))
    return gates


def one_gate_at_a_time(state, gates):
    """Reference: every gate on its own through a kernel written here, so
    nothing of the plan under test is used.  A phase gate multiplies a dense
    diagonal, a Hadamard combines the two halves of its qubit, and a swap
    exchanges two tensor axes."""
    n = state.n_qubits
    idx = np.arange(state.n_states)
    amplitudes = state.amplitudes
    for gate in gates:
        if isinstance(gate, PhaseGate):
            mask = sum(1 << q for q in gate.qubits)
            amplitudes = amplitudes * np.where((idx & mask) == mask, np.exp(1j * gate.phi), 1)
        elif isinstance(gate, Hadamard):
            halves = amplitudes.reshape(-1, 2, 1 << gate.target)
            a, b = halves[:, 0], halves[:, 1]
            amplitudes = np.stack([a + b, a - b], axis=1).reshape(-1) * INV_SQRT2
        else:  # tensor axis k holds qubit n - 1 - k
            tensor = amplitudes.reshape((2,) * n)
            amplitudes = np.swapaxes(tensor, n - 1 - gate.a, n - 1 - gate.b).reshape(-1)
    return StateVector(amplitudes)


def random_ladder(n, rng):
    """QFT-shaped gates on a random subset of qubits: a Hadamard on each,
    top down, followed by a controlled phase from each lower qubit of the
    subset; reversed half of the time, as in an inverse QFT."""
    qubits = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    gates = []
    for i in range(len(qubits) - 1, -1, -1):
        gates.append(Hadamard(int(qubits[i])))
        for j in range(i - 1, -1, -1):
            gates.append(PhaseGate((int(qubits[j]), int(qubits[i])), float(rng.uniform(-np.pi, np.pi))))
    return gates[::-1] if rng.integers(2) else gates


class TestFusedPhaseRuns:
    """Every run of phase gates is applied as one diagonal.

    The kernel takes one exp per gate and multiplies the factors into each
    basis index in the order of a product transform, where the reference
    multiplies one dense diagonal per gate in gate order, so the two agree
    to rounding, not bit for bit.  The bound is the 1e-12 synthesis
    tolerance.
    """

    @pytest.mark.parametrize(
        "gates",
        [
            [PhaseGate((0,), 0.7)],
            [PhaseGate((0, 11), -1.3)],
            [PhaseGate((3, 6), 2.9)],
            [Hadamard(9)]
            + random_phase_run(7, 20, np.random.default_rng(44))
            + [Hadamard(11)],
        ],
        ids=["lone-0", "lone-0-11", "lone-3-6", "run-0-6-between-hadamards"],
    )
    def test_partial_span_matches_dense_diagonal(self, gates):
        state = random_state(12, seed=45)
        fused = state.apply_sequence(gates)
        assert np.max(np.abs(fused.amplitudes - one_gate_at_a_time(state, gates).amplitudes)) <= 1e-12

    def test_repeated_masks_multiply(self):
        n = 10
        gates = build_monomial_propagator(n, 2, 0.8).gates + build_monomial_propagator(n, 3, -0.3).gates
        gates += (gates[7],)
        state = random_state(n, seed=46)
        fused = state.apply_sequence(gates)
        assert np.max(np.abs(fused.amplitudes - one_gate_at_a_time(state, gates).amplitudes)) <= 1e-12

    @pytest.mark.parametrize("n", range(1, 13))
    def test_qft_matches_per_gate(self, n):
        gates = build_qft(n).gates
        state = random_state(n, seed=47)
        fused = state.apply_sequence(gates)
        assert np.max(np.abs(fused.amplitudes - one_gate_at_a_time(state, gates).amplitudes)) <= 1e-12

    def test_run_on_the_top_qubit_leaves_its_zero_half_unchanged(self):
        n, top = 10, 7
        rng = np.random.default_rng(48)
        gates = [
            PhaseGate(tuple(rng.choice(top, size=k, replace=False)) + (top,), float(rng.uniform(-3, 3)))
            for k in (0, 1, 1, 2, 3, 0)
        ]
        state = random_state(n, seed=49)
        out = state.apply_sequence(gates)
        zero_half = (np.arange(state.n_states) >> top) & 1 == 0
        assert np.array_equal(out.amplitudes[zero_half], state.amplitudes[zero_half])
        assert np.max(np.abs(out.amplitudes - one_gate_at_a_time(state, gates).amplitudes)) <= 1e-12

    def test_exp_is_taken_per_gate_not_per_basis_state(self, monkeypatch):
        n = 12
        circuit = build_qbpm_circuit(n, GridSpec(2**n, 1e-5), 532e-9, 0.05)
        state = random_state(n, seed=50)
        sizes = []
        exp = np.exp

        def spy(x, *args, **kwargs):
            sizes.append(np.size(x))
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", spy)
        circuit.run(state)
        longest_run = n * (n + 1) // 2  # the transfer layer
        assert sizes and max(sizes) <= longest_run

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 12),
        segments=st.lists(
            st.one_of(
                st.sampled_from(["hadamard", "repeated-hadamard", "swaps", "ladder"]),
                st.integers(1, 36),  # a phase run of this length, capped at 3n
            ),
            min_size=1,
            max_size=8,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mixed_sequence_matches_per_gate(self, n, segments, seed):
        rng = np.random.default_rng(seed)
        gates = []
        for segment in segments:
            if segment == "hadamard":
                gates.append(Hadamard(int(rng.integers(n))))
            elif segment == "repeated-hadamard":
                q = int(rng.integers(n))
                gates += [Hadamard(q), PhaseGate((q,), float(rng.uniform(-np.pi, np.pi))), Hadamard(q)]
                gates += [Hadamard(q)] * int(rng.integers(1, 3))
            elif segment == "swaps":
                for _ in range(int(rng.integers(1, 4)) if n >= 2 else 0):
                    a, b = rng.choice(n, size=2, replace=False)
                    gates.append(Swap(int(a), int(b)))
            elif segment == "ladder":
                gates.extend(random_ladder(n, rng))
            else:
                gates.extend(random_phase_run(n, min(segment, 3 * n), rng))
        state = random_state(n, seed)
        fused = state.apply_sequence(gates)
        assert np.max(np.abs(fused.amplitudes - one_gate_at_a_time(state, gates).amplitudes)) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 12),
        phis=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
    )
    def test_monomial_propagators_match_oracle(self, n, phis):
        phase_by_order = dict(zip((1, 2, 3, 4), phis))
        gates = []
        for p, phi in phase_by_order.items():
            gates.extend(build_monomial_propagator(n, p, phi).gates)
        uniform = StateVector.from_amplitudes(np.ones(2**n))
        out = uniform.apply_sequence(gates)
        expected = diagonal_oracle(n, phase_by_order) / np.sqrt(2**n)
        assert np.max(np.abs(out.amplitudes - expected)) <= 1e-12

    def test_out_of_range_gate_in_long_run(self):
        n = 4
        gates = random_phase_run(n, 3 * n, np.random.default_rng(40))
        bad = PhaseGate((1, n), 0.3)
        gates.insert(5, bad)
        state = random_state(n, seed=41)
        before = state.amplitudes.copy()
        with pytest.raises(ValueError) as fused:
            state.apply_sequence(gates)
        assert str(fused.value) == f"gate {bad} exceeds register of {n} qubits"
        assert np.array_equal(state.amplitudes, before)

    def test_generator_with_hadamard_between_long_runs(self):
        n = 5
        rng = np.random.default_rng(42)
        gates = random_phase_run(n, 2 * n, rng) + [Hadamard(2)] + random_phase_run(n, 2 * n, rng)
        state = random_state(n, seed=43)
        fused = state.apply_sequence(gate for gate in gates)
        per_gate = one_gate_at_a_time(state, gates)
        assert np.max(np.abs(fused.amplitudes - per_gate.amplitudes)) <= 1e-12


@st.composite
def mask_runs(draw):
    """``(span, masks, phis)``: the masks are a contiguous range of
    integers, so every pass of the product transform touches one contiguous
    range of rows; or drawn at random, repeats allowed, so the rows are
    scattered; or every mask of the span, so every pass touches every row."""
    span = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["contiguous", "scattered", "complete"]))
    size = 1 << span
    if kind == "contiguous":
        lo = draw(st.integers(0, size - 1))
        masks = list(range(lo, draw(st.integers(lo + 1, size))))
    elif kind == "scattered":
        masks = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=40))
    else:
        masks = list(range(size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return span, np.array(masks, dtype=np.intp), rng.uniform(-np.pi, np.pi, len(masks))


class TestPhaseDiagonal:
    """``_phase_diagonal`` against ``exp(i * theta)``, with ``theta`` summed
    per basis index directly."""

    @settings(max_examples=100, deadline=None)
    @given(run=mask_runs())
    def test_matches_exp_of_summed_phase(self, run):
        span, masks, phis = run
        index = np.arange(1 << span)
        # extended precision keeps the sum of up to 4096 phases exact to
        # well below the tolerance
        theta = np.zeros(1 << span, dtype=np.longdouble)
        for mask, phi in zip(masks, phis):
            theta[index & mask == mask] += phi
        expected = np.exp(1j * theta.astype(np.float64))
        assert np.max(np.abs(qstate._phase_diagonal(masks, phis, span) - expected)) <= 1e-12


# (axes, qubits per axis, polynomial orders) of the propagation circuits
# whose QFT / transfer / inverse-QFT slices are run one after another
SLICED_CIRCUITS = [
    (1, n, orders) for orders in ((2,), (2, 3), (2, 3, 4)) for n in range(1, 13)
] + [(2, n, (2,)) for n in range(1, 7)]


class TestCompiledPlan:
    """``apply_sequence`` compiles the gates into dense windows, diagonal
    runs and swap permutations, then runs them on one copy of the state."""

    @pytest.mark.parametrize(
        "axes, n, orders",
        SLICED_CIRCUITS,
        ids=[f"{axes}d-n{n}-p{''.join(map(str, orders))}" for axes, n, orders in SLICED_CIRCUITS],
    )
    def test_slices_run_in_turn_equal_the_whole_circuit(self, axes, n, orders):
        # a run traced one slice at a time must execute the same steps, bit
        # for bit, as an untraced run of the whole circuit
        grid = GridSpec(2**n, 1e-5)
        if axes == 1:
            polynomial = DispersionPolynomial({p: -1e-7 / p for p in orders})
            circuit = build_qbpm_circuit(n, grid, 532e-9, 0.05, polynomial)
        else:
            circuit = build_qbpm_circuit_2d(n, grid, 532e-9, 0.05)
        n_qft = len(build_qft(n))
        n_transfer = sum(len(decompose_monomial(n, p)) for p in orders)
        per_axis = 2 * n_qft + n_transfer
        gates = circuit.gates
        assert len(gates) == axes * per_axis
        state = random_state(circuit.n_qubits, seed=51)
        sliced = state
        for base in range(0, len(gates), per_axis):
            for a, b in ((0, n_qft), (n_qft, n_qft + n_transfer), (n_qft + n_transfer, per_axis)):
                sliced = sliced.apply_sequence(gates[base + a : base + b])
        assert np.array_equal(state.apply_sequence(gates).amplitudes, sliced.amplitudes)

    def test_qft_compiles_to_radix_32_windows(self):
        plan = qstate._compile(build_qft(12).gates, 12)
        assert [step[0] for step in plan] == [
            qstate._apply_window,
            qstate._apply_phase_run,
            qstate._apply_window,
            qstate._apply_phase_run,
            qstate._apply_window,
            qstate._permute,
        ]
        windows = [(lo, len(matrix)) for kernel, lo, matrix in plan[:5:2]]
        assert windows == [(7, 2**qstate.R), (2, 2**qstate.R), (0, 4)]
        assert [len(plan[1][1]), len(plan[3][1])] == [5 * 7, 5 * 2]
        assert plan[5][1] == list(range(11, -1, -1))

    def test_windows_run_in_place_through_a_small_temporary(self):
        n = 20  # 16 MiB of amplitudes
        amplitudes = random_state(n, seed=52).amplitudes.copy()
        windows = [step for step in qstate._compile(build_qft(n).gates, n) if step[0] is qstate._apply_window]
        assert [lo for _, lo, _ in windows] == [15, 10, 5, 0]
        tracemalloc.start()
        try:
            for kernel, *args in windows:
                kernel(amplitudes, *args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * qstate._CHUNK * amplitudes.itemsize  # 2 MiB

    @pytest.mark.parametrize(
        "bad", [Hadamard(4), PhaseGate((0, 4), 0.3), Swap(1, 4)], ids=["hadamard", "phase", "swap"]
    )
    def test_every_gate_is_checked_before_any_step_runs(self, monkeypatch, bad):
        def no_kernel(*args):
            raise AssertionError("a kernel ran")

        for kernel in ("_apply_window", "_apply_phase_run", "_permute"):
            monkeypatch.setattr(qstate, kernel, no_kernel)
        n = 4
        gates = list(build_qft(n).gates) + [Hadamard(0), bad, Hadamard(1)]
        with pytest.raises(ValueError) as error:
            random_state(n, seed=53).apply_sequence(gates)
        assert str(error.value) == f"gate {bad} exceeds register of {n} qubits"

    def test_numpy_integer_qubits_give_the_same_state(self):
        gates = [Hadamard(3), PhaseGate((2, 3), 0.5), Hadamard(2), Swap(0, 1)]
        numpy_gates = [
            Hadamard(np.int64(3)),
            PhaseGate((np.int64(2), np.int32(3)), 0.5),
            Hadamard(np.int64(2)),
            Swap(np.int32(0), 1),
        ]
        state = random_state(4, seed=54)
        assert np.array_equal(
            state.apply_sequence(numpy_gates).amplitudes, state.apply_sequence(gates).amplitudes
        )


class TestProbabilities:
    def test_basis_state(self):
        assert StateVector.basis_state(1).probabilities().tolist() == [1.0, 0.0]

    def test_uniform_two_qubits(self):
        state = StateVector.from_amplitudes([1, 1, 1, 1])
        assert np.allclose(state.probabilities(), 0.25)

    def test_probabilities_sum_to_one(self):
        state = random_state(8, seed=23)
        assert abs(state.probabilities().sum() - 1.0) < 1e-12


class TestSampling:
    def test_deterministic_state_concentrates(self):
        counts = StateVector.basis_state(3, 5).sample(100, seed=0)
        expected = np.zeros(8, dtype=np.int64)
        expected[5] = 100
        assert np.array_equal(counts.counts, expected)
        assert counts.total_shots == 100

    def test_same_seed_reproduces_counts(self):
        state = random_state(5, seed=24)
        a = state.sample(5000, seed=42)
        b = state.sample(5000, seed=42)
        assert np.array_equal(a.counts, b.counts)

    def test_different_seeds_differ(self):
        state = random_state(5, seed=24)
        assert not np.array_equal(
            state.sample(5000, seed=1).counts, state.sample(5000, seed=2).counts
        )

    def test_counts_are_the_multinomial_stream(self):
        # the draw is numpy's multinomial over the normalized probabilities,
        # bit for bit: sampled outputs depend on this stream
        state = random_state(6, seed=26)
        p = state.probabilities()
        expected = np.random.default_rng(31).multinomial(10_000, p / p.sum())
        counts = state.sample(10_000, seed=31).counts
        assert counts.dtype == np.int64
        assert counts.shape == (2**6,)
        assert np.array_equal(counts, expected)

    def test_uniform_frequencies_converge(self):
        n_shots = 400_000
        plus = StateVector.from_amplitudes([1, 1])
        freq = plus.sample(n_shots, seed=7).frequencies()
        bound = 5 * np.sqrt(0.25 / n_shots)
        assert np.all(np.abs(freq - 0.5) < bound)

    def test_five_sigma_consistency_at_one_million_shots(self):
        state = random_state(4, seed=25)
        p = state.probabilities()
        n_shots = 1_000_000
        freq = state.sample(n_shots, seed=8).frequencies()
        bound = 5 * np.sqrt(p * (1 - p) / n_shots)
        assert np.all(np.abs(freq - p) <= np.maximum(bound, 1e-15))

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            StateVector.basis_state(1).sample(0, seed=0)

    @pytest.mark.parametrize("n_shots", [-1, 2.5, 3.0])
    def test_bad_shot_count_rejected(self, n_shots):
        with pytest.raises(ValueError, match="n_shots must be an integer >= 1"):
            StateVector.basis_state(1).sample(n_shots, seed=0)

    def test_numpy_integer_shot_count_accepted(self):
        assert StateVector.basis_state(1).sample(np.int64(5), seed=0).counts.tolist() == [5, 0]

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 6),
        amplitude_seed=st.integers(0, 2**32 - 1),
        n_shots=st.integers(1, 10_000),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_draw_properties(self, n, amplitude_seed, n_shots, seed):
        state = random_state(n, amplitude_seed)
        counts = state.sample(n_shots, seed)
        assert counts.counts.shape == (2**n,)
        assert int(counts.counts.sum()) == n_shots
        assert abs(counts.frequencies().sum() - 1.0) <= 1e-12
        assert np.array_equal(state.sample(n_shots, seed).counts, counts.counts)


class TestSampleCounts:
    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            SampleCounts(np.array([-1, 1]))

    @pytest.mark.parametrize(
        "counts",
        [
            np.array([[1, 2], [3, 2]]),
            np.array([3.0, 5.0]),
            [3, 5],
        ],
        ids=["2-D", "float", "list"],
    )
    def test_non_integer_vector_rejected(self, counts):
        with pytest.raises(ValueError, match="1-D integer array"):
            SampleCounts(counts)

    @pytest.mark.filterwarnings("error")
    def test_no_shots_rejected(self):
        # the frequencies would divide by a zero total
        with pytest.raises(ValueError, match="at least one shot"):
            SampleCounts(np.zeros(4, dtype=np.int64))

    def test_array_round_trip(self):
        counts = SampleCounts(np.array([0, 3, 5, 0]))
        assert counts.counts.tolist() == [0, 3, 5, 0]
        assert counts.total_shots == 8
        assert counts.frequencies().tolist() == [0.0, 0.375, 0.625, 0.0]
