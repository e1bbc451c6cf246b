import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbpm import (
    DispersionPolynomial,
    Field,
    GridSpec,
    PhaseGate,
    StateVector,
    build_iqft,
    build_monomial_propagator,
    build_qbpm_circuit,
    build_qbpm_circuit_2d,
    build_qft,
    decompose_monomial,
    propagate_1d,
    propagate_2d,
    signed_index_weights,
)
from qbpm.classical_bpm import PhaseOverflowError

from oracles import BACKWARD, FORWARD, dft_oracle, diagonal_oracle


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return StateVector.from_amplitudes(v)


def signed_value(b, n):
    return b - 2**n if b >= 2 ** (n - 1) else b


def term_sum(terms, b):
    return sum(c * int(all((b >> j) & 1 for j in qubits)) for qubits, c in terms)


class TestDecomposeMonomial:
    def test_weights(self):
        assert signed_index_weights(4) == [1, 2, 4, -8]
        assert signed_index_weights(1) == [-1]

    def test_smallest_quadratic_case(self):
        assert decompose_monomial(1, 2) == [((0,), 1)]

    def test_linear_is_the_weight_vector(self):
        assert decompose_monomial(4, 1) == [
            ((0,), 1),
            ((1,), 2),
            ((2,), 4),
            ((3,), -8),
        ]

    def test_three_qubit_quadratic_terms(self):
        terms = dict(decompose_monomial(3, 2))
        assert terms == {
            (0,): 1,
            (1,): 4,
            (2,): 16,
            (0, 1): 4,
            (0, 2): -8,
            (1, 2): -16,
        }

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_exact_for_every_signed_value(self, p):
        for n in range(1, 7):
            terms = decompose_monomial(n, p)
            for b in range(2**n):
                assert term_sum(terms, b) == signed_value(b, n) ** p

    def test_fourth_power_exact(self):
        for n in range(1, 6):
            terms = decompose_monomial(n, 4)
            for b in range(2**n):
                assert term_sum(terms, b) == signed_value(b, n) ** 4

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 16), st.integers(1, 4), st.data())
    def test_exact_at_random_signed_values(self, n, p, data):
        half = 2 ** (n - 1)
        terms = decompose_monomial(n, p)
        for g in data.draw(st.lists(st.integers(-half, half - 1), min_size=1, max_size=20)):
            assert term_sum(terms, g % 2**n) == g**p

    def test_subset_sizes_bounded_by_order(self):
        for p in (2, 3, 4):
            assert max(len(qubits) for qubits, _ in decompose_monomial(6, p)) <= p

    def test_order_validation(self):
        with pytest.raises(ValueError):
            decompose_monomial(4, 0)
        with pytest.raises(ValueError):
            decompose_monomial(4, 5)
        with pytest.raises(ValueError):
            decompose_monomial(0, 2)

    def test_cubic_term_count(self):
        for n in (4, 6, 9):
            expected = n + n * (n - 1) // 2 + n * (n - 1) * (n - 2) // 6
            assert len(decompose_monomial(n, 3)) == expected


class TestBuildMonomialPropagator:
    def test_gate_kinds_follow_subset_size(self):
        circuit = build_monomial_propagator(4, 3, 0.2)
        for gate, (qubits, _) in zip(circuit.gates, decompose_monomial(4, 3)):
            assert isinstance(gate, PhaseGate)
            assert gate.qubits == qubits
        counts = circuit.gate_count()
        assert counts["Phase"] == 4
        assert counts["ControlledPhase"] == 6
        assert counts["MultiControlledPhase"] == 4

    def test_zero_phase_is_identity(self):
        state = random_state(5, seed=60)
        out = build_monomial_propagator(5, 2, 0.0).run(state)
        assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-12

    def test_quadratic_matches_oracle_pinned_case(self):
        n, phi = 6, 0.37
        circuit = build_monomial_propagator(n, 2, phi)
        diag = diagonal_oracle(n, {2: phi})
        for b in range(2**n):
            out = StateVector.basis_state(n, b).apply_sequence(circuit.gates).amplitudes
            assert abs(out[b] - diag[b]) < 1e-12

    def test_diagonal_on_uniform_superposition(self):
        # a diagonal circuit applied to the uniform state exposes every
        # diagonal entry at once
        n = 10
        rng = np.random.default_rng(61)
        uniform = StateVector.from_amplitudes(np.ones(2**n))
        for p in (1, 2, 3):
            phi = float(rng.uniform(-np.pi, np.pi))
            out = build_monomial_propagator(n, p, phi).run(uniform)
            expected = diagonal_oracle(n, {p: phi}) / np.sqrt(2**n)
            assert np.max(np.abs(out.amplitudes - expected)) < 1e-12

    def test_no_population_leaves_basis_states(self):
        circuit = build_monomial_propagator(5, 3, 1.234)
        for index in (0, 7, 21, 31):
            out = StateVector.basis_state(5, index).apply_sequence(circuit.gates)
            off_diagonal = np.abs(out.amplitudes).copy()
            off_diagonal[index] = 0.0
            assert off_diagonal.max() < 1e-14


class TestDiagonalOracle:
    def test_hand_evaluated_two_qubit_case(self):
        out = diagonal_oracle(2, {2: np.pi})
        # signed values per slot: 0, 1, -2, -1 with squares 0, 1, 4, 1
        assert np.allclose(out, [1, -1, 1, -1])

    def test_zero_phases_give_ones(self):
        assert np.allclose(diagonal_oracle(4, {2: 0.0}), 1.0)
        assert np.allclose(diagonal_oracle(4, {}), 1.0)


class TestDispersionPolynomial:
    def test_paraxial_orders(self):
        poly = DispersionPolynomial.paraxial(532e-9)
        k = 2 * math.pi / 532e-9
        assert set(poly.orders) == {2}
        assert poly.orders[2] == pytest.approx(-1 / (2 * k))

    def test_phase_angles_reduce_to_paraxial_phase(self):
        # quadratic phase per unit g**2 is -2 pi**2 z / (N**2 dx**2 k)
        for grid, wavelength, z in (
            (GridSpec(128, 3e-6), 532e-9, 0.4),
            (GridSpec(2**8, 1.3e-5), 6.2e-7, 0.21),
        ):
            k = 2 * math.pi / wavelength
            expected = -2 * math.pi**2 * z / (grid.n_points**2 * grid.dx**2 * k)
            angles = DispersionPolynomial.paraxial(wavelength).phase_angles(grid, z)
            assert angles[2] == pytest.approx(expected, rel=1e-12)

    def test_paraxial_phase_equals_quadratic_transfer_exponent(self):
        grid = GridSpec(2**6, 2e-5)
        wavelength, z = 5e-7, 0.05
        k = 2 * math.pi / wavelength
        # phase at frequency index g is g**2 * phi == -alpha_g**2 z / (2 k)
        phi = DispersionPolynomial.paraxial(wavelength).phase_angles(grid, z)[2]
        for g in (1, 7, -13):
            alpha = g * grid.d_alpha
            assert g**2 * phi == pytest.approx(-(alpha**2) * z / (2 * k), rel=1e-12)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            DispersionPolynomial({0: 1.0})
        with pytest.raises(ValueError):
            DispersionPolynomial({5: 1.0})

    @pytest.mark.parametrize("coefficient", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_coefficient(self, coefficient):
        with pytest.raises(ValueError, match="coefficient of order 3 must be finite"):
            DispersionPolynomial({2: 1.0, 3: coefficient})

    def test_overflowing_phase_rejected(self):
        # each factor is finite; c * d_alpha**2 * z overflows to inf
        poly = DispersionPolynomial({2: 1e308})
        with pytest.raises(ValueError, match="phase must be finite"):
            build_qbpm_circuit(8, GridSpec(256, 1e-5), 532e-9, 1e300, poly)

    @pytest.mark.parametrize("z", [0.0, 0.1])
    def test_tiny_spacing_phase_rejected(self, z):
        # d_alpha**2 alone overflows a Python float, which raises OverflowError
        message = f"transfer phase overflows at z = {z}"
        with pytest.raises(ValueError, match=message):
            build_qbpm_circuit(8, GridSpec(256, 1e-160), 532e-9, z)
        with pytest.raises(ValueError, match=message):
            build_qbpm_circuit_2d(4, GridSpec(16, 1e-160), 532e-9, z)

    @pytest.mark.parametrize("z", [2e304, 3e304, 5e304])
    def test_one_overflow_rule_on_every_path(self, z):
        # on 256 points of 10 um at 532 nm, 2 * |angle| * (N/2)**2 is finite
        # at 2e304 and not at 3e304; each path accepts or rejects alike
        grid = GridSpec(256, 1e-5)
        calls = [
            lambda: propagate_1d(Field((grid,), np.ones(256)), 532e-9, z),
            lambda: propagate_2d(Field((grid, grid), np.ones((256, 256))), 532e-9, z),
            lambda: build_qbpm_circuit(8, grid, 532e-9, z),
            lambda: build_qbpm_circuit_2d(8, grid, 532e-9, z),
        ]
        for call in calls:
            if z == 2e304:
                call()  # a numpy warning would fail the test
                continue
            with pytest.raises(PhaseOverflowError) as raised:
                call()
            assert str(raised.value).endswith(f"overflows at z = {z}")

    def test_infinite_angle_names_z(self):
        poly = DispersionPolynomial({2: 1e308})
        with pytest.raises(ValueError, match=r"transfer phase overflows at z = 1e\+300"):
            poly.phase_angles(GridSpec(256, 1e-5), 1e300)


class TestQbpmCircuit1d:
    def test_zero_distance_is_identity(self):
        grid = GridSpec(256, 1e-5)
        state = random_state(8, seed=62)
        out = build_qbpm_circuit(8, grid, 532e-9, 0.0).run(state)
        assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-10

    def test_matches_classical_propagation(self):
        grid = GridSpec(256, 1e-5)
        for seed in range(5):
            state = random_state(8, seed=70 + seed)
            for z in (1e-3, 0.05, 1.0):
                quantum = build_qbpm_circuit(8, grid, 1e-6, z).run(state)
                classical = propagate_1d(Field((grid,), state.amplitudes), 1e-6, z)
                assert np.max(np.abs(quantum.amplitudes - classical.values)) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 10), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_matches_classical_up_to_z_crit(self, n, fraction, seed):
        # beyond z_crit = N dx**2 / wavelength the periodic window wraps around
        grid = GridSpec(2**n, 1e-5)
        wavelength = 1e-6
        z = fraction * grid.n_points * grid.dx**2 / wavelength
        state = random_state(n, seed)
        quantum = build_qbpm_circuit(n, grid, wavelength, z).run(state)
        classical = propagate_1d(Field((grid,), state.amplitudes), wavelength, z)
        assert np.max(np.abs(quantum.amplitudes - classical.values)) < 1e-9

    def test_semigroup_in_distance(self):
        grid = GridSpec(128, 1e-5)
        state = random_state(7, seed=63)
        z1, z2 = 0.011, 0.047
        two = build_qbpm_circuit(7, grid, 1e-6, z2).run(
            build_qbpm_circuit(7, grid, 1e-6, z1).run(state)
        )
        one = build_qbpm_circuit(7, grid, 1e-6, z1 + z2).run(state)
        assert np.max(np.abs(two.amplitudes - one.amplitudes)) < 1e-10

    def test_even_transfer_preserves_mirror_symmetry(self):
        grid = GridSpec(128, 1e-5)
        x = grid.coordinates()
        values = np.exp(-((x / (8 * grid.dx)) ** 2))
        state = StateVector.from_amplitudes(values)
        out = build_qbpm_circuit(7, grid, 1e-6, 0.02).run(state)
        intensity = out.probabilities()
        mirrored = intensity[(-np.arange(128)) % 128]
        assert np.max(np.abs(intensity - mirrored)) < 1e-10

    def test_cubic_polynomial_matches_oracle_composition(self):
        # odd orders expose the transform sign convention; the oracle chain
        # is forward dense transform, diagonal factor, backward transform
        n = 7
        grid = GridSpec(2**n, 1e-5)
        poly = DispersionPolynomial({3: 4.1e-13})
        state = random_state(n, seed=64)
        quantum = build_qbpm_circuit(n, grid, 1e-6, 0.3, poly).run(state)
        phases = poly.phase_angles(grid, 0.3)
        spectrum = dft_oracle(state.amplitudes, FORWARD)
        expected = dft_oracle(diagonal_oracle(n, phases) * spectrum, BACKWARD)
        assert np.max(np.abs(quantum.amplitudes - expected)) < 1e-10

    def test_argument_validation(self):
        grid = GridSpec(256, 1e-5)
        with pytest.raises(ValueError):
            build_qbpm_circuit(7, grid, 532e-9, 0.1)
        with pytest.raises(ValueError):
            build_qbpm_circuit(8, grid, -1.0, 0.1)
        with pytest.raises(ValueError):
            build_qbpm_circuit(8, grid, 532e-9, -0.1)


class TestQbpmCircuit2d:
    def test_zero_distance_is_identity(self):
        grid = GridSpec(16, 1e-5)
        state = random_state(8, seed=65)
        out = build_qbpm_circuit_2d(4, grid, 532e-9, 0.0).run(state)
        assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-10

    def test_separable_input_factorizes(self):
        grid = GridSpec(16, 1e-5)
        rng = np.random.default_rng(66)
        fx = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        fy = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        joint = np.outer(fy, fx)
        state = StateVector.from_amplitudes(joint)
        out = build_qbpm_circuit_2d(4, grid, 1e-6, 0.02).run(state)
        sx = build_qbpm_circuit(4, grid, 1e-6, 0.02).run(StateVector.from_amplitudes(fx))
        sy = build_qbpm_circuit(4, grid, 1e-6, 0.02).run(StateVector.from_amplitudes(fy))
        product = np.outer(sy.amplitudes, sx.amplitudes).ravel()
        assert np.max(np.abs(out.amplitudes - product)) < 1e-10

    def test_non_separable_input_matches_classical(self):
        grid = GridSpec(16, 1e-5)
        state = random_state(8, seed=67)
        out = build_qbpm_circuit_2d(4, grid, 1e-6, 0.03).run(state)
        classical = propagate_2d(
            Field((grid, grid), state.amplitudes.reshape(16, 16)), 1e-6, 0.03
        )
        assert np.max(np.abs(out.amplitudes - classical.values.ravel())) < 1e-9

    def test_second_axis_is_the_first_shifted(self):
        grid = GridSpec(16, 1e-5)
        gates = build_qbpm_circuit_2d(4, grid, 1e-6, 0.02).gates
        first, second = gates[: len(gates) // 2], gates[len(gates) // 2 :]
        assert first == build_qbpm_circuit(4, grid, 1e-6, 0.02).gates
        for a, b in zip(first, second, strict=True):
            assert type(b) is type(a) and getattr(b, "phi", None) == getattr(a, "phi", None)
            assert b.qubits == tuple(q + 4 for q in a.qubits)

    def test_qubit_budget(self):
        grid = GridSpec(2**13, 1e-5)
        with pytest.raises(ValueError):
            build_qbpm_circuit_2d(13, grid, 532e-9, 0.1)

    def test_takes_no_polynomial(self):
        # paraxial only: the classical 2D path has no other transfer to check against
        grid = GridSpec(16, 1e-5)
        with pytest.raises(TypeError):
            build_qbpm_circuit_2d(4, grid, 1e-6, 0.02, DispersionPolynomial({2: 1.0}))


SEGMENT_NAMES = ["qft", "transfer", "iqft"]


class TestSegments:
    """The propagation circuits name their QFT, transfer and inverse-QFT
    slices; the lengths are the closed forms that ``gate-count`` prints."""

    @staticmethod
    def assert_tiles(circuit, names):
        assert [name for name, _, _ in circuit.segments] == names
        bounds = [0] + [b for _, _, b in circuit.segments]
        assert [a for _, a, _ in circuit.segments] == bounds[:-1]
        assert bounds[-1] == len(circuit.gates)

    @staticmethod
    def closed_qft(n):
        return n + n * (n - 1) // 2 + n // 2

    @pytest.mark.parametrize("orders", [(2,), (3,), (2, 3, 4)], ids=["p2", "p3", "p234"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    def test_1d_segments_tile_the_gates(self, n, orders):
        polynomial = DispersionPolynomial({p: -1e-7 / p for p in orders})
        circuit = build_qbpm_circuit(n, GridSpec(2**n, 1e-5), 532e-9, 0.05, polynomial)
        self.assert_tiles(circuit, SEGMENT_NAMES)
        lengths = {name: b - a for name, a, b in circuit.segments}
        if orders == (2,):
            transfer = n * (n + 1) // 2
        else:
            transfer = sum(len(decompose_monomial(n, p)) for p in orders)
        qft = self.closed_qft(n)
        assert lengths == {"qft": qft, "transfer": transfer, "iqft": qft}
        (_, a, b), _, (_, c, d) = circuit.segments
        assert circuit.gates[a:b] == build_qft(n).gates
        assert circuit.gates[c:d] == build_iqft(n).gates

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_2d_y_segments_are_the_x_segments_shifted(self, n):
        grid = GridSpec(2**n, 1e-5)
        circuit = build_qbpm_circuit_2d(n, grid, 532e-9, 0.05)
        self.assert_tiles(circuit, SEGMENT_NAMES * 2)
        x_axis, y_axis = circuit.segments[:3], circuit.segments[3:]
        assert x_axis == build_qbpm_circuit(n, grid, 532e-9, 0.05).segments
        assert [b - a for _, a, b in x_axis] == [
            self.closed_qft(n), n * (n + 1) // 2, self.closed_qft(n)
        ]
        for (_, a, b), (_, c, d) in zip(x_axis, y_axis):
            assert d - c == b - a
            for x_gate, y_gate in zip(circuit.gates[a:b], circuit.gates[c:d]):
                assert type(y_gate) is type(x_gate)
                assert y_gate.qubits == tuple(q + n for q in x_gate.qubits)
                assert getattr(y_gate, "phi", None) == getattr(x_gate, "phi", None)


ROUND_TRIP_ORDERS = [(2,), (3,), (2, 3)]


def dispersion_circuit(n, orders):
    polynomial = DispersionPolynomial({p: -1e-7 / p for p in orders})
    return build_qbpm_circuit(n, GridSpec(2**n, 1e-5), 532e-9, 0.05, polynomial)


class TestInverse:
    """``Circuit.inverse()`` of a propagation circuit undoes it; the check
    needs no Fourier or diagonal reference, so it runs at any size."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 12), st.sampled_from(ROUND_TRIP_ORDERS), st.integers(0, 2**32 - 1)
    )
    def test_round_trip_returns_the_input(self, n, orders, seed):
        circuit = dispersion_circuit(n, orders)
        state = random_state(n, seed)
        back = circuit.inverse().run(circuit.run(state))
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12

    def test_round_trip_at_twenty_qubits(self):
        circuit = build_qbpm_circuit(20, GridSpec(2**20, 1e-6), 532e-9, 0.05)
        state = random_state(20, seed=67)
        back = circuit.inverse().run(circuit.run(state))
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12

    @pytest.mark.parametrize(
        "circuit",
        [dispersion_circuit(n, orders) for n in (1, 5, 9) for orders in ROUND_TRIP_ORDERS]
        + [build_qbpm_circuit_2d(n, GridSpec(2**n, 1e-5), 532e-9, 0.05) for n in (1, 4)],
    )
    def test_inverse_twice_is_the_circuit(self, circuit):
        twice = circuit.inverse().inverse()
        assert twice.gates == circuit.gates
        assert twice.segments == circuit.segments

    @pytest.mark.parametrize("axes", [1, 2])
    def test_inverse_segments_are_reversed_and_mirrored(self, axes):
        n = 6
        grid = GridSpec(2**n, 1e-5)
        if axes == 1:
            circuit = build_qbpm_circuit(n, grid, 532e-9, 0.05)
        else:
            circuit = build_qbpm_circuit_2d(n, grid, 532e-9, 0.05)
        inverse = circuit.inverse()
        size = len(circuit)
        assert inverse.segments == tuple(
            (name, size - b, size - a) for name, a, b in reversed(circuit.segments)
        )
        # the inverse of the forward QFT is the pipeline's own inverse QFT
        _, a, b = inverse.segments[-1]
        assert inverse.gates[a:b] == build_iqft(n).gates


class TestPinnedGates:
    """Builder gate lists, pinned by the sha256 of ``repr(circuit.gates)``.

    Only Python-float and exact integer arithmetic makes the gates, so the
    digests hold on every platform.  A change here means a builder emits
    different gates or a different order, which moves the exported QASM
    and the segment bounds a reader of the gate list relies on.
    """

    @staticmethod
    def digest(circuit):
        return hashlib.sha256(repr(circuit.gates).encode()).hexdigest()

    def test_quadratic_1d(self):
        circuit = build_qbpm_circuit(12, GridSpec.from_qubits(12, 0.1024), 532e-9, 0.1)
        assert len(circuit) == 246
        assert self.digest(circuit) == (
            "ce30ad4b402a73ec0867ff3ba627fe38a63af87cb8043d0d47f47785be1a96f7"
        )

    def test_orders_2_3_4_1d(self):
        poly = DispersionPolynomial({2: -1.3e-8, 3: 2.1e-12, 4: -4.7e-17})
        circuit = build_qbpm_circuit(9, GridSpec.from_qubits(9, 0.1024), 532e-9, 0.3, poly)
        assert len(circuit) == 527
        assert self.digest(circuit) == (
            "c521777365e3d4e90f76ada95127631eb41ffe39ea3b67c6c594ac41ab3d771c"
        )

    def test_quadratic_2d(self):
        circuit = build_qbpm_circuit_2d(5, GridSpec.from_qubits(5, 0.4), 532e-9, 1e4)
        assert len(circuit) == 98
        assert self.digest(circuit) == (
            "a0a00c55cd240cb9f5da49e391e72b6ee300e80ac9609d761584fab5c5e4cf79"
        )
