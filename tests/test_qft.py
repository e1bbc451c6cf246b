import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbpm import qft
from qbpm import (
    BACKWARD,
    FORWARD,
    Hadamard,
    StateVector,
    build_iqft,
    build_qft,
    dft_oracle,
)


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return StateVector.from_amplitudes(v)


class TestDftOracle:
    def test_delta_to_constant(self):
        out = dft_oracle([1, 0, 0, 0, 0, 0, 0, 0])
        assert np.allclose(out, 1 / np.sqrt(8))

    def test_constant_to_delta(self):
        out = dft_oracle(np.full(8, 1 / np.sqrt(8)))
        expected = np.zeros(8, dtype=complex)
        expected[0] = 1.0
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_parseval(self):
        rng = np.random.default_rng(30)
        v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        for sign in (FORWARD, BACKWARD):
            assert abs(np.linalg.norm(dft_oracle(v, sign)) - np.linalg.norm(v)) < 1e-12

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            dft_oracle([1.0, 2.0, 3.0])

    def test_rejects_register_above_cap_before_building_matrix(self, monkeypatch):
        # the 13-qubit dense matrix would take 1 GiB
        def no_matrix(n, sign):
            raise AssertionError("dense matrix built")

        monkeypatch.setattr(qft, "_dft_matrix", no_matrix)
        with pytest.raises(ValueError, match="at most 12 qubits, got 13"):
            dft_oracle(np.zeros(1 << 13))


class TestBuildQft:
    def test_one_qubit_is_a_single_hadamard(self):
        assert build_qft(1).gates == (Hadamard(0),)

    def test_delta_input_gives_flat_real_output(self):
        out = build_qft(3).run(StateVector.basis_state(3))
        assert np.allclose(out.amplitudes, 1 / np.sqrt(8))

    def test_matches_dense_oracle(self):
        for n in (2, 4, 6, 8):
            for seed in range(10):
                state = random_state(n, seed=40 + seed)
                out = build_qft(n).run(state)
                ref = dft_oracle(state.amplitudes, FORWARD)
                assert np.max(np.abs(out.amplitudes - ref)) < 1e-10

    def test_basis_state_frequency_identity(self):
        # output on |g> is exp(sign*2*pi*i*g*g'/N)/sqrt(N); indices g' >= N/2
        # alias to g'-N, which is the negative-frequency reading
        n, sign = 4, FORWARD
        n_states = 2**n
        for g in (1, 5, 11):
            out = build_qft(n).run(StateVector.basis_state(n, g)).amplitudes
            gp = np.arange(n_states)
            expected = np.exp(sign * 2j * np.pi * g * gp / n_states) / np.sqrt(n_states)
            assert np.max(np.abs(out - expected)) < 1e-12
            signed = np.where(gp < n_states // 2, gp, gp - n_states)
            aliased = np.exp(sign * 2j * np.pi * g * signed / n_states) / np.sqrt(n_states)
            assert np.max(np.abs(out - aliased)) < 1e-12

    def test_gate_count_closed_form(self):
        for n in range(1, 21):
            counts = build_qft(n).gate_count()
            assert counts["Hadamard"] == n
            assert counts["ControlledPhase"] == n * (n - 1) // 2
            assert counts["Swap"] == n // 2
            assert sum(counts.values()) == n + n * (n - 1) // 2 + n // 2

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            build_qft(0)
        with pytest.raises(ValueError):
            build_qft(25)


class TestBuildIqft:
    def test_inverts_qft(self):
        state = random_state(6, seed=50)
        round_trip = build_iqft(6).run(build_qft(6).run(state))
        fidelity = abs(np.vdot(round_trip.amplitudes, state.amplitudes)) ** 2
        assert fidelity >= 1 - 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 10), st.integers(0, 2**32 - 1))
    def test_round_trip_is_identity(self, n, seed):
        state = random_state(n, seed)
        back = build_iqft(n).run(build_qft(n).run(state))
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-10

    def test_adjoint_matches_conjugated_oracle(self):
        n = 8
        state = random_state(n, seed=51)
        out = build_iqft(n).run(state)
        ref = dft_oracle(state.amplitudes, BACKWARD)
        assert np.max(np.abs(out.amplitudes - ref)) < 1e-10
