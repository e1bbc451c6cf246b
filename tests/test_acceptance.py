"""Acceptance suite: one test per release criterion, each at its stated
tolerance.  Run with ``pytest -v tests/test_acceptance.py`` to get one
pass/fail line per criterion; each test also prints a summary line."""
import json
import shutil

import numpy as np
import pytest

from qbpm import (
    DEFAULT_DOUBLE_SLIT,
    DEFAULT_GAUSSIAN_2D,
    Field,
    StateVector,
    build_iqft,
    build_monomial_propagator,
    build_qbpm_circuit,
    build_qbpm_circuit_2d,
    build_qft,
    decompose_monomial,
    double_slit_analytic,
    double_slit_initial,
    error_analysis,
    gaussian_initial_2d,
    propagate_1d,
    propagate_2d,
    rmse,
    waist_from_counts,
    waist_from_field,
)
from qbpm import classical_bpm
from qbpm.cli import main as cli_main

from oracles import dft_oracle, diagonal_oracle, predicted_fringe_positions


def random_state(n, rng):
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return StateVector.from_amplitudes(v)


def signed_value(b, n):
    return b - 2**n if b >= 2 ** (n - 1) else b


def test_criterion_1_decomposition_exactness():
    """Digit-subset expansion reproduces g**p exactly (integer arithmetic,
    zero tolerance) for every n <= 8, p in {1, 2, 3}, and every signed g."""
    checked = 0
    for n in range(1, 9):
        for p in (1, 2, 3):
            terms = decompose_monomial(n, p)
            for b in range(2**n):
                total = sum(
                    coefficient * int(all((b >> j) & 1 for j in qubits))
                    for qubits, coefficient in terms
                )
                assert total == signed_value(b, n) ** p, (n, p, b)
                checked += 1
    print(f"\nACCEPTANCE 1 PASS: g**p exact for {checked} (n, p, g) combinations")


def test_criterion_2_diagonal_unitary_synthesis():
    """Propagator circuits act on every basis state exactly like the direct
    diagonal evaluation, within 1e-12 per amplitude, for n <= 6 and 20
    random phases per order."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n in range(1, 7):
        for p in (1, 2, 3):
            for phi in rng.uniform(-np.pi, np.pi, size=20):
                circuit = build_monomial_propagator(n, p, float(phi))
                diagonal = diagonal_oracle(n, {p: float(phi)})
                for b in range(2**n):
                    out = StateVector.basis_state(n, b).apply_sequence(circuit.gates)
                    deviation = np.abs(out.amplitudes - diagonal[b] * StateVector.basis_state(n, b).amplitudes)
                    worst = max(worst, float(deviation.max()))
    assert worst < 1e-12
    print(f"\nACCEPTANCE 2 PASS: diagonal synthesis worst deviation {worst:.2e} < 1e-12")


def test_criterion_3_qft_correctness():
    """Transform circuits match the dense matrix oracle within 1e-10 for
    n <= 10 over 100 random states per size; round trip fidelity
    >= 1 - 1e-12."""
    rng = np.random.default_rng(2025)
    worst = 0.0
    worst_fidelity = 1.0
    for n in range(1, 11):
        qft = build_qft(n)
        iqft = build_iqft(n)
        for _ in range(100):
            state = random_state(n, rng)
            transformed = qft.run(state)
            reference = dft_oracle(state.amplitudes)
            worst = max(worst, float(np.max(np.abs(transformed.amplitudes - reference))))
            round_trip = iqft.run(transformed)
            fidelity = abs(np.vdot(round_trip.amplitudes, state.amplitudes)) ** 2
            worst_fidelity = min(worst_fidelity, fidelity)
    assert worst < 1e-10
    assert worst_fidelity >= 1 - 1e-12
    print(
        f"\nACCEPTANCE 3 PASS: qft deviation {worst:.2e} < 1e-10, "
        f"round-trip fidelity {worst_fidelity:.15f}"
    )


def test_criterion_4_quantum_classical_equivalence():
    """Quantum and classical propagation agree within 1e-9 max amplitude
    deviation for 50 random states up to 12 qubits and distances spanning
    three decades."""
    rng = np.random.default_rng(2026)
    wavelength = 1e-6
    distances = (1e-3, 1e-2, 1e-1, 1.0)
    sizes = (4, 6, 8, 10, 12)
    worst = 0.0
    for index in range(50):
        n = sizes[index % len(sizes)]
        grid = classical_bpm.GridSpec(2**n, 1e-5)
        state = random_state(n, rng)
        for z in distances:
            quantum = build_qbpm_circuit(n, grid, wavelength, z).run(state)
            classical = propagate_1d(Field((grid,), state.amplitudes), wavelength, z)
            worst = max(worst, float(np.max(np.abs(quantum.amplitudes - classical.values))))
    assert worst < 1e-9
    print(
        f"\nACCEPTANCE 4 PASS: 50 states, z over 3 decades, "
        f"max quantum-classical deviation {worst:.2e} < 1e-9"
    )


def test_criterion_5_gate_count_claims():
    """Quadratic propagator needs exactly n(n+1)/2 gates for every n <= 24;
    cubic gate counts over n in 6..12 fit c * n**3 with R^2 > 0.99."""
    for n in range(1, 25):
        assert len(build_monomial_propagator(n, 2, 0.317)) == n * (n + 1) // 2
    sizes = np.arange(6, 13)
    counts = np.array([len(decompose_monomial(int(n), 3)) for n in sizes], dtype=float)
    cubes = sizes.astype(float) ** 3
    scale = float(np.sum(counts * cubes) / np.sum(cubes**2))
    residual = counts - scale * cubes
    r_squared = 1.0 - np.sum(residual**2) / np.sum((counts - counts.mean()) ** 2)
    assert r_squared > 0.99
    print(
        f"\nACCEPTANCE 5 PASS: quadratic count n(n+1)/2 exact to n=24; "
        f"cubic fit c*n^3 R^2 = {r_squared:.5f} > 0.99"
    )


def locate_fringe(x_sorted, intensity_sorted, params, z, order, single_slit_intensity):
    """Fringe-lobe position: first moment of the pattern divided by the
    two-aperture envelope (classically propagated single slit), over a
    half-fringe window centered on the predicted maximum."""
    fringe = params.wavelength * z / params.slit_separation
    predicted = predicted_fringe_positions(params, z, [order])[0]
    window = (x_sorted >= predicted - fringe / 4) & (x_sorted <= predicted + fringe / 4)
    shift = params.slit_separation / 2
    envelope = np.interp(x_sorted[window] - shift, x_sorted, single_slit_intensity) + np.interp(
        x_sorted[window] + shift, x_sorted, single_slit_intensity
    )
    weights = intensity_sorted[window] / envelope
    return float(np.sum(x_sorted[window] * weights) / np.sum(weights)), predicted


def test_criterion_6_double_slit_reproduction():
    """Reference double-slit run (15 qubits, 100000 shots): the sampled
    histogram stays within RMSE 0.1 of the far-field curve and the fringe
    maxima sit at sin(theta) = m lambda / d within one grid cell."""
    params = DEFAULT_DOUBLE_SLIT
    grid = params.make_grid()
    initial = double_slit_initial(params, grid)
    state0 = StateVector.from_amplitudes(initial.values)
    x = grid.coordinates()
    order_idx = np.argsort(x, kind="stable")
    x_sorted = x[order_idx]

    single = (np.abs(x) <= params.slit_width / 2).astype(np.complex128)
    single_field = Field((grid,), single / np.linalg.norm(single))

    n_shots = 100_000
    distances = (0.1, 0.2, 0.35)
    worst_rmse = 0.0
    worst_cells = 0.0
    for z in distances:
        state = build_qbpm_circuit(params.n_qubits, grid, params.wavelength, z).run(state0)
        sampled = state.sample(n_shots, seed=20_000).frequencies()
        analytic = double_slit_analytic(params, grid, z)
        value = rmse(analytic, sampled)
        worst_rmse = max(worst_rmse, value)
        assert value < 0.1, (z, value)

        exact_sorted = state.probabilities()[order_idx]
        single_intensity = np.abs(
            propagate_1d(single_field, params.wavelength, z).values[order_idx]
        ) ** 2
        for m in (-3, -2, -1, 0, 1, 2, 3):
            found, predicted = locate_fringe(
                x_sorted, exact_sorted, params, z, m, single_intensity
            )
            cells = abs(found - predicted) / grid.dx
            worst_cells = max(worst_cells, cells)
            assert cells <= 1.0, (z, m, cells)
    print(
        f"\nACCEPTANCE 6 PASS: sampled RMSE <= {worst_rmse:.4f} < 0.1 and fringe "
        f"maxima within {worst_cells:.2f} <= 1 grid cell at z in {distances}"
    )


def test_criterion_7_error_structure():
    """Repeated-sampling error statistics (100 simulations each):
    (a) the mean error grows monotonically with distance and exceeds the
    standard error, (b) at z = 0 the mean error scales as shots**-0.5
    within +-0.1 in the log-log slope, (c) for z > 0 the mean error moves
    under 10 percent between 1e6 and 4e6 shots (discretization floor)."""
    params = DEFAULT_DOUBLE_SLIT
    n_sim = 100

    z_grid = [1.0, 3.0, 8.0, 16.0]
    sweep = error_analysis(params, z_grid, [100_000], n_sim=n_sim, seed=4001)
    mus = [sweep[(z, 100_000)].mu for z in z_grid]
    sigmas = [sweep[(z, 100_000)].sigma for z in z_grid]
    assert all(a < b for a, b in zip(mus, mus[1:])), mus
    assert all(m > s for m, s in zip(mus, sigmas))

    shot_grid = [1000, 10_000, 100_000, 1_000_000]
    at_focus = error_analysis(params, [0.0], shot_grid, n_sim=n_sim, seed=4002)
    mu0 = np.array([at_focus[(0.0, s)].mu for s in shot_grid])
    slope = float(np.polyfit(np.log(np.array(shot_grid, float)), np.log(mu0), 1)[0])
    assert -0.6 <= slope <= -0.4, slope

    floor = error_analysis(params, [8.0], [1_000_000, 4_000_000], n_sim=n_sim, seed=4003)
    mu_1m = floor[(8.0, 1_000_000)].mu
    mu_4m = floor[(8.0, 4_000_000)].mu
    change = abs(mu_4m - mu_1m) / mu_1m
    assert change < 0.10, change
    print(
        f"\nACCEPTANCE 7 PASS: mu monotone {['%.2e' % m for m in mus]} and > sigma; "
        f"z=0 slope {slope:.3f} in [-0.6, -0.4]; floor change {change * 100:.1f}% < 10%"
    )


def test_criterion_8_gaussian_2d_reproduction():
    """Reference Gaussian run (5 qubits per axis): broadening follows
    sqrt(1 + zr^2) within 2 percent up to zr = 3, the waist sampling error
    scales as shots**-0.5 within +-0.1, and 100 shots estimate the waist
    within 10 percent in at least 90 of 100 runs."""
    params = DEFAULT_GAUSSIAN_2D
    grid = params.make_grid()
    initial = gaussian_initial_2d(params, grid)
    state0 = StateVector.from_amplitudes(initial.values)
    z0 = params.rayleigh_length
    ratios = (0.0, 1.0, 2.0, 3.0)

    w_ref = {}
    w_sampled = {}
    for zr in ratios:
        z = zr * z0
        reference = propagate_2d(initial, params.wavelength, z)
        w_ref[zr] = waist_from_field(reference)
        circuit = build_qbpm_circuit_2d(
            params.n_qubits_per_axis, grid, params.wavelength, z
        )
        counts = circuit.run(state0).sample(50_000, seed=8001)
        w_sampled[zr] = waist_from_counts(counts, grid)

    widths = [w_ref[zr] for zr in ratios]
    assert all(a < b for a, b in zip(widths, widths[1:]))  # visible broadening
    assert all(a < b for a, b in zip([w_sampled[zr] for zr in ratios],
                                     [w_sampled[zr] for zr in ratios][1:]))
    worst_ratio_error = 0.0
    for zr in (1.0, 2.0, 3.0):
        expected = np.sqrt(1 + zr**2)
        ratio = w_ref[zr] / w_ref[0.0]
        worst_ratio_error = max(worst_ratio_error, abs(ratio - expected) / expected)
    assert worst_ratio_error < 0.02

    shot_grid = [100, 1000, 10_000, 100_000]
    table = error_analysis(params, [z0], shot_grid, n_sim=100, seed=8002)
    sigma_w = np.array([table[(z0, s)].sigma for s in shot_grid])
    slope = float(np.polyfit(np.log(np.array(shot_grid, float)), np.log(sigma_w), 1)[0])
    assert -0.6 <= slope <= -0.4, slope

    circuit = build_qbpm_circuit_2d(
        params.n_qubits_per_axis, grid, params.wavelength, z0
    )
    state = circuit.run(state0)
    reference_width = waist_from_field(propagate_2d(initial, params.wavelength, z0))
    hits = 0
    for run in range(100):
        estimate = waist_from_counts(state.sample(100, seed=8003 + run), grid)
        if abs(estimate - reference_width) / reference_width < 0.10:
            hits += 1
    assert hits >= 90
    print(
        f"\nACCEPTANCE 8 PASS: broadening ratio error {worst_ratio_error * 100:.2f}% < 2%, "
        f"sigma_w slope {slope:.3f}, 100-shot waist within 10% in {hits}/100 runs"
    )


def test_criterion_9_cli_determinism(tmp_path):
    """Rerunning a CLI command with identical configuration and seed
    produces byte-identical files."""
    runs = {
        "double-slit": [
            "double-slit", "--qubits", "11", "--domain-length", "0.0064",
            "--shots", "5000", "--z", "0.05", "--seed", "31",
        ],
        "gaussian-2d": [
            "gaussian-2d", "--qubits", "4", "--domain-length", "0.2",
            "--shots", "2000", "--zr", "0", "--zr", "1", "--sims", "5",
            "--sweep-shots", "100", "--seed", "31",
        ],
    }
    for name, argv in runs.items():
        out = tmp_path / name
        assert cli_main([*argv, "--out", str(out)]) == 0
        snapshot = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        shutil.rmtree(out)
        assert cli_main([*argv, "--out", str(out)]) == 0
        repeat = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert repeat == snapshot, f"{name} output differs between identical runs"
        config = json.loads((out / "config.json").read_text())
        assert config["seed"] == 31
    print("\nACCEPTANCE 9 PASS: byte-identical reruns for double-slit and gaussian-2d")
