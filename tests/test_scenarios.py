from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

from qbpm import (
    DEFAULT_DOUBLE_SLIT,
    DEFAULT_GAUSSIAN_2D,
    DoubleSlitParams,
    ErrorStats,
    Field,
    GaussianParams,
    GridSpec,
    SampleCounts,
    StateVector,
    build_qbpm_circuit_2d,
    double_slit_analytic,
    double_slit_initial,
    double_slit_runner,
    error_analysis,
    gaussian_initial_2d,
    gaussian_runner,
    propagate_1d,
    propagate_2d,
    rmse,
    waist_from_counts,
    waist_from_field,
)

from oracles import predicted_fringe_positions


class TestDoubleSlitParams:
    def test_ordering_invariants(self):
        with pytest.raises(ValueError):
            DoubleSlitParams(1e-4, 5e-4, 532e-9, 10, 0.01)  # width > separation
        with pytest.raises(ValueError):
            DoubleSlitParams(5e-3, 4e-3, 532e-9, 10, 0.008)  # does not fit

    def test_default_matches_reference_setup(self):
        p = DEFAULT_DOUBLE_SLIT
        assert (p.slit_separation, p.slit_width, p.wavelength) == (5e-4, 1e-4, 532e-9)
        assert p.n_qubits == 15
        grid = p.make_grid()
        assert int(round(p.slit_width / grid.dx)) >= 32


class TestParamsAreFinite:
    @pytest.mark.parametrize(
        "params, field",
        [
            (DEFAULT_DOUBLE_SLIT, "slit_separation"),
            (DEFAULT_DOUBLE_SLIT, "slit_width"),
            (DEFAULT_DOUBLE_SLIT, "wavelength"),
            (DEFAULT_DOUBLE_SLIT, "n_qubits"),
            (DEFAULT_DOUBLE_SLIT, "domain_length"),
            (DEFAULT_GAUSSIAN_2D, "waist"),
            (DEFAULT_GAUSSIAN_2D, "wavelength"),
            (DEFAULT_GAUSSIAN_2D, "n_qubits_per_axis"),
            (DEFAULT_GAUSSIAN_2D, "domain_length"),
        ],
    )
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_field_rejected_by_name(self, params, field, bad):
        # a qubit count is an integer; every other field is positive and finite
        if field.startswith("n_qubits"):
            expected = f"^{field} must be an integer in 1[.][.]"
        else:
            expected = f"^{field} must be positive and finite"
        with pytest.raises(ValueError, match=expected):
            replace(params, **{field: bad})


class TestParamsQubitBudget:
    """A qubit count is checked before any grid is built from it."""

    @pytest.mark.parametrize(
        "params, field, bad",
        [
            (DEFAULT_DOUBLE_SLIT, "n_qubits", 0),
            (DEFAULT_DOUBLE_SLIT, "n_qubits", 25),
            (DEFAULT_DOUBLE_SLIT, "n_qubits", 30),
            (DEFAULT_DOUBLE_SLIT, "n_qubits", 15.5),
            (DEFAULT_GAUSSIAN_2D, "n_qubits_per_axis", 0),
            (DEFAULT_GAUSSIAN_2D, "n_qubits_per_axis", 13),
            (DEFAULT_GAUSSIAN_2D, "n_qubits_per_axis", 5.0),
        ],
    )
    def test_out_of_budget_rejected_by_name(self, params, field, bad):
        with pytest.raises(ValueError, match=f"^{field} must be an integer in 1[.][.]"):
            replace(params, **{field: bad})

    def test_budget_limits_accepted(self):
        assert replace(DEFAULT_DOUBLE_SLIT, n_qubits=24).n_qubits == 24
        assert replace(DEFAULT_GAUSSIAN_2D, n_qubits_per_axis=12).n_qubits_per_axis == 12


class TestDoubleSlitInitial:
    def test_window_edges_included(self):
        # dx = 1/32 puts grid points exactly on the window edges
        params = DoubleSlitParams(0.5, 0.25, 1e-6, 5, 1.0)
        grid = params.make_grid()
        field = double_slit_initial(params, grid)
        x = grid.coordinates()
        for edge in (0.125, 0.375, -0.125, -0.375):
            index = int(np.flatnonzero(np.isclose(x, edge))[0])
            assert field.values[index] != 0.0

    def test_nonzero_count_is_twice_one_slit(self):
        # a slit is the inclusive range between its edges rounded to grid indices
        params = DEFAULT_DOUBLE_SLIT
        grid = params.make_grid()
        field = double_slit_initial(params, grid)
        d, w = params.slit_separation, params.slit_width
        one_slit = round((d + w) / (2 * grid.dx)) - round((d - w) / (2 * grid.dx)) + 1
        assert one_slit == 33
        assert np.count_nonzero(field.values) == 2 * one_slit

    def test_edges_between_grid_points_round_to_the_nearest(self):
        # dx = 1/32 puts the edges (d -+ w) / 2 at 4.8 dx and 11.2 dx
        params = DoubleSlitParams(0.5, 0.2, 1e-6, 5, 1.0)
        grid = params.make_grid()
        g = grid.signed_indices()[double_slit_initial(params, grid).values != 0]
        assert sorted(g.tolist()) == [*range(-11, -4), *range(5, 12)]

    @pytest.mark.parametrize("n", [13, 15, 17])
    def test_slit_centres_sit_at_half_the_separation(self, n):
        params = replace(DEFAULT_DOUBLE_SLIT, n_qubits=n)
        grid = params.make_grid()
        g = grid.signed_indices()[double_slit_initial(params, grid).values != 0]
        for side in (1, -1):
            centre = np.mean(g[np.sign(g) == side]) * grid.dx
            assert abs(centre - side * params.slit_separation / 2) <= 1e-12 * grid.dx

    def test_outer_edge_rounding_onto_the_window_edge_rejected(self):
        # d + w < L, but (d + w) / (2 dx) = 15.68 rounds to N/2 = 16, which
        # the lower slit could reach and the upper one could not
        params = DoubleSlitParams(0.6, 0.38, 1e-6, 5, 1.0)
        with pytest.raises(ValueError, match="^slits do not fit on the grid: .* 16 < 16"):
            double_slit_initial(params, params.make_grid())

    def test_inner_edges_rounding_onto_the_centre_rejected(self):
        # d - w = 1 um is under a third of dx: both inner edges round to index
        # 0, and the two slits would merge into one aperture
        params = replace(DEFAULT_DOUBLE_SLIT, slit_width=4.99e-4)
        with pytest.raises(ValueError, match="^slits do not fit on the grid: .* need 0 < 0 "):
            double_slit_initial(params, params.make_grid())

    def test_unit_norm(self):
        field = double_slit_initial(DEFAULT_DOUBLE_SLIT, DEFAULT_DOUBLE_SLIT.make_grid())
        assert abs(np.linalg.norm(field.values) - 1.0) < 1e-12

    def test_under_resolved_slit_rejected(self):
        params = DoubleSlitParams(5e-4, 1e-4, 532e-9, 8, 0.1024)
        with pytest.raises(ValueError):
            double_slit_initial(params, params.make_grid())


class TestDoubleSlitAnalytic:
    def test_center_is_the_global_maximum(self):
        params = DEFAULT_DOUBLE_SLIT
        grid = params.make_grid()
        curve = double_slit_analytic(params, grid, 0.2)
        x = grid.coordinates()
        assert curve[0] == curve.max()  # slot 0 is x = 0
        assert curve.sum() == pytest.approx(1.0)
        assert np.all(curve >= 0)
        assert x[0] == 0.0

    def test_first_interference_null(self):
        # the fringe factor vanishes at sin(theta) = lambda / (2 d)
        params = DEFAULT_DOUBLE_SLIT
        z = 0.2
        sin_null = params.wavelength / (2 * params.slit_separation)
        x_null = z * np.tan(np.arcsin(sin_null))
        dense = GridSpec(2**15, x_null / 2000)
        curve = double_slit_analytic(params, dense, z)
        x = dense.coordinates()
        window = np.abs(x - x_null) < 40 * dense.dx
        assert curve[window].min() < 1e-6 * curve.max()
        x_min = x[window][np.argmin(curve[window])]
        assert abs(x_min - x_null) <= dense.dx

    def test_zero_distance_rejected(self):
        params = DEFAULT_DOUBLE_SLIT
        with pytest.raises(ValueError):
            double_slit_analytic(params, params.make_grid(), 0.0)

    def test_fringe_positions_need_existing_orders(self):
        params = DEFAULT_DOUBLE_SLIT
        positions = predicted_fringe_positions(params, 0.2, [-1, 0, 1])
        assert positions[1] == 0.0
        assert positions[2] == -positions[0] > 0
        with pytest.raises(ValueError):
            predicted_fringe_positions(params, 0.2, [2000])


class TestGaussianInitial:
    def test_peak_at_center_and_waist_amplitude(self):
        params = DEFAULT_GAUSSIAN_2D
        grid = params.make_grid()
        field = gaussian_initial_2d(params, grid)
        values = field.values
        peak = values[0, 0]  # slot (0, 0) is the origin
        assert np.abs(values).max() == pytest.approx(abs(peak))
        # the waist is exactly 4 grid cells, so (w0, 0) lies on the grid
        at_waist = values[0, 4]
        assert abs(at_waist / peak) == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_unit_norm(self):
        params = DEFAULT_GAUSSIAN_2D
        field = gaussian_initial_2d(params, params.make_grid())
        assert abs(np.linalg.norm(field.values) - 1.0) < 1e-12

    def test_under_resolved_waist_rejected(self):
        params = GaussianParams(0.05, 532e-9, 5, 0.8)
        with pytest.raises(ValueError):
            gaussian_initial_2d(params, params.make_grid())

    def test_rayleigh_length(self):
        params = DEFAULT_GAUSSIAN_2D
        k = 2 * np.pi / params.wavelength
        assert params.rayleigh_length == pytest.approx(k * params.waist**2 / 2)


class TestWaistEstimators:
    def test_all_shots_at_center_give_zero(self):
        params = DEFAULT_GAUSSIAN_2D
        grid = params.make_grid()
        histogram = np.zeros(grid.n_points**2, dtype=np.int64)
        histogram[0] = 500  # basis index 0 is the origin
        counts = SampleCounts(histogram)
        assert waist_from_counts(counts, grid) == 0.0

    def test_delta_field_gives_zero(self):
        grid = DEFAULT_GAUSSIAN_2D.make_grid()
        values = np.zeros((32, 32), dtype=complex)
        values[0, 0] = 1.0
        assert waist_from_field(Field((grid, grid), values)) == 0.0

    def test_field_of_one_axis_rejected(self):
        field = Field((DEFAULT_GAUSSIAN_2D.make_grid(),), np.ones(32))
        with pytest.raises(ValueError, match="expects a 2D field"):
            waist_from_field(field)

    def test_initial_waist_is_w0_over_sqrt2(self):
        # closed-form second moment of exp(-2 r^2 / w0^2), cross-checked by
        # numerical quadrature on a much finer grid
        params = DEFAULT_GAUSSIAN_2D
        field = gaussian_initial_2d(params, params.make_grid())
        measured = waist_from_field(field)
        assert measured == pytest.approx(params.waist / np.sqrt(2), rel=1e-6)

        fine = np.linspace(-0.2, 0.2, 4001)
        intensity_1d = np.exp(-2 * fine**2 / params.waist**2)
        # numpy < 2.0 has the same rule only as np.trapz
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        second_moment_1d = trapezoid(fine**2 * intensity_1d, fine) / trapezoid(intensity_1d, fine)
        quadrature = np.sqrt(2 * second_moment_1d)  # both axes contribute
        assert quadrature == pytest.approx(params.waist / np.sqrt(2), rel=1e-9)

    def test_sampled_waist_converges_to_field_waist(self):
        params = DEFAULT_GAUSSIAN_2D
        grid = params.make_grid()
        initial = gaussian_initial_2d(params, grid)
        z = params.rayleigh_length
        circuit = build_qbpm_circuit_2d(5, grid, params.wavelength, z)
        state = circuit.run(StateVector.from_amplitudes(initial.values))
        w_ref = waist_from_field(propagate_2d(initial, params.wavelength, z))
        w_sampled = waist_from_counts(state.sample(100_000, seed=3), grid)
        assert abs(w_sampled - w_ref) / w_ref < 0.01

    def test_broadening_is_strictly_monotone(self):
        params = DEFAULT_GAUSSIAN_2D
        initial = gaussian_initial_2d(params, params.make_grid())
        z0 = params.rayleigh_length
        widths = [
            waist_from_field(propagate_2d(initial, params.wavelength, zr * z0))
            for zr in (0.0, 0.5, 1.0, 2.0, 3.0)
        ]
        assert all(a < b for a, b in zip(widths, widths[1:]))


class TestRunners:
    def test_double_slit_zero_distance_reference_is_initial_intensity(self):
        params = DoubleSlitParams(5e-4, 1e-4, 532e-9, 8, 0.0064)
        initial = double_slit_initial(params, params.make_grid())
        state, reference, _ = double_slit_runner(params)(0.0)
        expected = initial.intensity() / initial.intensity().sum()
        assert np.array_equal(reference, expected)
        assert np.max(np.abs(state.amplitudes - initial.values)) < 1e-10

    def test_double_slit_state_matches_classical_path(self):
        params = DoubleSlitParams(5e-4, 1e-4, 532e-9, 8, 0.0064)
        grid = params.make_grid()
        initial = double_slit_initial(params, grid)
        state, reference, _ = double_slit_runner(params)(0.05)
        assert np.array_equal(reference, double_slit_analytic(params, grid, 0.05))
        classical = propagate_1d(initial, params.wavelength, 0.05)
        assert np.max(np.abs(state.amplitudes - classical.values)) < 1e-9

    def test_gaussian_reference_is_classical_field_waist(self):
        params = GaussianParams(0.05, 532e-9, 4, 0.2)
        initial = gaussian_initial_2d(params, params.make_grid())
        z = params.rayleigh_length
        state, w_reference, _ = gaussian_runner(params)(z)
        classical = propagate_2d(initial, params.wavelength, z)
        assert w_reference == waist_from_field(classical)
        assert np.max(np.abs(state.amplitudes - classical.values.ravel())) < 1e-9

    @pytest.mark.parametrize("z", [0.0, 0.05])
    def test_double_slit_run_error_is_rmse_of_the_frequencies(self, z):
        params = DoubleSlitParams(5e-4, 1e-4, 532e-9, 8, 0.0064)
        state, reference, run_error = double_slit_runner(params)(z)
        for seed in range(5):
            counts = state.sample(500, seed)
            assert run_error(counts) == rmse(reference, counts.frequencies())

    @pytest.mark.parametrize("z_ratio", [0.0, 1.0])
    def test_gaussian_run_error_is_sampled_minus_reference_waist(self, z_ratio):
        params = GaussianParams(0.05, 532e-9, 4, 0.2)
        grid = params.make_grid()
        state, w_reference, run_error = gaussian_runner(params)(z_ratio * params.rayleigh_length)
        for seed in range(5):
            counts = state.sample(500, seed)
            assert run_error(counts) == waist_from_counts(counts, grid) - w_reference


class TestErrorAnalysis:
    def test_requires_repetitions(self):
        with pytest.raises(ValueError):
            error_analysis(DEFAULT_DOUBLE_SLIT, [0.0], [100], n_sim=1, seed=0)

    @pytest.mark.parametrize("n_sim", [1, 2.5, 3.0, True, "5"])
    def test_repetitions_must_be_an_integer_of_at_least_two(self, n_sim):
        with pytest.raises(ValueError, match="^n_sim must be an integer >= 2"):
            error_analysis(DEFAULT_DOUBLE_SLIT, [0.0], [100], n_sim=n_sim, seed=0)

    @pytest.mark.parametrize("n_shots", [100.7, 0.5, 100.0, True])
    def test_non_integer_shot_count_rejected_not_truncated(self, n_shots):
        params = DoubleSlitParams(5e-4, 1e-4, 532e-9, 9, 0.0064)
        with pytest.raises(ValueError, match="^n_shots must be an integer >= 1"):
            error_analysis(params, [0.0], [n_shots], n_sim=2, seed=0)

    def test_numpy_integer_counts_accepted(self):
        params = DoubleSlitParams(5e-4, 1e-4, 532e-9, 9, 0.0064)
        table = error_analysis(params, [0.0], [np.int64(100)], n_sim=np.int32(2), seed=0)
        assert table == error_analysis(params, [0.0], [100], n_sim=2, seed=0)
        assert [type(key[1]) for key in table] == [int]

    def test_rejects_unknown_scenario(self):
        with pytest.raises(TypeError):
            error_analysis(object(), [0.0], [100], n_sim=2, seed=0)

    def test_table_shape_and_determinism(self):
        params = DoubleSlitParams(5e-4, 1e-4, 532e-9, 11, 0.0064)
        table = error_analysis(params, [0.0, 0.05], [200, 400], n_sim=5, seed=9)
        assert set(table) == {(0.0, 200), (0.0, 400), (0.05, 200), (0.05, 400)}
        stats = table[(0.05, 400)]
        assert isinstance(stats, ErrorStats)
        assert [field.name for field in fields(stats)] == ["mu", "sigma"]
        assert stats.mu > 0 and stats.sigma >= 0
        again = error_analysis(params, [0.0, 0.05], [200, 400], n_sim=5, seed=9)
        assert again == table

    @staticmethod
    def recomputed_errors(params, z, n_shots, n_sim, seed):
        """The per-run errors of one double-slit table entry, from the
        documented schedule: run i draws with default_rng(seed + i) from the
        normalized probabilities."""
        state, reference, _ = double_slit_runner(params)(z)
        p = state.probabilities()
        p = p / p.sum()
        return np.array(
            [
                rmse(reference, np.random.default_rng(seed + i).multinomial(n_shots, p) / n_shots)
                for i in range(n_sim)
            ]
        )

    def test_run_seeds_follow_seed_plus_run_index(self):
        params = DoubleSlitParams(5e-4, 1e-4, 532e-9, 8, 0.0064)
        z, n_shots, n_sim, seed = 0.05, 3000, 6, 41
        table = error_analysis(params, [0.0, z], [500, n_shots], n_sim=n_sim, seed=seed)
        errors = self.recomputed_errors(params, z, n_shots, n_sim, seed)
        stats = table[(z, n_shots)]
        assert stats.mu == float(np.mean(errors))
        assert stats.sigma == np.std(errors)

    def test_sigma_is_the_exact_population_standard_deviation(self):
        # at this cell sqrt(<e**2> - <e>**2) in floats is off by 7e-13
        # relative; sigma must be within 4e-16 of the exact value
        params = DoubleSlitParams(5e-4, 1e-4, 532e-9, 12, 0.0128)
        z, n_shots, n_sim, seed = 1.0, 100_000, 20, 7
        stats = error_analysis(params, [z], [n_shots], n_sim=n_sim, seed=seed)[(z, n_shots)]
        errors = self.recomputed_errors(params, z, n_shots, n_sim, seed)
        assert stats.mu == float(np.mean(errors))
        exact = [Fraction(e) for e in errors]
        mean = sum(exact) / n_sim
        variance = sum((e - mean) ** 2 for e in exact) / n_sim
        # |sigma / sqrt(variance) - 1| <= bound, squared to stay in exact arithmetic
        bound = Fraction(4, 10**16)
        assert (1 - bound) ** 2 <= Fraction(stats.sigma) ** 2 / variance <= (1 + bound) ** 2

    def test_zero_distance_error_is_pure_shot_noise(self):
        params = DoubleSlitParams(5e-4, 1e-4, 532e-9, 11, 0.0064)
        table = error_analysis(params, [0.0], [500, 50_000], n_sim=20, seed=10)
        ratio = table[(0.0, 500)].mu / table[(0.0, 50_000)].mu
        assert ratio == pytest.approx(10.0, rel=0.15)  # mu scales as shots**-0.5

    def test_standard_error_scales_with_shot_noise(self):
        params = DoubleSlitParams(5e-4, 1e-4, 532e-9, 11, 0.0064)
        shots = [1000, 10_000, 100_000]
        table = error_analysis(params, [0.0], shots, n_sim=100, seed=12)
        sigma = np.array([table[(0.0, s)].sigma for s in shots])
        slope = np.polyfit(np.log(np.array(shots, float)), np.log(sigma), 1)[0]
        assert -0.6 < slope < -0.4

    def test_sampled_waist_lands_within_three_standard_errors(self):
        params = DEFAULT_GAUSSIAN_2D
        grid = params.make_grid()
        initial = gaussian_initial_2d(params, grid)
        z = params.rayleigh_length
        table = error_analysis(params, [z], [100_000], n_sim=100, seed=55)
        sigma_w = table[(z, 100_000)].sigma
        w_ref = waist_from_field(propagate_2d(initial, params.wavelength, z))
        circuit = build_qbpm_circuit_2d(5, grid, params.wavelength, z)
        state = circuit.run(StateVector.from_amplitudes(initial.values))
        hits = sum(
            abs(waist_from_counts(state.sample(100_000, 700 + i), grid) - w_ref) < 3 * sigma_w
            for i in range(20)
        )
        assert hits >= 19  # 95 percent of runs

    def test_gaussian_error_is_waist_difference(self):
        params = GaussianParams(0.05, 532e-9, 4, 0.2)
        z0 = params.rayleigh_length
        table = error_analysis(params, [z0], [2000], n_sim=10, seed=11)
        stats = table[(z0, 2000)]
        assert abs(stats.mu) < 0.05 * params.waist
        assert stats.sigma > 0
