import numpy as np
import pytest

from qbpm import Field, GridSpec, propagate_1d, propagate_2d, rmse
from qbpm.classical_bpm import check_positive, wavenumber

from oracles import full_spectrum_propagate


def random_field_1d(n_qubits, dx, seed):
    rng = np.random.default_rng(seed)
    grid = GridSpec(2**n_qubits, dx)
    values = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
    values /= np.linalg.norm(values)
    return Field((grid,), values)


class TestGridSpec:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            GridSpec(12, 1e-5)

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            GridSpec(1, 1e-5)

    def test_rejects_bad_spacing(self):
        with pytest.raises(ValueError):
            GridSpec(8, 0.0)

    def test_spacing_whose_frequency_step_overflows_named(self):
        # 2 pi / (8 * 1e-310) overflows float64
        with pytest.raises(ValueError, match="^dx 1e-310 is too small: .* frequency spacing"):
            GridSpec(8, 1e-310)
        with pytest.raises(ValueError, match="^domain_length 3.2e-309 is too small: .* freq"):
            GridSpec.from_qubits(5, 3.2e-309)

    def test_spacing_whose_span_overflows_named(self):
        # 256 * 1e308 overflows float64, so d_alpha would read 0.0
        with pytest.raises(ValueError, match=r"^dx 1e\+308 is too large: over 256 points, its sp"):
            GridSpec(256, 1e308)
        # the largest span that float64 holds
        grid = GridSpec(2, np.finfo(float).max / 2)
        assert 0.0 < grid.d_alpha < np.inf
        assert np.isfinite(grid.coordinates()).all()

    def test_frequency_step_closes_the_circle(self):
        for n in (2, 8, 15):
            grid = GridSpec.from_qubits(n, 0.37)
            assert abs(grid.d_alpha * grid.n_points * grid.dx - 2 * np.pi) < 1e-12

    def test_signed_indices_layout(self):
        grid = GridSpec(8, 1.0)
        assert grid.signed_indices().tolist() == [0, 1, 2, 3, -4, -3, -2, -1]
        assert grid.coordinates().tolist() == [0.0, 1.0, 2.0, 3.0, -4.0, -3.0, -2.0, -1.0]

    def test_from_qubits(self):
        grid = GridSpec.from_qubits(5, 0.4)
        assert grid.n_points == 32
        assert grid.n_qubits == 5
        assert grid.dx == 0.4 / 32
        assert grid.n_points * grid.dx == pytest.approx(0.4)


class TestCheckPositive:
    @pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, np.inf, -np.inf, np.nan])
    def test_rejected_by_name(self, bad):
        with pytest.raises(ValueError, match=f"^length must be positive and finite, got {bad}$"):
            check_positive("length", bad)

    @pytest.mark.parametrize("good", [5e-324, 1e-310, 1.0, 1e308])
    def test_subnormal_and_huge_accepted(self, good):
        check_positive("length", good)


class TestField:
    def test_shape_mismatch_rejected(self):
        grid = GridSpec(8, 1.0)
        with pytest.raises(ValueError):
            Field((grid,), np.zeros(4, dtype=complex))

    def test_2d_shape_follows_grids(self):
        gx = GridSpec(4, 1.0)
        gy = GridSpec(8, 1.0)
        field = Field((gx, gy), np.zeros((8, 4), dtype=complex))
        assert field.ndim == 2
        with pytest.raises(ValueError):
            Field((gx, gy), np.zeros((4, 8), dtype=complex))


class TestPropagate1d:
    def test_zero_distance_is_identity(self):
        field = random_field_1d(8, 1e-5, seed=1)
        out = propagate_1d(field, 532e-9, 0.0)
        assert np.max(np.abs(out.values - field.values)) < 1e-13

    def test_plane_wave_unchanged(self):
        grid = GridSpec(64, 1e-5)
        field = Field((grid,), np.full(64, 0.125, dtype=complex))
        out = propagate_1d(field, 532e-9, 0.3)
        assert np.max(np.abs(out.values - field.values)) < 1e-13

    def test_energy_conserved(self):
        field = random_field_1d(10, 1e-5, seed=2)
        out = propagate_1d(field, 1e-6, 0.7)
        assert abs(np.sum(out.intensity()) - np.sum(field.intensity())) < 1e-12

    def test_semigroup_in_distance(self):
        field = random_field_1d(8, 1e-5, seed=3)
        two_steps = propagate_1d(propagate_1d(field, 1e-6, 0.013), 1e-6, 0.029)
        one_step = propagate_1d(field, 1e-6, 0.042)
        assert np.max(np.abs(two_steps.values - one_step.values)) < 1e-12

    def test_gaussian_width_grows_sqrt2_after_one_rayleigh_length(self):
        # second-moment width measured by direct summation, an oracle
        # independent of the transform chain
        wavelength = 1e-6
        w0 = 40e-6
        k = 2 * np.pi / wavelength
        rayleigh = k * w0**2 / 2
        grid = GridSpec(4096, 1e-6)
        x = grid.coordinates()
        values = np.exp(-(x**2) / w0**2).astype(complex)
        field = Field((grid,), values / np.linalg.norm(values))

        def width(f):
            intensity = f.intensity()
            return np.sqrt(np.sum(x**2 * intensity) / np.sum(intensity))

        ratio = width(propagate_1d(field, wavelength, rayleigh)) / width(field)
        assert ratio == pytest.approx(np.sqrt(2.0), rel=1e-6)

    def test_invalid_parameters(self):
        field = random_field_1d(4, 1e-5, seed=4)
        with pytest.raises(ValueError):
            propagate_1d(field, -1.0, 0.1)
        with pytest.raises(ValueError):
            propagate_1d(field, 1e-6, -0.1)

    def test_distance_overflowing_the_phase_rejected(self):
        # the angle c * d_alpha**2 * z is finite (-2.5e304), but its slot
        # phase at g = N/2 overflows to inf, and the exp would give NaN
        field = random_field_1d(8, 1e-5, seed=4)
        with pytest.raises(ValueError, match="transfer phase overflows at z = 1e[+]305$"):
            propagate_1d(field, 532e-9, 1e305)

    def test_phase_whose_product_overflows_before_the_division_by_2k_runs(self):
        # (g * d_alpha)**2 * z overflows, but the slot phase is 4e303 rad
        field = random_field_1d(8, 1e-5, seed=4)
        out = propagate_1d(field, 532e-9, 1e300)
        assert abs(np.sum(out.intensity()) - 1.0) < 1e-12

    def test_tiny_spacing_rejected(self):
        # d_alpha**2 overflows: an error, not a numpy overflow warning
        field = Field((GridSpec(256, 1e-160),), np.ones(256))
        with pytest.raises(ValueError, match="transfer phase overflows at z = 0.1$"):
            propagate_1d(field, 532e-9, 0.1)

    def test_subnormal_wavelength_rejected_by_name(self):
        # 2 pi / 1e-320 overflows float64
        with pytest.raises(ValueError, match="^wavelength 1e-320 is too small"):
            wavenumber(1e-320)
        with pytest.raises(ValueError, match="^wavelength 1e-320 is too small"):
            propagate_1d(random_field_1d(4, 1e-5, seed=4), 1e-320, 0.1)


class TestPropagate2d:
    def test_tiny_spacing_rejected(self):
        grid = GridSpec(16, 1e-160)
        with pytest.raises(ValueError, match="transfer phase overflows at z = 0.1$"):
            propagate_2d(Field((grid, grid), np.ones((16, 16))), 532e-9, 0.1)

    def test_zero_distance_is_identity(self):
        rng = np.random.default_rng(5)
        grid = GridSpec(16, 1e-5)
        values = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        field = Field((grid, grid), values / np.linalg.norm(values))
        out = propagate_2d(field, 532e-9, 0.0)
        assert np.max(np.abs(out.values - field.values)) < 1e-13

    def test_separable_input_factorizes(self):
        rng = np.random.default_rng(6)
        grid = GridSpec(32, 1e-5)
        fx = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        fy = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        field = Field((grid, grid), np.outer(fy, fx))
        out2d = propagate_2d(field, 1e-6, 0.02)
        out_x = propagate_1d(Field((grid,), fx), 1e-6, 0.02)
        out_y = propagate_1d(Field((grid,), fy), 1e-6, 0.02)
        product = np.outer(out_y.values, out_x.values)
        assert np.max(np.abs(out2d.values - product)) < 1e-12

    def test_energy_conserved(self):
        rng = np.random.default_rng(7)
        grid = GridSpec(16, 1e-5)
        values = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        field = Field((grid, grid), values)
        out = propagate_2d(field, 1e-6, 0.4)
        power = np.sum(field.intensity())
        assert abs(np.sum(out.intensity()) - power) < 1e-12 * power


def z_values(grid, wavelength):
    """Zero, a mid distance (a largest transfer phase of about 100 rad) and
    one whose largest transfer phase ``alpha_max**2 z / 2k`` is 2e4 rad."""
    alpha_max = grid.d_alpha * (grid.n_points // 2)
    z_big = 2e4 * 2 * (2 * np.pi / wavelength) / alpha_max**2
    return (0.0, z_big / 200, z_big)


class TestHalfSpectrumTransfer:
    """The transfer phase is evaluated once per distinct ``|alpha|`` and
    mirrored onto the slots of negative frequency, along each axis by that
    axis's own ``N``; the result is the full-spectrum formula, bit for bit."""

    WAVELENGTH = 532e-9

    @pytest.mark.parametrize("n", range(1, 15))
    def test_1d_equals_full_spectrum_formula(self, n):
        field = random_field_1d(n, 1e-5, seed=100 + n)
        for z in z_values(field.grids[0], self.WAVELENGTH):
            expected = full_spectrum_propagate(field, self.WAVELENGTH, z).values
            assert np.array_equal(propagate_1d(field, self.WAVELENGTH, z).values, expected)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_2d_equals_full_spectrum_formula(self, n):
        rng = np.random.default_rng(200 + n)
        grid = GridSpec(2**n, 1e-5)
        values = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
        field = Field((grid, grid), values / np.linalg.norm(values))
        for z in z_values(grid, self.WAVELENGTH):
            expected = full_spectrum_propagate(field, self.WAVELENGTH, z).values
            assert np.array_equal(propagate_2d(field, self.WAVELENGTH, z).values, expected)

    @pytest.mark.parametrize("n_x, n_y", [(1, 3), (3, 1), (2, 5), (5, 2), (4, 6), (6, 3)])
    def test_non_square_2d_equals_full_spectrum_formula(self, n_x, n_y):
        rng = np.random.default_rng(400 + 8 * n_x + n_y)
        grid_x, grid_y = GridSpec(2**n_x, 1e-5), GridSpec(2**n_y, 2.3e-5)
        shape = (grid_y.n_points, grid_x.n_points)
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        field = Field((grid_x, grid_y), values / np.linalg.norm(values))
        for z in {*z_values(grid_x, self.WAVELENGTH), *z_values(grid_y, self.WAVELENGTH)}:
            expected = full_spectrum_propagate(field, self.WAVELENGTH, z).values
            assert np.array_equal(propagate_2d(field, self.WAVELENGTH, z).values, expected)

    @pytest.mark.parametrize(
        "axes, n, largest",
        [(1, 12, 2**11 + 1), (2, 6, 33 * 33)],
        ids=["1d-n12", "2d-n6"],
    )
    def test_exp_is_taken_per_distinct_frequency(self, monkeypatch, axes, n, largest):
        grid = GridSpec(2**n, 1e-5)
        values = np.random.default_rng(300).standard_normal((2**n,) * axes)
        field = Field((grid,) * axes, values)
        sizes = []
        exp = np.exp

        def spy(x, *args, **kwargs):
            sizes.append(np.size(x))
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", spy)
        (propagate_1d if axes == 1 else propagate_2d)(field, self.WAVELENGTH, 0.05)
        assert sizes and max(sizes) <= largest


class TestRmse:
    def test_identical_distributions(self):
        v = np.array([0.2, 0.3, 0.5])
        assert rmse(v, v) == 0.0

    def test_disjoint_unit_masses(self):
        assert rmse([1.0, 0.0], [0.0, 1.0]) == pytest.approx(np.sqrt(2.0))

    def test_scale_invariance(self):
        rng = np.random.default_rng(8)
        a = rng.random(64)
        b = rng.random(64)
        assert rmse(a, b) == pytest.approx(rmse(a * 3.7, b * 0.01), abs=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_zero_reference(self):
        with pytest.raises(ValueError):
            rmse([0.0, 0.0], [1.0, 0.0])


_GRID = GridSpec(8, 1e-5)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Field((_GRID,) * 3, np.ones((8, 8, 8))), "one or two axes"),
        (lambda: propagate_1d(Field((_GRID, _GRID), np.ones((8, 8))), 532e-9, 0.1), "a 1D field"),
        (lambda: propagate_2d(Field((_GRID,), np.ones(8)), 532e-9, 0.1), "a 2D field"),
        (lambda: rmse([1.0, 1.0], [0.0, 0.0]), "numerical intensity must have positive total"),
    ],
    ids=["three-axes", "propagate_1d-of-2d", "propagate_2d-of-1d", "zero-numerical-total"],
)
def test_wrong_axis_count_or_zero_total_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()
