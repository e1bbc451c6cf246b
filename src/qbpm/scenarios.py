"""Experiment definitions: initial fields, analytic references, observables,
and repeated-sampling error statistics for the two showcase setups, a 1D
double slit and a 2D Gaussian beam.

Each parameter set checks its register size with ``check_integer``, and each
length and its wavelength with ``check_positive``, before relating them."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import classical_bpm
from .circuit import MAX_QUBITS, check_integer
from .classical_bpm import Field, GridSpec, check_positive, rmse, wavenumber
from .propagator import build_qbpm_circuit, build_qbpm_circuit_2d
from .qstate import SampleCounts, StateVector


@dataclass(frozen=True)
class DoubleSlitParams:
    """Two identical slits of width ``slit_width`` separated by
    ``slit_separation`` (center to center), illuminated at ``wavelength``."""

    slit_separation: float
    slit_width: float
    wavelength: float
    n_qubits: int
    domain_length: float

    def __post_init__(self) -> None:
        check_integer("n_qubits", self.n_qubits)
        for name in ("slit_separation", "slit_width", "wavelength", "domain_length"):
            check_positive(name, getattr(self, name))
        if not self.slit_separation > self.slit_width:
            raise ValueError("need slit_separation > slit_width")
        if not self.slit_separation + self.slit_width < self.domain_length:
            raise ValueError("slits do not fit: need slit_separation + slit_width < domain_length")

    def make_grid(self) -> GridSpec:
        return GridSpec.from_qubits(self.n_qubits, self.domain_length)


def double_slit_initial(params: DoubleSlitParams, grid: GridSpec) -> Field:
    """Unit-norm aperture field: 1 inside either slit (edges included), else 0.
    Each edge rounds to its nearest grid index: the slits are the disjoint
    mirror-image index ranges ``[inner, outer]`` and ``[-outer, -inner]``."""
    d, w, dx = params.slit_separation, params.slit_width, grid.dx
    inner, outer = round((d - w) / (2.0 * dx)), round((d + w) / (2.0 * dx))
    if outer - inner < 3:
        raise ValueError(
            f"slit_width {w} covers only {outer - inner + 1} grid points, need >= 4: "
            f"their spacing is domain_length / 2**n_qubits = {dx}"
        )
    if inner < 1 or outer >= grid.n_points // 2:  # slot -N/2 has no mirror image
        raise ValueError(
            f"slits do not fit on the grid: (slit_separation -+ slit_width) / 2 rounds to "
            f"{inner} and {outer} steps of domain_length / 2**n_qubits = {dx}, "
            f"need 0 < {inner} and {outer} < {grid.n_points // 2}"
        )
    g = np.abs(grid.signed_indices())
    values = ((inner <= g) & (g <= outer)).astype(np.complex128)
    return Field((grid,), values / np.linalg.norm(values))


def double_slit_analytic(params: DoubleSlitParams, grid: GridSpec, z: float) -> np.ndarray:
    """Far-field reference intensity on the grid, normalized to unit sum.

    ``I(x) = cos(pi d sin(theta) / lambda)**2 * sinc(pi w sin(theta) / lambda)**2``
    with ``tan(theta) = x / z``.  Undefined at ``z = 0``; callers use the
    initial intensity there instead.
    """
    if not (z > 0.0):
        raise ValueError("far-field reference requires z > 0; use the initial intensity at z = 0")
    x = grid.coordinates()
    sin_theta = x / np.hypot(x, z)
    fringes = np.cos(np.pi * params.slit_separation / params.wavelength * sin_theta) ** 2
    # np.sinc(u) = sin(pi u) / (pi u)
    envelope = np.sinc(params.slit_width / params.wavelength * sin_theta) ** 2
    intensity = fringes * envelope
    return intensity / intensity.sum()


@dataclass(frozen=True)
class GaussianParams:
    """Gaussian beam of waist ``waist`` centered on a square two-axis
    register with ``n_qubits_per_axis`` qubits per axis."""

    waist: float
    wavelength: float
    n_qubits_per_axis: int
    domain_length: float

    def __post_init__(self) -> None:
        check_integer("n_qubits_per_axis", self.n_qubits_per_axis, MAX_QUBITS // 2)
        for name in ("waist", "wavelength", "domain_length"):
            check_positive(name, getattr(self, name))
        try:
            overflows = self.rayleigh_length == math.inf
        except OverflowError:  # waist**2
            overflows = True
        if overflows:
            raise ValueError(f"waist {self.waist} is too large: its Rayleigh length overflows")

    @property
    def rayleigh_length(self) -> float:
        """Distance over which the beam area doubles, ``k * w0**2 / 2``."""
        return wavenumber(self.wavelength) * self.waist**2 / 2.0

    def make_grid(self) -> GridSpec:
        return GridSpec.from_qubits(self.n_qubits_per_axis, self.domain_length)


def gaussian_initial_2d(params: GaussianParams, grid: GridSpec) -> Field:
    """Unit-norm amplitude ``exp(-(x**2 + y**2) / w0**2)`` on ``grid`` along both axes."""
    if params.waist < 4.0 * grid.dx:
        raise ValueError(
            f"waist {params.waist} under-resolved: need at least 4 grid points across it, "
            f"but their spacing is domain_length / 2**n_qubits_per_axis = {grid.dx}"
        )
    values = np.exp(-_radius_squared(grid, grid) / params.waist**2).astype(np.complex128)
    return Field((grid, grid), values / np.linalg.norm(values))


def _radius_squared(grid_x: GridSpec, grid_y: GridSpec) -> np.ndarray:
    x = grid_x.coordinates()[np.newaxis, :]
    y = grid_y.coordinates()[:, np.newaxis]
    return x**2 + y**2


def waist_from_counts(counts: SampleCounts, grid: GridSpec) -> float:
    """Second-moment beam radius estimated from a shot histogram on the
    square register whose axes both use ``grid``.

    ``w = sqrt(sum_ij (x_i**2 + y_j**2) * P_ij)`` with ``P_ij`` the
    empirical collapse frequency at grid cell (i, j).
    """
    return _waist(counts.frequencies(), _radius_squared(grid, grid))


def _waist(weights: np.ndarray, radius_squared: np.ndarray) -> float:
    """``sqrt(sum(r**2 * P))`` of the unit-sum ``weights`` ``P``, flat or
    shaped like ``radius_squared``."""
    return float(np.sqrt(np.sum(radius_squared * weights.reshape(radius_squared.shape))))


def waist_from_field(field: Field) -> float:
    """Second-moment beam radius of a discrete field about the origin,
    weights ``|U_ij|**2``."""
    if field.ndim != 2:
        raise ValueError("waist_from_field expects a 2D field")
    intensity = field.intensity()
    return _waist(intensity / intensity.sum(), _radius_squared(*field.grids))


@dataclass(frozen=True)
class ErrorStats:
    """Mean and population standard deviation (``np.std``, ddof 0) of a
    per-run error over repeated simulations."""

    mu: float
    sigma: float


def error_analysis(
    scenario,
    z_values,
    n_shots_values,
    n_sim: int,
    seed: int,
) -> dict[tuple[float, int], ErrorStats]:
    """Repeated-sampling error table: the ``ErrorStats`` of every ``(z, n_shots)`` key.

    The scenario's runner runs the propagation circuit once per ``z``; each
    of the ``n_sim`` repetitions then draws an independent shot histogram
    with run seed ``seed + run_index``, judged by the runner's ``run_error``.
    """
    if not (isinstance(n_sim, numbers.Integral) and n_sim >= 2):  # True is 1
        raise ValueError(f"n_sim must be an integer >= 2, got {n_sim!r}")
    if isinstance(scenario, DoubleSlitParams):
        at = double_slit_runner(scenario)
    elif isinstance(scenario, GaussianParams):
        at = gaussian_runner(scenario)
    else:
        raise TypeError(f"unknown scenario type {type(scenario).__name__}")

    table: dict[tuple[float, int], ErrorStats] = {}
    for z in z_values:
        state, _, run_error = at(float(z))
        for n_shots in n_shots_values:
            errors = np.array([run_error(state.sample(n_shots, seed + i)) for i in range(n_sim)])
            table[(float(z), int(n_shots))] = ErrorStats(float(errors.mean()), float(errors.std()))
    return table


def double_slit_runner(params: DoubleSlitParams):
    """``at(z) -> (state, reference, run_error)`` for the double slit.

    ``state`` is the register after the propagation circuit for distance
    ``z``; ``reference`` is the unit-sum intensity it is judged against:
    the initial intensity at ``z = 0`` and the far-field pattern otherwise.
    ``run_error(counts)`` is the normalized RMSE of a shot histogram's
    frequencies against ``reference``.
    """
    grid = params.make_grid()
    initial = double_slit_initial(params, grid)
    state0 = StateVector.from_amplitudes(initial.values)

    def at(z: float):
        circuit = build_qbpm_circuit(params.n_qubits, grid, params.wavelength, z)
        if z == 0.0:
            reference = initial.intensity()
            reference = reference / reference.sum()
        else:
            reference = double_slit_analytic(params, grid, z)
        return circuit.run(state0), reference, lambda counts: rmse(reference, counts.frequencies())

    return at


# Reference double-slit setup: 0.5 mm slit separation, 0.1 mm slit width,
# 532 nm light on 15 qubits.  The domain length is a free choice (the grid
# is not fixed by the physics); 0.1024 m puts every slit edge on a grid
# point, so each slit holds 33 points (edges included), and keeps the
# far-field pattern inside the window at the default distances.
DEFAULT_DOUBLE_SLIT = DoubleSlitParams(
    slit_separation=5e-4,
    slit_width=1e-4,
    wavelength=532e-9,
    n_qubits=15,
    domain_length=0.1024,
)

# Reference Gaussian-beam setup: 5 cm waist, 532 nm, 5 qubits per axis.
# 0.4 m is the largest domain the waist-resolution precondition allows
# (4 points across the waist), which minimizes tail truncation once the
# beam has broadened.
DEFAULT_GAUSSIAN_2D = GaussianParams(
    waist=0.05,
    wavelength=532e-9,
    n_qubits_per_axis=5,
    domain_length=0.4,
)


def gaussian_runner(params: GaussianParams):
    """``at(z) -> (state, reference, run_error)`` for the Gaussian beam.

    ``state`` is the two-axis register after the propagation circuit for
    distance ``z``; ``reference`` is the second-moment radius of the
    classically propagated field.  ``run_error(counts)`` is a shot
    histogram's second-moment radius minus ``reference``, over a radius
    grid built once per runner.
    """
    grid = params.make_grid()
    initial = gaussian_initial_2d(params, grid)
    state0 = StateVector.from_amplitudes(initial.values)
    radius_squared = _radius_squared(grid, grid)
    n = params.n_qubits_per_axis

    def at(z: float):
        reference_field = classical_bpm.propagate_2d(initial, params.wavelength, z)
        w_reference = waist_from_field(reference_field)
        circuit = build_qbpm_circuit_2d(n, grid, params.wavelength, z)

        def run_error(counts: SampleCounts) -> float:
            return _waist(counts.frequencies(), radius_squared) - w_reference

        return circuit.run(state0), w_reference, run_error

    return at
