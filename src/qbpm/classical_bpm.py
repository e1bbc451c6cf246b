"""Classical reference propagator: FFT, transfer-function multiply, inverse FFT.

The transfer phase depends only on ``|alpha|``, so it is evaluated once per
distinct ``|alpha|`` (slots ``0 .. N/2`` of each axis) and then gathered
onto all ``N`` slots.

Also owns the grid bookkeeping shared by the quantum and classical paths,
and the normalized root-mean-square intensity error used to compare them
against analytic references.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def is_power_of_two(value: int) -> bool:
    return value >= 1 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid of ``n_points = 2**n`` samples with spacing ``dx``.

    Array slot ``b`` holds the sample at ``x = gamma * dx`` where ``gamma``
    is the two's-complement value of ``b``: slots ``0 .. N/2-1`` cover
    ``x >= 0`` and slots ``N/2 .. N-1`` cover the negative half.  The
    frequency axis uses the same layout with spacing ``d_alpha``, so real
    and Fourier space never need reshuffling.
    """

    n_points: int
    dx: float

    def __post_init__(self) -> None:
        if not is_power_of_two(self.n_points) or self.n_points < 2:
            raise ValueError(f"n_points must be a power of two >= 2, got {self.n_points}")
        if not 0.0 < self.dx < math.inf:
            raise ValueError(f"dx must be positive and finite, got {self.dx}")

    @classmethod
    def from_qubits(cls, n_qubits: int, domain_length: float) -> "GridSpec":
        """Grid of ``2**n_qubits`` points spanning ``domain_length`` meters."""
        n_points = 1 << n_qubits
        dx = domain_length / n_points
        if dx == 0.0 and domain_length > 0.0:
            raise ValueError(
                f"domain_length {domain_length} is too small: "
                f"its spacing over {n_points} points underflows to 0"
            )
        return cls(n_points, dx)

    @property
    def n_qubits(self) -> int:
        return self.n_points.bit_length() - 1

    @property
    def d_alpha(self) -> float:
        return 2.0 * math.pi / (self.n_points * self.dx)

    def signed_indices(self) -> np.ndarray:
        """Two's-complement value of every array slot, in slot order."""
        idx = np.arange(self.n_points, dtype=np.int64)
        return np.where(idx < self.n_points // 2, idx, idx - self.n_points)

    def coordinates(self) -> np.ndarray:
        """Physical coordinate of every array slot (meters)."""
        return self.signed_indices() * self.dx


@dataclass(frozen=True)
class Field:
    """Complex field samples on one grid (1D) or two grids (2D).

    For 2D fields ``grids = (grid_x, grid_y)`` and ``values[iy, ix]``
    stores the sample at ``(x[ix], y[iy])``; flattening row-major therefore
    puts the x index in the low bits, matching the qubit layout of the
    two-axis quantum register.
    """

    grids: tuple[GridSpec, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        if len(self.grids) not in (1, 2):
            raise ValueError("Field supports one or two axes")
        values = np.asarray(self.values, dtype=np.complex128)
        expected = tuple(g.n_points for g in reversed(self.grids))
        if values.shape != expected:
            raise ValueError(f"values shape {values.shape} does not match grids {expected}")
        object.__setattr__(self, "values", values)

    @property
    def ndim(self) -> int:
        return len(self.grids)

    def intensity(self) -> np.ndarray:
        return np.abs(self.values) ** 2


def wavenumber(wavelength: float) -> float:
    """``k = 2 pi / wavelength`` for a positive wavelength whose ``k`` is finite."""
    if not 0.0 < wavelength < math.inf:
        raise ValueError(f"wavelength must be positive and finite, got {wavelength}")
    k = 2.0 * math.pi / wavelength
    if k == math.inf:
        raise ValueError(f"wavelength {wavelength} is too small: its wavenumber overflows float64")
    return k


def check_propagation_args(wavelength: float, z: float) -> float:
    """Wavenumber of ``wavelength``; ``z`` must be non-negative and finite."""
    k = wavenumber(wavelength)
    if not 0.0 <= z < math.inf:
        raise ValueError(f"propagation distance must be non-negative and finite, got {z}")
    return k


def _transfer(grids: tuple[GridSpec, ...], k: float, z: float) -> np.ndarray:
    """``exp(-i alpha**2 z / (2 k))`` (``alpha**2 + beta**2`` in 2D) at slots
    ``0 .. N/2`` of each of ``grids``; slot ``N/2`` has the largest ``|alpha|``,
    so a phase that overflows (a large ``z`` or a tiny spacing) raises.  Apart
    from ``_propagate`` so that the phase array is freed before the inverse FFT."""
    with np.errstate(over="ignore", invalid="ignore"):
        slots = np.ix_(*(np.arange(g.n_points // 2 + 1) * g.d_alpha for g in grids))
        phase = -1j * sum(f**2 for f in slots) * z / (2.0 * k)
    if not np.isfinite(phase).all():
        raise ValueError(f"propagation distance z = {z} overflows the transfer phase")
    return np.exp(phase)


def _folded_slots(n_points: int) -> np.ndarray:
    """Slot ``min(b, N - b)`` of every slot ``b``: the slot in ``0 .. N/2``
    whose frequency has the same ``|alpha|``."""
    slots = np.arange(n_points)
    slots[n_points // 2 + 1 :] = n_points - slots[n_points // 2 + 1 :]
    return slots


def _propagate(field: Field, wavelength: float, z: float) -> Field:
    k = check_propagation_args(wavelength, z)
    # values[iy, ix]: the x frequencies run along the last axis
    grids = tuple(reversed(field.grids))
    spectrum = np.fft.fftn(field.values, norm="ortho")
    spectrum *= _transfer(grids, k, z)[np.ix_(*(_folded_slots(g.n_points) for g in grids))]
    return Field(field.grids, np.fft.ifftn(spectrum, norm="ortho"))


def propagate_1d(field: Field, wavelength: float, z: float) -> Field:
    """Paraxial free-space propagation of a 1D field by distance ``z``.

    Forward transform uses the ``exp(-i alpha x)`` convention, each
    frequency is multiplied by ``exp(-i alpha**2 z / (2 k))``, and the
    inverse transform returns to real space.  The constant longitudinal
    phase ``exp(i k z)`` is dropped; total power is conserved.
    """
    if field.ndim != 1:
        raise ValueError("propagate_1d expects a 1D field")
    return _propagate(field, wavelength, z)


def propagate_2d(field: Field, wavelength: float, z: float) -> Field:
    """Paraxial propagation of a 2D field; transfer phase uses alpha**2 + beta**2."""
    if field.ndim != 2:
        raise ValueError("propagate_2d expects a 2D field")
    return _propagate(field, wavelength, z)


def rmse(i_ref, i_num) -> float:
    """Root-mean-square error between two intensity distributions.

    Both inputs are first normalized to unit total intensity so that
    sampled histograms and analytic curves with arbitrary scale are
    comparable; the result is ``sqrt(sum((ref - num)**2) / sum(ref))``.
    """
    ref = np.asarray(i_ref, dtype=float).ravel()
    num = np.asarray(i_num, dtype=float).ravel()
    if ref.shape != num.shape:
        raise ValueError(f"length mismatch: {ref.shape} vs {num.shape}")
    ref_total = ref.sum()
    num_total = num.sum()
    if not (ref_total > 0.0):
        raise ValueError("reference intensity must have positive total")
    if not (num_total > 0.0):
        raise ValueError("numerical intensity must have positive total")
    ref = ref / ref_total
    num = num / num_total
    return float(np.sqrt(np.sum((ref - num) ** 2) / np.sum(ref)))
