"""Classical reference propagator: FFT, transfer-function multiply, inverse FFT.

Owns what the quantum and classical paths share: the grid bookkeeping, and
the transfer phase, ``DispersionPolynomial.phase_angles``, which the circuit
encodes as phase gates and the FFT path multiplies by.  The paraxial phase
depends only on ``|alpha|``, so it is evaluated once per distinct ``|alpha|``
(slots ``0 .. N/2`` of each axis) and then mirrored onto slots
``N/2+1 .. N-1``.  Also owns the normalized root-mean-square intensity error
used to compare both paths against analytic references.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .circuit import check_integer

MAX_ORDER = 4


def is_power_of_two(value: int) -> bool:
    return value >= 1 and (value & (value - 1)) == 0


def check_positive(name: str, value) -> None:
    """The one check of a length, wavelength or tolerance: positive and finite."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


class PhaseOverflowError(ValueError):
    """The transfer phase at distance ``z`` overflows float64."""

    def __init__(self, z: float) -> None:
        super().__init__(f"phase must be finite: the transfer phase overflows at z = {z}")


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
        _check_spacing("dx", self.dx, self.n_points, self.dx)

    @classmethod
    def from_qubits(cls, n_qubits: int, domain_length: float) -> "GridSpec":
        """Grid of ``2**n_qubits`` points spanning ``domain_length`` meters."""
        n_points = 1 << n_qubits
        _check_spacing("domain_length", domain_length, n_points, domain_length / n_points)
        return cls(n_points, domain_length / n_points)

    @property
    def n_qubits(self) -> int:
        return self.n_points.bit_length() - 1

    @property
    def d_alpha(self) -> float:
        return _frequency_spacing(self.n_points, self.dx)

    def signed_indices(self) -> np.ndarray:
        """Two's-complement value of every array slot, in slot order."""
        idx = np.arange(self.n_points, dtype=np.int64)
        return np.where(idx < self.n_points // 2, idx, idx - self.n_points)

    def coordinates(self) -> np.ndarray:
        """Physical coordinate of every array slot (meters)."""
        return self.signed_indices() * self.dx


def _frequency_spacing(n_points: int, dx: float) -> float:
    return 2.0 * math.pi / (n_points * dx)


def _check_spacing(name: str, value: float, n_points: int, dx: float) -> None:
    """Key ``name`` = ``value`` sets ``dx``: positive, finite, and the span
    ``n_points * dx`` and both spacings in float64."""
    check_positive(name, value)
    if n_points * dx == math.inf:
        raise ValueError(f"{name} {value} is too large: over {n_points} points, its span overflows")
    if dx == 0.0 or _frequency_spacing(n_points, dx) == math.inf:
        what = "spacing underflows to 0" if dx == 0.0 else "frequency spacing overflows float64"
        raise ValueError(f"{name} {value} is too small: over {n_points} points, its {what}")


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
    check_positive("wavelength", wavelength)
    k = 2.0 * math.pi / wavelength
    if k == math.inf:
        raise ValueError(f"wavelength {wavelength} is too small: its wavenumber overflows float64")
    return k


@dataclass(frozen=True)
class DispersionPolynomial:
    """Transfer-phase polynomial: phase ``= sum_p orders[p] * alpha**p * z``."""

    orders: Mapping[int, float]

    def __post_init__(self) -> None:
        orders = dict(self.orders)
        for p, c in orders.items():
            check_integer("polynomial order", p, MAX_ORDER)
            if not math.isfinite(c):
                raise ValueError(f"coefficient of order {p} must be finite, got {c}")
        object.__setattr__(self, "orders", orders)

    @classmethod
    def paraxial(cls, wavelength: float) -> "DispersionPolynomial":
        """Quadratic truncation of the free-space dispersion, ``-alpha**2 / (2 k)``."""
        return cls({2: -1.0 / (2.0 * wavenumber(wavelength))})

    def phase_angles(self, grid: GridSpec, z: float) -> dict[int, float]:
        """Per-order phase per unit ``g**p`` (``alpha = g * d_alpha``) at a non-negative,
        finite ``z``; an angle that overflows float64 raises ``PhaseOverflowError``."""
        if not 0.0 <= z < math.inf:
            raise ValueError(f"propagation distance must be non-negative and finite, got {z}")
        try:
            angles = {p: c * grid.d_alpha**p * z for p, c in sorted(self.orders.items())}
            if all(map(math.isfinite, angles.values())):
                return angles
        except OverflowError:  # d_alpha**p of a tiny grid spacing
            pass
        raise PhaseOverflowError(z)


def _transfer(grids: tuple[GridSpec, ...], angles: list[float], z: float) -> np.ndarray:
    """``exp(i sum_axis angle * g**2)`` at every slot of ``grids``, with each
    axis's quadratic angle from ``phase_angles``.  It is evaluated at slots
    ``0 .. N/2`` of each axis, and slots ``N/2+1 .. N-1`` repeat slots
    ``N/2-1 .. 1``, which have the same ``g**2``.  Slot ``N/2`` has the
    largest ``g**2``, so a slot phase that overflows raises."""
    with np.errstate(over="ignore", invalid="ignore"):  # 1j * inf has a NaN real part
        slots = (np.arange(g.n_points // 2 + 1) ** 2 * a for g, a in zip(grids, angles))
        phase = 1j * sum(np.ix_(*slots))
    if not np.isfinite(phase).all():
        raise PhaseOverflowError(z)
    transfer = np.exp(phase, out=phase)
    for axis in range(transfer.ndim):
        mirror = (slice(None),) * axis + (slice(-2, 0, -1),)
        transfer = np.concatenate((transfer, transfer[mirror]), axis)
    return transfer


def _propagate(field: Field, wavelength: float, z: float) -> Field:
    # values[iy, ix]: the x frequencies run along the last axis
    grids = tuple(reversed(field.grids))
    angles = [DispersionPolynomial.paraxial(wavelength).phase_angles(g, z)[2] for g in grids]
    spectrum = np.fft.fftn(field.values, norm="ortho")
    spectrum *= _transfer(grids, angles, z)
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
