"""Verification oracles: direct evaluations, independent of the circuit path.

``dft_oracle`` is O(N**2) in time and memory and ``diagonal_oracle`` a
Python loop over the basis, so both are meant for registers of at most
about 12 qubits.  ``full_spectrum_propagate`` is the classical propagator
with the transfer phase evaluated at every slot, not once per ``|alpha|``.
``fraction_scaled_phase`` reduces a phase multiple in ``Fraction``
arithmetic, apart from the library's integer reduction.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

import numpy as np

from qbpm import BACKWARD, FORWARD, DoubleSlitParams, Field, fold_phase
from qbpm.classical_bpm import is_power_of_two, wavenumber
from qbpm.propagator import MAX_ORDER


# 2*pi to 50 decimal digits, the modulus of the library's reduction
_TWO_PI_EXACT = Fraction("6.28318530717958647692528676655900576839433879875021")


def fraction_scaled_phase(phi: float, coefficient: int) -> float:
    """``coefficient * phi`` reduced into (-pi, pi], with the product, the
    nearest multiple of ``2*pi`` and the remainder all exact rationals."""
    if not math.isfinite(phi):
        raise ValueError(f"phase must be finite, got {phi}")
    x = Fraction(phi) * coefficient
    m = round(x / _TWO_PI_EXACT)
    return fold_phase(float(x - m * _TWO_PI_EXACT))


@lru_cache(maxsize=8)
def _dft_matrix(n: int, sign: int) -> np.ndarray:
    n_states = 1 << n
    idx = np.arange(n_states)
    return np.exp(sign * 2j * np.pi / n_states * np.outer(idx, idx)) / np.sqrt(n_states)


def dft_oracle(values, sign: int = FORWARD) -> np.ndarray:
    """Unitary-normalized discrete Fourier transform by dense matrix product."""
    arr = np.asarray(values, dtype=np.complex128)
    if arr.ndim != 1 or not is_power_of_two(len(arr)) or len(arr) < 2:
        raise ValueError("input length must be a power of two >= 2")
    if sign not in (FORWARD, BACKWARD):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return _dft_matrix(len(arr).bit_length() - 1, sign) @ arr


def diagonal_oracle(n: int, phase_by_order: Mapping[int, float]) -> np.ndarray:
    """Direct per-index evaluation of ``exp(i * sum_p phi_p * g**p)``.

    Counterpart of the gate synthesis; returns the ``2**n`` diagonal
    entries in basis-index order, with ``g`` the two's-complement signed
    index.  Each phase argument is reduced into (-pi, pi] exactly before
    exponentiation; the naive double product ``phi * g**p`` can exceed 1e5
    radians and its rounding alone would swamp the accuracy being verified.
    """
    for p in phase_by_order:
        if not 1 <= p <= MAX_ORDER:
            raise ValueError(f"order must be in 1..{MAX_ORDER}, got {p}")
    n_states = 1 << n
    half = n_states // 2
    theta = np.zeros(n_states, dtype=float)
    for b in range(n_states):
        g = b - n_states if b >= half else b
        theta[b] = sum(fraction_scaled_phase(phi, g**p) for p, phi in phase_by_order.items())
    return np.exp(1j * theta)


def predicted_fringe_positions(params: DoubleSlitParams, z: float, orders) -> np.ndarray:
    """Positions of interference maxima ``sin(theta) = m * lambda / d``."""
    if not (z > 0.0):
        raise ValueError("fringe positions require z > 0")
    sin_theta = np.asarray(orders, dtype=float) * params.wavelength / params.slit_separation
    if np.any(np.abs(sin_theta) >= 1.0):
        raise ValueError("fringe order does not exist at this geometry")
    return z * np.tan(np.arcsin(sin_theta))


def full_spectrum_propagate(field: Field, wavelength: float, z: float) -> Field:
    """FFT, ``exp(-i alpha**2 z / (2 k))`` evaluated at all ``N`` slots of
    each axis, inverse FFT: the same arithmetic, slot by slot, as the
    library's propagator, which evaluates each distinct ``|alpha|`` once."""
    k = wavenumber(wavelength)
    # values[iy, ix]: the x frequencies run along the last axis
    freqs = (g.signed_indices() * g.d_alpha for g in reversed(field.grids))
    freq_squared = sum(f**2 for f in np.ix_(*freqs))
    spectrum = np.fft.fftn(field.values, norm="ortho")
    spectrum *= np.exp(-1j * freq_squared * z / (2.0 * k))
    return Field(field.grids, np.fft.ifftn(spectrum, norm="ortho"))
