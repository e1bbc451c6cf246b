"""The four benchmark workloads: seeded inputs, one op, and its check.

Every input is generated from the workload seed; qbpm only ever sees the
generated fields, distances and CLI seeds.  An op calls qbpm through
module attributes (``propagator.build_qbpm_circuit``, ``cli.main``, ...)
so that the tracer's wrappers see it.  ``op`` is what gets timed; ``check``
runs after the timer stops and raises ``CheckFailed`` on a wrong result.

Why each workload exists:

* ``paraxial-1d`` (n = 20, 16 MiB state: above L2, inside L3): gate
  application is about 85% of the op, split QFT / transfer / IQFT; the
  place a QFT or diagonal-kernel change shows.  No sampling, no files.
* ``dispersion-1d`` (n = 18, orders 2 and 3, about 1.1k multi-controlled
  phases, 4 MiB state at L2 scale): the generic per-gate transfer path kept
  for p >= 3, so a p = 2-only fused kernel should leave it unchanged.
* ``error-sweep``: ``error_analysis`` on the 15-qubit double slit over all
  five CLI-default z values; per z one short circuit run, then large
  multinomial draws reduced through ``SampleCounts`` and ``rmse``.
* ``cli-defaults``: ``double-slit`` then ``gaussian-2d`` through
  ``cli.main`` at their defaults; the only workload where CSV writing
  dominates, and where sampling is 1200 small draws instead of large ones.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
from pathlib import Path

import numpy as np

from qbpm import classical_bpm, cli, propagator, scenarios
from qbpm.classical_bpm import Field, GridSpec
from qbpm.qstate import StateVector

# Seed kept out of every tuning run; use it to confirm a claimed gain.
HELD_OUT_SEED = 907_331

WAVELENGTH = 532e-9
DX = 1e-6  # grid spacing of the 1D workloads (m)
DEVIATION_TOL = 1e-9  # quantum vs classical path, ROADMAP aim 3
NORM_TOL = 1e-10
STATE_POOL = 3  # random fields per 1D workload, cycled through by the ops
N_Z = 64  # propagation distances per 1D workload, cycled through by the ops


class CheckFailed(Exception):
    """An op produced a wrong result."""


def _random_states(rng: np.random.Generator, n: int, count: int) -> list[StateVector]:
    return [
        StateVector.from_amplitudes(rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n))
        for _ in range(count)
    ]


class Paraxial1D:
    """Random complex field at n qubits through the p = 2 circuit."""

    name = "paraxial-1d"
    stream = 1  # keeps each workload's inputs independent under one seed

    def __init__(self, seed: int, n: int) -> None:
        rng = np.random.default_rng([seed, self.stream])
        self.n_qubits = n
        self.grid = GridSpec(1 << n, DX)
        self.states = _random_states(rng, n, STATE_POOL)
        # z / z_crit in [1e-3, 1e-2]: the largest quadratic phase is that
        # share of pi N / 4 rad, and the field stays inside the window
        z_crit = self.grid.n_points * DX**2 / WAVELENGTH
        self.z_max = 1e-2 * z_crit
        self.z_values = list(rng.uniform(1e-3 * z_crit, self.z_max, N_Z))

    def op(self, i: int):
        state = self.states[i % len(self.states)]
        z = self.z_values[i % len(self.z_values)]
        built = propagator.build_qbpm_circuit(self.n_qubits, self.grid, WAVELENGTH, z)
        quantum = built.run(state)
        reference = classical_bpm.propagate_1d(Field((self.grid,), state.amplitudes), WAVELENGTH, z)
        return quantum, reference.values

    def check(self, i: int, result) -> dict:
        quantum, reference = result
        deviation = float(np.max(np.abs(quantum.amplitudes - reference)))
        if not deviation < DEVIATION_TOL:
            raise CheckFailed(f"max |quantum - reference| = {deviation:.3e}")
        drift = abs(quantum.norm() - 1.0)
        if not drift < NORM_TOL:
            raise CheckFailed(f"norm drift {drift:.3e}")
        return {}


class Dispersion1D(Paraxial1D):
    """Random complex field through an order-2 plus order-3 transfer phase."""

    name = "dispersion-1d"
    stream = 2
    MAX_PHASE = 1e4  # rad; keeps the float64 reference good to about 1e-12
    # the traced loop swaps in ``Tracer.span`` to time the benchmark's reference
    span = staticmethod(lambda name: contextlib.nullcontext())

    def __init__(self, seed: int, n: int) -> None:
        super().__init__(seed, n)
        quadratic = propagator.DispersionPolynomial.paraxial(WAVELENGTH).orders[2]
        alpha_max = self.grid.d_alpha * (self.grid.n_points // 2)
        quad_phase = abs(quadratic) * alpha_max**2 * self.z_max
        # the cubic term takes most of the phase budget the quadratic one leaves
        cubic = 0.9 * (self.MAX_PHASE - quad_phase) / (alpha_max**3 * self.z_max)
        if not cubic > 0.0:
            raise ValueError("quadratic phase alone exceeds the phase budget")
        self.polynomial = propagator.DispersionPolynomial({2: quadratic, 3: cubic})
        self.g = self.grid.signed_indices().astype(np.float64)

    def op(self, i: int):
        state = self.states[i % len(self.states)]
        z = self.z_values[i % len(self.z_values)]
        built = propagator.build_qbpm_circuit(
            self.n_qubits, self.grid, WAVELENGTH, z, self.polynomial
        )
        quantum = built.run(state)
        with self.span("bench.reference"):
            return quantum, self.reference(state, z)

    def reference(self, state: StateVector, z: float) -> np.ndarray:
        """np.fft propagation with the polynomial's per-order phase angles."""
        theta = sum(phi * self.g**p for p, phi in self.polynomial.phase_angles(self.grid, z).items())
        spectrum = np.fft.fft(state.amplitudes, norm="ortho") * np.exp(1j * theta)
        return np.fft.ifft(spectrum, norm="ortho")


class ErrorSweep:
    """``error_analysis`` on the reference double slit over every CLI-default z."""

    name = "error-sweep"
    Z_VALUES = (0.0, 1.0, 3.0, 8.0, 16.0)  # error-analysis CLI defaults (m)
    SHOTS = (1000, 10_000, 100_000)
    # Every op sweeps all five z (the draw cost grows with z), so every op is
    # the same work.  8 sims x 3 shot counts = 24 draws per z, 120 per op:
    # enough that sampling, not the five circuit runs, leads the op.
    N_SIM = 8

    def __init__(self, seed: int, params=scenarios.DEFAULT_DOUBLE_SLIT, shots=SHOTS):
        rng = np.random.default_rng([seed, 3])
        self.params = params
        self.n_qubits = params.n_qubits
        self.shots = list(shots)
        self.run_seed = int(rng.integers(0, 2**31))
        self.first = None

    def op(self, i: int):
        return scenarios.error_analysis(
            self.params, self.Z_VALUES, self.shots, self.N_SIM, self.run_seed
        )

    def check(self, i: int, table) -> dict:
        rows = {key: (stats.mu, stats.sigma) for key, stats in table.items()}
        if len(rows) != len(self.Z_VALUES) * len(self.shots) or not all(
            math.isfinite(v) for pair in rows.values() for v in pair
        ):
            raise CheckFailed(f"missing or non-finite entries {rows}")
        if self.first is None:
            self.first = rows
        if rows != self.first:
            raise CheckFailed("table differs from the first op with the same seed")
        return {}


def _tree_digest(root: Path) -> tuple[dict[str, str], int]:
    digests, total = {}, 0
    for path in sorted(root.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            digests[str(path.relative_to(root))] = hashlib.sha256(data).hexdigest()
            total += len(data)
    return digests, total


class CliDefaults:
    """``qbpm double-slit`` then ``qbpm gaussian-2d`` in-process, at defaults."""

    name = "cli-defaults"

    def __init__(self, seed: int, scratch: Path, extra=None, n_qubits: int = 15) -> None:
        rng = np.random.default_rng([seed, 4])
        self.cli_seed = int(rng.integers(0, 2**31))
        self.scratch = scratch
        self.extra = extra or {"double-slit": [], "gaussian-2d": []}
        self.n_qubits = n_qubits  # largest register: the double slit's
        self.first_digest = None

    def op(self, i: int):
        # same path every op, as in a rerun; ``check`` removes it, so each op
        # writes into a fresh directory
        out = self.scratch / "out"
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for command in ("double-slit", "gaussian-2d"):
                argv = [command, "--seed", str(self.cli_seed), "--out", str(out / command)]
                codes.append(cli.main(argv + self.extra[command]))
        return out, codes

    def check(self, i: int, result) -> dict:
        out, codes = result
        try:
            if codes != [0, 0]:
                raise CheckFailed(f"exit codes {codes}")
            digest, total = _tree_digest(out)
            if self.first_digest is None:
                self.first_digest = digest
            if digest != self.first_digest:
                raise CheckFailed("output tree differs from the first op")
            rmse_exact = np.loadtxt(out / "double-slit" / "rmse.csv", delimiter=",", skiprows=1)
            if not np.all(np.isfinite(np.atleast_2d(rmse_exact)[:, 2])):
                raise CheckFailed("rmse_exact is not finite")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return {"cli.bytes_written": total}


# Smoke sizes: n <= 8 everywhere and a few hundred shots.
_SMOKE_SLIT = scenarios.DoubleSlitParams(5e-4, 1e-4, WAVELENGTH, 8, 0.0064)
_SMOKE_CLI = {
    "double-slit": ["--qubits", "8", "--domain-length", "0.0064", "--shots", "300"],
    "gaussian-2d": [
        "--qubits", "4", "--domain-length", "0.2", "--shots", "300", "--sims", "2",
        "--sweep-shots", "100", "--sweep-shots", "300",
    ],
}


def make(name: str, seed: int, scratch: Path, smoke: bool = False):
    """Workload ``name`` with inputs generated from ``seed``."""
    if name == "paraxial-1d":
        return Paraxial1D(seed, 8 if smoke else 20)
    if name == "dispersion-1d":
        return Dispersion1D(seed, 8 if smoke else 18)
    if name == "error-sweep":
        if smoke:
            return ErrorSweep(seed, _SMOKE_SLIT, (100, 300))
        return ErrorSweep(seed)
    if name == "cli-defaults":
        if smoke:
            return CliDefaults(seed, scratch, _SMOKE_CLI, n_qubits=8)
        return CliDefaults(seed, scratch)
    raise ValueError(f"unknown workload {name!r}")
