"""Command-line front end: runs the showcase experiments and writes
plot-ready CSV/JSON data files.

Every command resolves its configuration from built-in defaults
(``DEFAULTS``, which also defines each command's flags), then an optional
JSON config file (``--config``), then explicit flags, and writes the fully
resolved configuration as ``config.json`` next to its data files; passing
that file back through ``--config`` reproduces the run exactly.  Identical
configuration and seed produce byte-identical output.

Exit codes: 0 success, 2 configuration or input error, 3 numeric
verification failure (``propagate --verify``), 141 (128 + SIGPIPE) when
standard output's reader has gone, as a shell reports for a writer that a
closed pipe stops; nothing is printed then.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import re
import sys
import warnings
from dataclasses import fields, replace
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__, classical_bpm
from .circuit import MAX_QUBITS, Circuit, check_integer
from .classical_bpm import DispersionPolynomial, Field, GridSpec, PhaseOverflowError, check_positive
from .propagator import build_qbpm_circuit
from .qstate import StateVector
from .scenarios import (
    DEFAULT_DOUBLE_SLIT,
    DEFAULT_GAUSSIAN_2D,
    double_slit_runner,
    error_analysis,
    gaussian_runner,
    waist_from_counts,
)


class VerificationError(Exception):
    """Numeric check requested by the user failed."""


# rows per tolist() block: a whole-array tolist() would hold every value as
# a Python float at once
_CSV_BLOCK = 1024


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write ``rows`` under ``header``: a 2-D float array, or tuples of
    str, int and float values; each cell as its ``str`` (a float's repr)."""
    if isinstance(rows, np.ndarray):
        blocks = np.split(rows, range(_CSV_BLOCK, len(rows), _CSV_BLOCK))
        rows = chain.from_iterable(block.tolist() for block in blocks)
    # "%s" is str() of the cell, and costs less per row than map(str, row)
    line = ",".join(["%s"] * len(header)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % tuple(row) for row in rows)


def _write_json(path: Path, payload) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_grid(path_stem: Path, grid_values: np.ndarray, fmt: str) -> None:
    if fmt == "json":
        _write_json(path_stem.with_suffix(".json"), grid_values.tolist())
    else:
        header = [f"c{i}" for i in range(grid_values.shape[1])]
        _write_csv(path_stem.with_suffix(".csv"), header, grid_values)


DEFAULTS: dict[str, dict] = {
    "double-slit": {
        "qubits": DEFAULT_DOUBLE_SLIT.n_qubits,
        "shots": 100_000,
        "z": [0.1, 0.2, 0.35],
        "wavelength": DEFAULT_DOUBLE_SLIT.wavelength,
        "slit_separation": DEFAULT_DOUBLE_SLIT.slit_separation,
        "slit_width": DEFAULT_DOUBLE_SLIT.slit_width,
        "domain_length": DEFAULT_DOUBLE_SLIT.domain_length,
        "seed": 1234,
        "out": "qbpm-double-slit",
    },
    "gaussian-2d": {
        "qubits": DEFAULT_GAUSSIAN_2D.n_qubits_per_axis,
        "shots": 50_000,
        "zr": [0.0, 1.0, 2.0, 3.0],
        "wavelength": DEFAULT_GAUSSIAN_2D.wavelength,
        "waist": DEFAULT_GAUSSIAN_2D.waist,
        "domain_length": DEFAULT_GAUSSIAN_2D.domain_length,
        "sims": 100,
        "sweep_shots": [100, 1000, 10_000],
        "seed": 1234,
        "out": "qbpm-gaussian-2d",
        "format": "csv",
    },
    "propagate": {
        "input": None,
        "wavelength": 532e-9,
        "dx": 1e-5,
        "z": [0.1],
        "verify": False,
        "tolerance": 1e-9,
        "out": "qbpm-propagate",
    },
    "error-analysis": {
        "qubits": DEFAULT_DOUBLE_SLIT.n_qubits,
        "domain_length": DEFAULT_DOUBLE_SLIT.domain_length,
        "z": [0.0, 1.0, 3.0, 8.0, 16.0],
        "shots": [1000, 10_000, 100_000],
        "sims": 100,
        "seed": 1234,
        "out": "qbpm-error-analysis",
    },
    "gate-count": {
        "qubits": 15,
        "order": 2,
        "out": None,
    },
    "export-qasm": {
        "qubits": 8,
        "order": 2,
        "wavelength": 532e-9,
        "domain_length": 0.1024,
        "z": [0.1],
        "out": "qbpm-qasm",
    },
}


# config keys with a fixed set of values
_CHOICES = {"format": ("csv", "json")}

# least value of each sampling count, seed and distance key (of every element
# of a list, which holds each value once); an int bound also asks for an
# integer of at most _INT64_MAX, numpy's largest shot count, and every value
# must be finite
_BOUNDS = {"shots": 1, "sweep_shots": 1, "sims": 2, "seed": 0, "z": 0.0, "zr": 0.0}
_INT64_MAX = 2**63 - 1

# config keys that the transfer phase exp(i c alpha**p z) depends on: the
# distance, the coefficient c, and the frequency spacing and order of alpha
_PHASE_KEYS = ("z", "zr", "waist", "wavelength", "dx", "domain_length", "qubits", "order")

_HELP = {
    "qubits": "register size (per axis for gaussian-2d)",
    "shots": "measurement shots",
    "z": "propagation distance in meters",
    "zr": "propagation distance in Rayleigh lengths",
    "wavelength": "wavelength in meters",
    "slit_separation": "slit center-to-center distance in meters",
    "slit_width": "slit width in meters",
    "domain_length": "width of the computational window in meters",
    "waist": "beam waist in meters",
    "dx": "grid spacing in meters",
    "sims": "repetitions for the sampling-error sweep",
    "sweep_shots": "shot counts for the sampling-error sweep",
    "seed": "random seed for sampling",
    "input": "CSV field file, columns real,imaginary",
    "verify": "exit 3 if the quantum and classical paths deviate",
    "tolerance": "verification threshold",
    "order": "polynomial order of the transfer phase",
    "out": "output directory",
    "format": "2D grid output format",
}


def _json_kind(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, list):
        return "list of numbers" if all(_json_kind(v) == "number" for v in value) else "list"
    if isinstance(value, str):
        return "string"
    return "null" if value is None else type(value).__name__


def _resolve(command: str, args: argparse.Namespace) -> dict:
    config = dict(DEFAULTS[command])
    from_file = {}
    if args.config:
        try:
            with open(args.config) as fh:
                from_file = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(from_file, dict):
            raise ValueError("config file must hold a JSON object")
        # a written config.json also records its command and version
        from_file.pop("version", None)
        written_for = from_file.pop("command", command)
        if written_for != command:
            raise ValueError(f"config key 'command' must be {command!r}, got {written_for!r}")
        unknown = set(from_file) - set(config)
        if unknown:
            raise ValueError(f"unknown config keys for {command}: {sorted(unknown)}")
        for key, value in from_file.items():
            # a None default (out, input) takes a path, or null for none
            default = config[key]
            allowed = ("string", "null") if default is None else (_json_kind(default),)
            if _json_kind(value) not in allowed:
                expected = " or ".join(allowed)
                raise ValueError(f"config key {key!r} must be a {expected}, got {value!r}")
            if key in _CHOICES and value not in _CHOICES[key]:
                raise ValueError(
                    f"config key {key!r} must be one of {list(_CHOICES[key])}, got {value!r}"
                )
        config.update(from_file)
    # the parser sets only the flags that were given
    config.update((key, value) for key, value in vars(args).items() if key in config)
    for key, low in _BOUNDS.items():
        values = config.get(key, [])
        if values == [] and key in config:
            raise ValueError(f"{key} must hold at least one value")
        # 0.0 and -0.0 are one value
        if isinstance(values, list) and len(set(values)) < len(values):
            raise ValueError(f"{key} must hold each value once, got {values}")
        for value in values if isinstance(values, list) else [values]:
            if isinstance(low, float) and not low <= value < math.inf:
                raise ValueError(
                    f"{key}: propagation distance must be non-negative and finite, got {value}"
                )
            if isinstance(low, int) and not (low <= value <= _INT64_MAX and value == int(value)):
                raise ValueError(f"{key} must be an integer in {low}..{_INT64_MAX}, got {value}")
    # error-analysis, gate-count and export-qasm size one register, as the
    # double slit does
    _, _, limit, what = _SCENARIOS.get(command, _SCENARIOS["double-slit"])
    for key, name, top in (("qubits", what, limit), ("order", "order", classical_bpm.MAX_ORDER)):
        if (value := config.get(key)) is not None:  # a JSON 9.0 is the size 9, 4.0 the order 4
            check_integer(name, int(value) if value in range(1, top + 1) else value, top)
    return config


# per scenario: its reference parameters, the field that the config key
# "qubits" sets, and that key's limit and name in messages
_SCENARIOS = {
    "double-slit": (DEFAULT_DOUBLE_SLIT, "n_qubits", MAX_QUBITS, "qubits"),
    "gaussian-2d": (DEFAULT_GAUSSIAN_2D, "n_qubits_per_axis", MAX_QUBITS // 2, "qubits per axis"),
}


def _scenario(name: str, config: dict):
    """Scenario ``name``'s reference parameters with the config values put
    in: the keys named like a parameter, and ``qubits``."""
    default, qubits_field, _, _ = _SCENARIOS[name]
    names = {field.name for field in fields(default)}
    overrides = {key: float(value) for key, value in config.items() if key in names}
    overrides[qubits_field] = int(config["qubits"])
    return replace(default, **overrides)


def _distances(params, config: dict) -> list[tuple[float, float]]:
    """``(value, z)`` for each ``z`` of ``config``, or each ``zr`` in Rayleigh lengths."""
    if "zr" not in config:
        return [(float(z), float(z)) for z in config["z"]]
    pairs = [(float(zr), float(zr) * params.rayleigh_length) for zr in config["zr"]]
    for zr, z in pairs:
        if z == math.inf:
            raise ValueError(f"zr: propagation distance of {zr} Rayleigh lengths overflows")
    return pairs


def _error_rows(params, first_column: dict, shots, config: dict) -> list[tuple]:
    """The error-analysis table of ``params`` at each ``z`` keying ``first_column``,
    as rows ``(first_column[z], z, n_shots, n_sim, mu, sigma)`` sorted by ``z``
    and ``n_shots``."""
    n_sim = int(config["sims"])
    table = error_analysis(
        params, list(first_column), [int(s) for s in shots], n_sim, int(config["seed"])
    )
    return [
        (first_column[z], z, n_shots, n_sim, stats.mu, stats.sigma)
        for (z, n_shots), stats in sorted(table.items())
    ]


def _out_dir(command: str, config: dict) -> Path:
    """Create the output directory and write ``config.json`` into it."""
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "config.json", {"command": command, "version": __version__, **config})
    return out


def cmd_double_slit(config: dict) -> int:
    """1D double-slit interference experiment."""
    params = _scenario("double-slit", config)
    at = double_slit_runner(params)
    grid = params.make_grid()
    order = np.argsort(grid.coordinates(), kind="stable")
    x_sorted = grid.coordinates()[order]
    distances = _distances(params, config)
    # a resolved z can fail at(z) only on its transfer phase: check each first
    polynomial = DispersionPolynomial.paraxial(params.wavelength)
    for _, z in distances:
        polynomial.phase_angles(grid, z)

    out = _out_dir("double-slit", config)
    rmse_rows = []
    for index, (_, z) in enumerate(distances):
        state, analytic, run_error = at(z)
        exact = state.probabilities()
        counts = state.sample(int(config["shots"]), int(config["seed"]))
        rmse_rows.append((z, run_error(counts), classical_bpm.rmse(analytic, exact)))
        sampled = counts.frequencies()[order]
        del state, counts  # the register and its histogram: not needed for the rows
        rows = np.column_stack((x_sorted, sampled, exact[order], analytic[order]))
        _write_csv(
            out / f"pattern_z{index:02d}.csv",
            ["x", "p_sampled", "p_exact", "i_analytic"],
            rows,
        )
    _write_csv(out / "rmse.csv", ["z", "rmse_sampled", "rmse_exact"], rmse_rows)
    print(f"double-slit: wrote {len(config['z'])} patterns to {out}")
    return 0


def cmd_gaussian_2d(config: dict) -> int:
    """2D Gaussian beam broadening experiment."""
    params = _scenario("gaussian-2d", config)
    at = gaussian_runner(params)
    grid = params.make_grid()
    shape = (grid.n_points, grid.n_points)
    distances = _distances(params, config)
    # the sweep runs every distance, so one that fails stops the command
    # before any file is written
    z_ratios = {z: zr for zr, z in distances}
    sweep = _error_rows(params, z_ratios, config["sweep_shots"], config)

    out = _out_dir("gaussian-2d", config)
    waist_rows = []
    for index, (zr, z) in enumerate(distances):
        state, w_ref, run_error = at(z)
        counts = state.sample(int(config["shots"]), int(config["seed"]))
        sampled = counts.frequencies().reshape(shape)
        _write_grid(out / f"intensity_zr{index:02d}_sampled", sampled, config["format"])
        _write_grid(
            out / f"intensity_zr{index:02d}_exact",
            state.probabilities().reshape(shape),
            config["format"],
        )
        waist_rows.append((zr, z, waist_from_counts(counts, grid), w_ref, run_error(counts)))
    _write_csv(out / "waist.csv", ["z_ratio", "z", "w_sampled", "w_reference", "error"], waist_rows)
    _write_csv(
        out / "sigma_w.csv", ["z_ratio", "z", "n_shots", "n_sim", "mu_error", "sigma_w"], sweep
    )
    print(f"gaussian-2d: wrote {len(config['zr'])} intensity grids to {out}")
    return 0


def _load_field(path: str) -> StateVector:
    try:
        with warnings.catch_warnings():  # an empty file is rejected below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            raw = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    except OSError as exc:
        raise ValueError(f"cannot read input field: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"malformed input field file: {exc}") from exc
    if raw.size == 0:
        raise ValueError(f"input field file {path} holds no data")
    if raw.ndim != 2 or raw.shape[1] != 2:
        raise ValueError("input field must have two columns: real,imaginary")
    try:
        return StateVector.from_amplitudes(raw[:, 0] + 1j * raw[:, 1])
    except ValueError as exc:
        raise ValueError(f"input field {path}: {exc}") from exc


def cmd_propagate(config: dict) -> int:
    """Propagate a user field on both paths and compare."""
    if not config["input"]:
        raise ValueError("propagate requires --input FILE with real,imaginary columns")
    if len(config["z"]) != 1:
        raise ValueError("propagate expects exactly one --z value")
    z = float(config["z"][0])
    check_positive("tolerance", config["tolerance"])
    state0 = _load_field(config["input"])
    n = state0.n_qubits
    check_integer("qubits of the input field", n)
    grid = GridSpec(state0.n_states, float(config["dx"]))

    wavelength = float(config["wavelength"])
    quantum = build_qbpm_circuit(n, grid, wavelength, z).run(state0)
    classical = classical_bpm.propagate_1d(Field((grid,), state0.amplitudes), wavelength, z)
    deviation = float(np.max(np.abs(quantum.amplitudes - classical.values)))
    # a NaN deviation is within no tolerance
    within_tolerance = deviation < float(config["tolerance"])

    out = _out_dir("propagate", config)
    for name, data in (("quantum", quantum.amplitudes), ("classical", classical.values)):
        columns = np.column_stack((data.real, data.imag))
        _write_csv(out / f"field_{name}.csv", ["real", "imaginary"], columns)
    _write_json(
        out / "report.json",
        {
            "max_abs_deviation": deviation,
            "tolerance": float(config["tolerance"]),
            "verified": bool(config["verify"]),
            "within_tolerance": within_tolerance,
        },
    )
    print(f"propagate: max |quantum - classical| = {deviation:.3e}")
    if config["verify"] and not within_tolerance:
        raise VerificationError(
            f"deviation {deviation:.3e} exceeds tolerance {config['tolerance']:.3e}"
        )
    return 0


def cmd_error_analysis(config: dict) -> int:
    """Double-slit pattern error: mean and spread over repeated simulations."""
    params = _scenario("double-slit", config)
    first_column = dict.fromkeys(map(float, config["z"]), "double-slit")
    rows = _error_rows(params, first_column, config["shots"], config)
    out = _out_dir("error-analysis", config)
    _write_csv(
        out / "error_stats.csv", ["scenario", "z", "n_shots", "n_sim", "mu", "sigma"], rows
    )
    print(f"error-analysis: wrote {len(rows)} rows to {out}")
    return 0


def _fmt_kinds(counts: dict[str, int]) -> str:
    # each GATE_KINDS name in kebab case: ControlledPhase is controlled-phase
    parts = [
        re.sub(r"\B(?=[A-Z])", "-", kind).lower() + f" {count}"
        for kind, count in counts.items()
        if count
    ]
    return ", ".join(parts) if parts else "none"


def cmd_gate_count(config: dict) -> int:
    """Exact gate counts and closed-form checks."""
    n = int(config["qubits"])
    p = int(config["order"])
    # the counts depend on n and p only, not on the grid, the wavelength or z
    polynomial = DispersionPolynomial({p: 1.0})
    pipeline = build_qbpm_circuit(n, GridSpec.from_qubits(n, 1.0), 1.0, 0.0, polynomial)
    parts = {name: Circuit(n, pipeline.gates[a:b]) for name, a, b in pipeline.segments}
    qft_counts, iqft_counts = parts["qft"].gate_count(), parts["iqft"].gate_count()
    qft_total, propagator_total = len(parts["qft"]), len(parts["transfer"])
    lines = [
        f"qubits: {n}",
        f"order: {p}",
        f"qft: {qft_total} gates ({_fmt_kinds(qft_counts)})",
        f"propagator: {propagator_total} gates",
        f"iqft: {len(parts['iqft'])} gates ({_fmt_kinds(iqft_counts)})",
        f"pipeline total: {len(pipeline)}",
    ]
    closed_qft = n + n * (n - 1) // 2 + n // 2
    lines.append(
        f"closed form qft  n + n(n-1)/2 + n//2 = {closed_qft}"
        f"  [{'match' if closed_qft == qft_total else 'MISMATCH'}]"
    )
    if p == 2:
        closed_prop = n * (n + 1) // 2
        lines.append(
            f"closed form propagator  n(n+1)/2 = {closed_prop}"
            f"  [{'match' if closed_prop == propagator_total else 'MISMATCH'}]"
        )
    else:
        lines.append(f"propagator gate count grows as O(n^{p})")
    print("\n".join(lines))
    if config["out"]:
        out = _out_dir("gate-count", config)
        _write_json(
            out / "gate_count.json",
            {
                "qubits": n,
                "order": p,
                "qft": qft_counts,
                "iqft": iqft_counts,
                "propagator_total": propagator_total,
                "qft_closed_form": closed_qft,
            },
        )
    return 0


def cmd_export_qasm(config: dict) -> int:
    """Write the propagation circuit as OpenQASM 2.0."""
    n = int(config["qubits"])
    if len(config["z"]) != 1:
        raise ValueError("export-qasm expects exactly one --z value")
    grid = GridSpec.from_qubits(n, float(config["domain_length"]))
    wavelength = float(config["wavelength"])
    p = int(config["order"])
    # every order gets the paraxial (quadratic) coefficient
    coefficient = DispersionPolynomial.paraxial(wavelength).orders[2]
    polynomial = DispersionPolynomial({p: coefficient})
    circuit = build_qbpm_circuit(n, grid, wavelength, float(config["z"][0]), polynomial)
    try:
        text = circuit.to_qasm_text()
    except ValueError as exc:  # a phase gate on more qubits than QASM 2.0 expands
        raise ValueError(f"order {p}: {exc}") from exc
    out = _out_dir("export-qasm", config)
    path = out / "qbpm_circuit.qasm"
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    print(f"export-qasm: wrote {len(circuit)} gates to {path}")
    return 0


COMMANDS = {
    "double-slit": cmd_double_slit,
    "gaussian-2d": cmd_gaussian_2d,
    "propagate": cmd_propagate,
    "error-analysis": cmd_error_analysis,
    "gate-count": cmd_gate_count,
    "export-qasm": cmd_export_qasm,
}


def _flag_options(key: str, default) -> dict:
    """argparse options for config key ``key``, typed by its default."""
    if isinstance(default, bool):
        return {"action": "store_true", "help": _HELP[key]}
    if isinstance(default, list):
        element = int if all(isinstance(v, int) for v in default) else float
        return {"action": "append", "type": element, "help": f"{_HELP[key]} (repeatable)"}
    kind = str if default is None else type(default)
    return {"type": kind, "choices": _CHOICES.get(key), "help": _HELP[key]}


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per ``COMMANDS`` entry, with a flag per ``DEFAULTS`` key."""
    parser = argparse.ArgumentParser(
        prog="qbpm",
        description="Quantum beam propagation experiments and data export.",
    )
    parser.add_argument("--version", action="version", version=f"qbpm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, run in COMMANDS.items():
        summary = (run.__doc__ or "").partition("\n")[0]
        # an omitted flag stays out of the namespace, so it overrides nothing
        p = sub.add_parser(
            command, help=summary, description=summary, argument_default=argparse.SUPPRESS
        )
        p.add_argument("--config", default=None, help="JSON config file; flags override it")
        for key, default in DEFAULTS[command].items():
            p.add_argument("--" + key.replace("_", "-"), **_flag_options(key, default))
    return parser


def _openblas_setter():
    """The thread setter of the scipy-openblas bundled in numpy's ``numpy.libs``,
    or None.  Its symbols carry a ``scipy_`` prefix; the 64-bit integer builds
    add a ``64_`` suffix."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for suffix in ("64_", ""):
            setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if setter is not None:
                return setter
    return None


def main(argv=None) -> int:
    # the circuit path's small matmul windows can stall under OpenBLAS's
    # default threads on a small host; one thread does not stall
    setter = _openblas_setter()
    if setter is not None:
        setter(1)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve(args.command, args)
        status = COMMANDS[args.command](config)
        sys.stdout.flush()  # a buffered write to a closed pipe fails here, not at exit
        return status
    except BrokenPipeError:
        # the exit flush writes what is still buffered to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    except PhaseOverflowError as exc:
        keys = ", ".join(key for key in _PHASE_KEYS if key in config)
        print(f"error: {keys}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
