import argparse
import ctypes
import hashlib
import json
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qbpm import __version__, build_qbpm_circuit_2d, cli, scenarios
from qbpm.cli import DEFAULTS, build_parser, main
from qbpm.scenarios import DEFAULT_GAUSSIAN_2D, error_analysis

# small-register double-slit configuration that keeps CLI tests fast while
# leaving every slit resolved
FAST_SLIT = [
    "--qubits", "11",
    "--domain-length", "0.0064",
    "--shots", "2000",
    "--z", "0.05",
]


# a small error-analysis run
FAST_ERROR_SLIT = [
    "--qubits", "9", "--domain-length", "0.0064", "--z", "0", "--shots", "200", "--sims", "2",
]


# the config keys that an overflowing transfer phase names, in order: every
# key of the command that the phase depends on
PHASE_KEYS = {
    "double-slit": "z, wavelength, domain_length, qubits",
    "gaussian-2d": "zr, waist, wavelength, domain_length, qubits",
    "propagate": "z, wavelength, dx",
    "export-qasm": "z, wavelength, domain_length, qubits, order",
}


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


class TestDoubleSlitCommand:
    def test_writes_patterns_and_rmse(self, tmp_path):
        out = tmp_path / "run"
        assert main(["double-slit", *FAST_SLIT, "--out", str(out)]) == 0
        assert (out / "pattern_z00.csv").exists()
        assert (out / "rmse.csv").exists()
        config = read_json(out / "config.json")
        assert config["command"] == "double-slit"
        assert config["qubits"] == 11
        assert config["seed"] == 1234  # default expanded for provenance
        header, first = (out / "pattern_z00.csv").read_text().splitlines()[:2]
        assert header == "x,p_sampled,p_exact,i_analytic"
        assert len(first.split(",")) == 4

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "run"
        assert main(["double-slit", *FAST_SLIT, "--out", str(out)]) == 0
        snapshot = tree_bytes(out)
        shutil.rmtree(out)
        assert main(["double-slit", *FAST_SLIT, "--out", str(out)]) == 0
        assert tree_bytes(out) == snapshot

    def test_zero_distance_histogram_sits_in_the_slits(self, tmp_path):
        out = tmp_path / "run"
        assert main(["double-slit", *FAST_SLIT[:-2], "--z", "0", "--out", str(out)]) == 0
        rows = np.loadtxt(out / "pattern_z00.csv", delimiter=",", skiprows=1)
        x, p_sampled = rows[:, 0], rows[:, 1]
        inside = (np.abs(np.abs(x) - 2.5e-4) <= 5e-5 + 1e-12)
        assert p_sampled[~inside].sum() == 0.0
        assert p_sampled[inside].sum() == pytest.approx(1.0)


class TestGaussianCommand:
    ARGS = [
        "--qubits", "4",
        "--domain-length", "0.2",
        "--shots", "1000",
        "--zr", "0", "--zr", "1",
        "--sims", "5",
        "--sweep-shots", "50", "--sweep-shots", "200",
    ]

    def test_writes_grids_waist_and_sweep(self, tmp_path):
        out = tmp_path / "run"
        assert main(["gaussian-2d", *self.ARGS, "--out", str(out)]) == 0
        for name in (
            "intensity_zr00_sampled.csv",
            "intensity_zr00_exact.csv",
            "intensity_zr01_sampled.csv",
            "waist.csv",
            "sigma_w.csv",
        ):
            assert (out / name).exists(), name
        grid = np.loadtxt(out / "intensity_zr00_exact.csv", delimiter=",", skiprows=1)
        assert grid.shape == (16, 16)
        waist_rows = (out / "waist.csv").read_text().splitlines()
        assert waist_rows[0] == "z_ratio,z,w_sampled,w_reference,error"
        assert len(waist_rows) == 3

    def test_json_grid_format(self, tmp_path):
        out = tmp_path / "run"
        assert main(["gaussian-2d", *self.ARGS, "--format", "json", "--out", str(out)]) == 0
        grid = read_json(out / "intensity_zr00_exact.json")
        assert len(grid) == 16 and len(grid[0]) == 16

    def test_sweep_z_ratio_is_the_given_zr(self, tmp_path):
        out = tmp_path / "run"
        argv = ["gaussian-2d", *self.ARGS[:6], "--zr", "0.09", "--zr", "0.47", "--sims", "2",
                "--sweep-shots", "50", "--out", str(out)]
        assert main(argv) == 0
        waist, sweep = (
            [line.split(",")[:2] for line in (out / name).read_text().splitlines()[1:]]
            for name in ("waist.csv", "sigma_w.csv")
        )
        assert [row[0] for row in waist] == ["0.09", "0.47"]
        assert sweep == waist

    def test_each_distance_runs_once(self, tmp_path, monkeypatch):
        # one at(z) per distance builds one circuit: the sweep and the grids share it
        built = []

        def counting(n_per_axis, grid, wavelength, z):
            built.append(z)
            return build_qbpm_circuit_2d(n_per_axis, grid, wavelength, z)

        monkeypatch.setattr(scenarios, "build_qbpm_circuit_2d", counting)
        assert main(["gaussian-2d", *self.ARGS, "--out", str(tmp_path / "run")]) == 0
        assert built == [0.0, DEFAULT_GAUSSIAN_2D.rayleigh_length]

    def test_sweep_matches_error_analysis(self, tmp_path):
        # the sigma_w sweep is the library's error-analysis table of the beam
        out = tmp_path / "run"
        argv = ["gaussian-2d", "--qubits", "4", "--domain-length", "0.2", "--sims", "5",
                "--seed", "7", "--sweep-shots", "100", "--sweep-shots", "1000", "--out", str(out)]
        assert main(argv) == 0
        params = replace(DEFAULT_GAUSSIAN_2D, n_qubits_per_axis=4, domain_length=0.2)
        z_values = [zr * params.rayleigh_length for zr in DEFAULTS["gaussian-2d"]["zr"]]
        table = error_analysis(params, z_values, [100, 1000], 5, 7)
        expected = [
            [repr(z), repr(n_shots), "5", repr(float(stats.mu)), repr(float(stats.sigma))]
            for (z, n_shots), stats in sorted(table.items())
        ]
        # (z, n_shots, n_sim, mu_error, sigma_w) after the z_ratio column
        lines = (out / "sigma_w.csv").read_text().splitlines()
        header, *rows = [line.split(",")[1:] for line in lines]
        assert header == ["z", "n_shots", "n_sim", "mu_error", "sigma_w"]
        assert len(rows) == 8
        assert rows == expected


class TestPropagateCommand:
    def make_field(self, tmp_path, n=256, seed=5):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        path = tmp_path / "field.csv"
        np.savetxt(path, np.column_stack([values.real, values.imag]), delimiter=",")
        return path

    def test_paths_agree_on_random_field(self, tmp_path):
        field = self.make_field(tmp_path)
        out = tmp_path / "run"
        rc = main(
            ["propagate", "--input", str(field), "--z", "0.05", "--verify", "--out", str(out)]
        )
        assert rc == 0
        report = read_json(out / "report.json")
        assert report["max_abs_deviation"] < 1e-9
        assert report["within_tolerance"] is True
        quantum = np.loadtxt(out / "field_quantum.csv", delimiter=",", skiprows=1)
        classical = np.loadtxt(out / "field_classical.csv", delimiter=",", skiprows=1)
        assert quantum.shape == classical.shape == (256, 2)
        assert np.max(np.abs(quantum - classical)) < 1e-9

    def test_verify_failure_exits_three(self, tmp_path):
        field = self.make_field(tmp_path)
        rc = main(
            [
                "propagate", "--input", str(field), "--z", "0.05", "--verify",
                "--tolerance", "1e-30", "--out", str(tmp_path / "run"),
            ]
        )
        assert rc == 3

    def test_distance_overflowing_the_phase_is_config_error(self, tmp_path, capsys):
        field = self.make_field(tmp_path)
        out = tmp_path / "run"
        # the angle is finite, but the phase at g = N/2 (4.2e308 rad) is not:
        # the circuit build, the first to call phase_angles, rejects it
        rc = main(["propagate", "--input", str(field), "--z", "1e305", "--verify",
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {PHASE_KEYS['propagate']}: phase must be finite: "
            "the transfer phase overflows at z = 1e+305\n"
        )
        assert not out.exists()

    def test_field_whose_norm_overflows_is_config_error(self, tmp_path, capsys):
        field = tmp_path / "field.csv"
        field.write_text("1e300,1e300\n" * 4)
        out = tmp_path / "run"
        rc = main(["propagate", "--input", str(field), "--z", "0.001", "--verify",
                   "--out", str(out)])
        assert rc == 2
        assert "norm of the amplitudes overflows or underflows" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_is_config_error(self, tmp_path):
        assert main(["propagate", "--out", str(tmp_path / "run")]) == 2

    def test_bad_length_is_config_error(self, tmp_path):
        path = tmp_path / "field.csv"
        np.savetxt(path, np.ones((100, 2)), delimiter=",")
        rc = main(["propagate", "--input", str(path), "--out", str(tmp_path / "run")])
        assert rc == 2


class TestErrorAnalysisCommand:
    def test_writes_error_table(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            [
                "error-analysis", "--qubits", "11", "--domain-length", "0.0064",
                "--z", "0", "--z", "0.05", "--shots", "500", "--sims", "4",
                "--config", str(self.write_config(tmp_path)),
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = (out / "error_stats.csv").read_text().splitlines()
        assert lines[0] == "scenario,z,n_shots,n_sim,mu,sigma"
        assert len(lines) == 3

    @staticmethod
    def write_config(tmp_path):
        # the qubits flag on the command line must override this value
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"qubits": 9, "sims": 4}))
        return path

    def test_flag_overrides_config_file(self, tmp_path):
        out = tmp_path / "run"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"shots": [500], "sims": 3, "z": [0.0]}))
        rc = main(
            [
                "error-analysis", "--qubits", "11", "--domain-length", "0.0064",
                "--sims", "2", "--config", str(config), "--out", str(out),
            ]
        )
        assert rc == 0
        resolved = read_json(out / "config.json")
        assert resolved["sims"] == 2  # flag wins
        assert resolved["qubits"] == 11 and isinstance(resolved["qubits"], int)
        assert resolved["shots"] == [500]  # file wins over default
        assert resolved["z"] == [0.0]

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bogus": 1}))
        rc = main(["error-analysis", "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_config_naming_a_scenario_rejected(self, tmp_path, capsys):
        # a config.json written when error-analysis also repeated the 2D beam
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "command": "error-analysis", "version": __version__, "scenario": "double-slit",
            "qubits": None, "domain_length": None, "z": [0.0], "shots": [200], "sims": 2,
            "seed": 1234, "out": "old",
        }))
        out = tmp_path / "run"
        assert main(["error-analysis", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: unknown config keys for error-analysis: ['scenario']\n"
        )
        assert not out.exists()


class TestGateCountCommand:
    def test_report_contents(self, capsys):
        assert main(["gate-count", "--qubits", "15", "--order", "2"]) == 0
        report = capsys.readouterr().out
        assert "qft: 127 gates" in report
        assert "propagator: 120 gates" in report
        assert "pipeline total: 374" in report
        assert "MISMATCH" not in report

    def test_single_qubit_propagator(self, capsys):
        assert main(["gate-count", "--qubits", "1", "--order", "2"]) == 0
        assert "propagator: 1 gates" in capsys.readouterr().out

    def test_cubic_scaling_note(self, capsys):
        assert main(["gate-count", "--qubits", "8", "--order", "3"]) == 0
        out = capsys.readouterr().out
        assert "propagator: 92 gates" in out  # n + C(n,2) + C(n,3)
        assert "O(n^3)" in out

    def test_json_artifact(self, tmp_path):
        out = tmp_path / "run"
        assert main(["gate-count", "--qubits", "6", "--out", str(out)]) == 0
        payload = read_json(out / "gate_count.json")
        assert payload["propagator_total"] == 21
        assert payload["qft"]["Hadamard"] == 6

    def test_out_of_range(self, tmp_path):
        assert main(["gate-count", "--qubits", "30"]) == 2


class TestExportQasmCommand:
    def test_writes_circuit(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["export-qasm", "--qubits", "4", "--z", "0.1", "--out", str(out)])
        assert rc == 0
        text = (out / "qbpm_circuit.qasm").read_text()
        assert text.startswith('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[4];\n')
        gate_lines = text.strip().splitlines()[3:]
        # qft + quadratic propagator + iqft
        assert len(gate_lines) == (4 + 6 + 2) + 10 + (4 + 6 + 2)

    def test_cubic_order_exports_with_expansions(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            ["export-qasm", "--qubits", "4", "--order", "3", "--z", "0.1", "--out", str(out)]
        )
        assert rc == 0
        assert "cx " in (out / "qbpm_circuit.qasm").read_text()

    def test_quartic_order_rejected(self, tmp_path, capsys):
        rc = main(
            ["export-qasm", "--qubits", "5", "--order", "4", "--z", "0.1",
             "--out", str(tmp_path / "run")]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: order 4: cannot export")
        assert not (tmp_path / "run").exists()

    def test_quartic_order_on_three_qubits_exports(self, tmp_path):
        # a quartic term on three qubits has at most two controls
        out = tmp_path / "run"
        assert main(["export-qasm", "--qubits", "3", "--order", "4", "--out", str(out)]) == 0
        assert (out / "qbpm_circuit.qasm").exists()


class TestInputContract:
    """Bad inputs exit 2 with a message; they never raise out of ``main``."""

    @pytest.mark.parametrize("z", ["inf", "nan"])
    def test_double_slit_non_finite_z(self, tmp_path, capsys, z):
        rc = main(["double-slit", *FAST_SLIT[:-2], "--z", z, "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "propagation distance must be non-negative and finite" in capsys.readouterr().err

    def test_gaussian_infinite_wavelength(self, tmp_path, capsys):
        rc = main(
            ["gaussian-2d", *TestGaussianCommand.ARGS, "--wavelength", "inf",
             "--out", str(tmp_path / "run")]
        )
        assert rc == 2
        assert "wavelength must be positive and finite" in capsys.readouterr().err

    def test_propagate_infinite_dx(self, tmp_path, capsys):
        field = tmp_path / "field.csv"
        np.savetxt(field, np.ones((8, 2)), delimiter=",")
        out = tmp_path / "run"
        rc = main(["propagate", "--input", str(field), "--dx", "inf", "--out", str(out)])
        assert rc == 2
        assert "dx must be positive and finite" in capsys.readouterr().err
        assert not (out / "field_quantum.csv").exists()

    def test_propagate_spacing_whose_span_overflows_named(self, tmp_path, capsys):
        # 256 points of spacing 1e308 span more than float64 holds
        field = tmp_path / "field.csv"
        np.savetxt(field, np.ones((256, 2)), delimiter=",")
        out = tmp_path / "run"
        assert main(["propagate", "--input", str(field), "--dx", "1e308", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: dx 1e+308 is too large")
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, z",
        [
            (["export-qasm", "--domain-length", "1e-160"], "0.1"),
            (["export-qasm", "--qubits", "4", "--domain-length", "1e-6",
              "--z", "1e303"], "1e+303"),
            (["double-slit", "--qubits", "10", "--domain-length", "1e-160",
              "--slit-separation", "5e-161", "--slit-width", "1e-161"], "0.1"),
            (["double-slit", "--qubits", "10", "--domain-length", "1e-6",
              "--slit-separation", "5e-7", "--slit-width", "1e-7", "--z", "1e303"], "1e+303"),
            # a 1.3e308 rad phase at |g| = N/2, where one ulp is far above 2 pi
            (["double-slit", "--z", "3e303"], "3e+303"),
        ],
        ids=["qasm-tiny-spacing", "qasm-far", "slit-tiny-spacing", "slit-far", "slit-default-far"],
    )
    def test_overflowing_transfer_phase_names_z(self, tmp_path, capsys, args, z):
        # z, and the grid spacing through domain_length and qubits, set the phase
        out = tmp_path / "run"
        assert main([*args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {PHASE_KEYS[args[0]]}: phase must be finite: "
            f"the transfer phase overflows at z = {z}\n"
        )
        assert not out.exists()

    def test_propagate_tiny_spacing_names_z(self, tmp_path, capsys):
        field = tmp_path / "field.csv"
        np.savetxt(field, np.ones((256, 2)), delimiter=",")
        out = tmp_path / "run"
        assert main(["propagate", "--input", str(field), "--dx", "1e-160", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {PHASE_KEYS['propagate']}: phase must be finite: "
            "the transfer phase overflows at z = 0.1\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("zr", ["1e303", "1e305"], ids=["phase-overflows", "z-is-inf"])
    def test_gaussian_failing_distance_writes_nothing(self, tmp_path, capsys, zr):
        # every distance is checked before any output; on a 1 mm window
        # the slot phase of zr = 1e303 (z = 1.5e307) overflows
        out = tmp_path / "run"
        argv = ["gaussian-2d", *TestGaussianCommand.ARGS, "--domain-length", "1e-3", "--zr", zr]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        if zr == "1e303":
            assert err.startswith(f"error: {PHASE_KEYS['gaussian-2d']}: phase must be finite: ")
        else:
            assert "propagation distance" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["double-slit", *FAST_SLIT],
            ["gaussian-2d", *TestGaussianCommand.ARGS],
            ["propagate", "--input", "FIELD"],
            ["export-qasm"],
        ],
        ids=lambda args: args[0],
    )
    def test_subnormal_wavelength_named(self, tmp_path, capsys, args):
        # its wavenumber 2 pi / wavelength overflows float64
        field = tmp_path / "field.csv"
        np.savetxt(field, np.ones((8, 2)), delimiter=",")
        args = [str(field) if arg == "FIELD" else arg for arg in args]
        out = tmp_path / "run"
        assert main([*args, "--wavelength", "1e-320", "--out", str(out)]) == 2
        assert "wavelength 1e-320 is too small" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args", [["gaussian-2d", *TestGaussianCommand.ARGS, "--zr", "1e305"]], ids=lambda a: a[0]
    )
    def test_overflowing_zr_named(self, tmp_path, capsys, args):
        # zr is finite, but zr times the Rayleigh length is not
        out = tmp_path / "run"
        assert main([*args, "--out", str(out)]) == 2
        assert "zr: propagation distance of 1e+305 Rayleigh lengths" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_waist_named(self, tmp_path, capsys):
        # waist**2, and so the Rayleigh length, overflows float64
        out = tmp_path / "run"
        argv = ["gaussian-2d", *TestGaussianCommand.ARGS, "--waist", "1e308"]
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: waist 1e+308 is too large")
        assert not out.exists()

    @pytest.mark.parametrize(
        "args", [["gaussian-2d", *TestGaussianCommand.ARGS], ["export-qasm"]], ids=lambda a: a[0]
    )
    def test_underflowing_domain_length_named(self, tmp_path, capsys, args):
        # domain_length / 2**n rounds to a zero grid spacing
        out = tmp_path / "run"
        assert main([*args, "--domain-length", "5e-324", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: domain_length 5e-324 is too small")
        assert not out.exists()

    @pytest.mark.parametrize(
        "args", [["double-slit", *FAST_SLIT], ["export-qasm"]], ids=lambda a: a[0]
    )
    def test_huge_wavelength_named(self, tmp_path, capsys, args):
        # the transfer phase per meter overflows on a grid whose frequencies do not
        out = tmp_path / "run"
        assert main([*args, "--wavelength", "1e308", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {PHASE_KEYS[args[0]]}: ")
        assert not out.exists()

    def test_spacing_whose_frequency_step_overflows_names_domain_length(self, tmp_path, capsys):
        # 2 pi / domain_length overflows float64, though z = 0 is the first distance
        out = tmp_path / "run"
        argv = ["gaussian-2d", "--waist", "1e-3", "--domain-length", "1e-310", "--sims", "2"]
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: domain_length 1e-310 is too small")
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, keys",
        [
            (["gaussian-2d", *TestGaussianCommand.ARGS, "--waist", "1e150",
              "--domain-length", "1e-3"],
             PHASE_KEYS["gaussian-2d"]),
        ],
        ids=["gaussian-2d"],
    )
    def test_overflowing_rayleigh_distance_names_zr_and_waist(self, tmp_path, capsys, args, keys):
        # the derived z (5.9e306 at zr = 1) is finite, but its slot phase on
        # a 1 mm window is not
        out = tmp_path / "run"
        assert main([*args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: {keys}: phase must be finite: the transfer phase overflows at z = 5.9"
        )
        assert not out.exists()

    def test_gaussian_tiny_spacing_is_config_error(self, tmp_path, capsys):
        # z = 0 at zr = 0, but alpha**2 of the tiny spacing is inf
        out = tmp_path / "run"
        argv = ["gaussian-2d", "--domain-length", "1e-160", "--waist", "5e-161", "--sims", "2"]
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {PHASE_KEYS['gaussian-2d']}: phase must be finite: "
            "the transfer phase overflows at z = 0.0\n"
        )
        assert not out.exists()

    def test_tiny_spacing_message_same_on_both_paths(self, tmp_path, capsys):
        # propagate builds the circuit first, gaussian-2d propagates
        # classically first: the same overflow reads the same after the keys
        field = tmp_path / "field.csv"
        np.savetxt(field, np.ones((256, 2)), delimiter=",")
        runs = {
            "propagate": ["--input", str(field), "--dx", "1e-160", "--z", "0"],
            "gaussian-2d": ["--domain-length", "1e-160", "--waist", "5e-161", "--sims", "2"],
        }
        messages = set()
        for command, args in runs.items():
            assert main([command, *args, "--out", str(tmp_path / command)]) == 2
            err = capsys.readouterr().err
            prefix = f"error: {PHASE_KEYS[command]}: "
            assert err.startswith(prefix)
            messages.add(err[len(prefix):])
        assert messages == {"phase must be finite: the transfer phase overflows at z = 0.0\n"}

    @pytest.mark.filterwarnings("error::UserWarning")
    def test_propagate_empty_input_is_config_error(self, tmp_path, capsys):
        field = tmp_path / "field.csv"
        field.write_text("")
        out = tmp_path / "run"
        assert main(["propagate", "--input", str(field), "--out", str(out)]) == 2
        assert "holds no data" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, text, message",
        [
            (["double-slit", "--config"], None, "cannot read config file"),
            (["double-slit", "--config"], "{", "config file is not valid JSON"),
            (["double-slit", "--config"], "[1, 2]", "config file must hold a JSON object"),
            (["propagate", "--input"], "1,2\nx,y\n", "malformed input field file"),
            (["propagate", "--input"], "1,2,3\n4,5,6\n", "input field must have two columns"),
            (["propagate", "--input"], "1,2\nnan,0\n",
             "input field {path}: amplitudes must be finite"),
        ],
        ids=[
            "missing-config", "invalid-json", "json-list", "non-numeric-row", "three-columns",
            "nan-row",
        ],
    )
    def test_unreadable_file_is_config_error(self, tmp_path, capsys, argv, text, message):
        path = tmp_path / "given"
        if text is not None:
            path.write_text(text)
        out = tmp_path / "run"
        assert main([*argv, str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message.format(path=path)}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, payload, key",
        [
            ("double-slit", {"z": 0.1}, "'z'"),
            ("propagate", {"verify": "no"}, "'verify'"),
            ("gate-count", {"qubits": [15]}, "'qubits'"),
            ("error-analysis", {"shots": [1000, "many"]}, "'shots'"),
            ("gate-count", {"out": 7}, "'out'"),
            ("propagate", {"input": 5}, "'input'"),
            ("error-analysis", {"qubits": "9"}, "'qubits'"),
            ("gaussian-2d", {"format": "xml"}, "'format'"),
            # a number default takes no null
            ("error-analysis", {"domain_length": None}, "'domain_length'"),
            ("double-slit", {"command": "gate-count"}, "'command'"),
        ],
    )
    def test_config_value_of_wrong_type(self, tmp_path, capsys, command, payload, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        rc = main([command, "--config", str(config), "--out", str(tmp_path / "run")])
        assert rc == 2
        assert f"config key {key} must be" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "command, args, key",
        [
            ("gaussian-2d", TestGaussianCommand.ARGS, "waist"),
            ("double-slit", FAST_SLIT, "slit_width"),
            ("double-slit", FAST_SLIT, "domain_length"),
            ("error-analysis", FAST_ERROR_SLIT, "domain_length"),
        ],
    )
    def test_non_finite_parameter_named(self, tmp_path, capsys, command, args, key):
        flag = "--" + key.replace("_", "-")
        rc = main([command, *args, flag, "inf", "--out", str(tmp_path / "run")])
        assert rc == 2
        assert f"{key} must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [FAST_ERROR_SLIT], ids=["double-slit"])
    def test_negative_domain_length_named(self, tmp_path, capsys, args):
        out = tmp_path / "run"
        assert main(["error-analysis", *args, "--domain-length", "-1", "--out", str(out)]) == 2
        assert "domain_length must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, args, flag, value",
        [
            ("double-slit", FAST_SLIT, "--shots", "0"),
            ("double-slit", FAST_SLIT, "--seed", "-1"),
            ("double-slit", FAST_SLIT, "--z", "-1"),
            ("gaussian-2d", TestGaussianCommand.ARGS, "--shots", "0"),
            ("gaussian-2d", TestGaussianCommand.ARGS, "--sims", "1"),
            ("gaussian-2d", TestGaussianCommand.ARGS, "--sweep-shots", "0"),
            ("gaussian-2d", TestGaussianCommand.ARGS, "--seed", "-1"),
            ("gaussian-2d", TestGaussianCommand.ARGS, "--zr", "-1"),
            ("gaussian-2d", TestGaussianCommand.ARGS, "--zr", "nan"),
            ("error-analysis", FAST_ERROR_SLIT, "--shots", "0"),
            ("error-analysis", FAST_ERROR_SLIT, "--sims", "1"),
            ("error-analysis", FAST_ERROR_SLIT, "--seed", "-1"),
            ("error-analysis", FAST_ERROR_SLIT, "--z", "-1"),
            # a value that the arguments already hold
            ("double-slit", FAST_SLIT, "--z", "0.05"),
            ("gaussian-2d", TestGaussianCommand.ARGS, "--zr", "1"),
            ("gaussian-2d", TestGaussianCommand.ARGS, "--sweep-shots", "200"),
            ("error-analysis", FAST_ERROR_SLIT, "--z", "-0.0"),
            ("error-analysis", FAST_ERROR_SLIT, "--shots", "200"),
        ],
    )
    def test_sampling_value_out_of_bounds(self, tmp_path, capsys, command, args, flag, value):
        # checked before the output directory is made; a list key holds each value once
        out = tmp_path / "run"
        assert main([command, *args, flag, value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.split()[1].rstrip(":") == flag[2:].replace("-", "_"), err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("double-slit", {"shots": 0}),
            ("gaussian-2d", {"sims": 1.5}),
            ("error-analysis", {"z": [0.0, float("inf")]}),
            ("double-slit", {"shots": 1e30}),
            ("gaussian-2d", {"sweep_shots": [1e30]}),
            ("gate-count", {"order": 2.5}),
            ("export-qasm", {"order": 2.5}),
            ("error-analysis", {"z": [0.0, -0.0]}),
            ("error-analysis", {"shots": [200, 200.0]}),
            ("gaussian-2d", {"zr": [1.0, 1]}),
            ("gaussian-2d", {"sweep_shots": [100, 100]}),
        ],
    )
    def test_config_value_out_of_bounds(self, tmp_path, capsys, command, payload):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        out = tmp_path / "run"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        [key] = payload
        assert capsys.readouterr().err.split()[1].rstrip(":") == key
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gate-count", "export-qasm"])
    @pytest.mark.parametrize("order", [0, 5, 2.5, float("inf")], ids=["0", "5", "2.5", "inf"])
    def test_order_must_be_an_integer_in_range(self, tmp_path, capsys, command, order):
        # one message for every bad order, through the config file and, for an
        # integer, its flag
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"order": order}))
        runs = [["--config", str(config)]]
        if isinstance(order, int):
            runs.append(["--order", str(order)])
        for args in runs:
            out = tmp_path / "run"
            assert main([command, *args, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err == f"error: order must be an integer in 1..4, got {order}\n"
            assert not out.exists()

    def test_config_order_may_be_a_whole_float(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"qubits": 5, "order": 3.0}))
        assert main(["gate-count", "--config", str(config)]) == 0
        report = capsys.readouterr().out
        assert "order: 3\n" in report
        assert "propagator: 25 gates" in report  # n + C(n,2) + C(n,3) at n = 5

    @pytest.mark.parametrize(
        "argv",
        [
            ["error-analysis", "--config", "QUBITS_INF"],
            ["gaussian-2d", "--config", "QUBITS_INF"],
            ["double-slit", "--config", "QUBITS_INF"],
        ],
    )
    def test_qubits_must_be_an_integer_in_range(self, tmp_path, capsys, argv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"qubits": float("inf")}))
        argv = [str(config) if arg == "QUBITS_INF" else arg for arg in argv]
        assert main([*argv, "--out", str(tmp_path / "run")]) == 2
        assert "must be an integer in 1.." in capsys.readouterr().err

    def test_config_numbers_are_interchangeable(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"qubits": 9.0, "z": [0, 0.05], "shots": 500}))
        out = tmp_path / "run"
        assert main(["double-slit", "--config", str(config), "--domain-length", "0.0064",
                     "--out", str(out)]) == 0
        assert read_json(out / "config.json")["z"] == [0, 0.05]

    def test_out_path_under_a_file(self, tmp_path, capsys):
        blocker = tmp_path / "afile"
        blocker.write_text("")
        assert main(["gate-count", "--out", str(blocker / "sub")]) == 2
        assert "afile" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key",
        [
            (command, key)
            for command in DEFAULTS
            for key, default in DEFAULTS[command].items()
            if isinstance(default, list)
        ],
        ids=lambda item: item,
    )
    def test_empty_list_rejected(self, tmp_path, capsys, command, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: []}))
        out = tmp_path / "run"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {key} must hold at least one value\n"
        assert not out.exists()

    @pytest.mark.parametrize("args", [["propagate", "--input", "FIELD"], ["export-qasm"]],
                             ids=lambda args: args[0])
    def test_one_distance_commands_reject_two(self, tmp_path, capsys, args):
        field = tmp_path / "field.csv"
        np.savetxt(field, np.ones((8, 2)), delimiter=",")
        args = [str(field) if arg == "FIELD" else arg for arg in args]
        out = tmp_path / "run"
        assert main([*args, "--z", "0.1", "--z", "0.2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {args[0]} expects exactly one --z value\n"
        assert not out.exists()

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_closed_stdout_exits_141_quietly(self, unbuffered):
        # 128 + SIGPIPE, as a shell reports for a writer that a closed pipe stops
        env = {k: v for k, v in _module_env().items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "qbpm", "gate-count", "--qubits", "4"],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
            )
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (141, b"")


# small valid configuration of each command; "FIELD" is an 8-point input file
CONTRACT_BASES = {
    "double-slit": {"qubits": 9, "domain_length": 0.0064, "shots": 200, "z": [0.05]},
    "gaussian-2d": {
        "qubits": 4, "domain_length": 0.2, "shots": 200, "zr": [1.0], "sims": 2,
        "sweep_shots": [50],
    },
    "propagate": {"input": "FIELD", "z": [0.1]},
    "error-analysis": {
        "qubits": 9, "domain_length": 0.0064, "z": [0.05], "shots": [200], "sims": 2,
    },
    "gate-count": {"qubits": 4},
    "export-qasm": {"qubits": 4},
}

# JSON text of each hostile value; Python's json reads NaN, Infinity and 1e400
HOSTILE_VALUES = [
    "NaN", "Infinity", "-Infinity", "1e400", "-0.0", "5e-324", "1e308", "true", str(2**63),
    "0", "-1", "2.5", '"x"', "[]", "[NaN]", "[1e308]", "null",
]

# flag text of each hostile value
HOSTILE_FLAG_VALUES = [
    "nan", "inf", "-inf", "1e400", "-0.0", "5e-324", "1e308", str(2**63), "0", "-1", "2.5", "x",
    "",
]


class TestHostileConfigValues:
    """Every key of every command, given each hostile value through
    ``--config`` or as its flag: the command succeeds, or exits 2 naming the
    key (every key of a limit that relates several) and writes nothing."""

    def _base(self, tmp_path, monkeypatch, command):
        """``command``'s small valid configuration, run in ``tmp_path``."""
        monkeypatch.chdir(tmp_path)  # a valid relative "out" or "input" stays here
        field = tmp_path / "field.csv"
        np.savetxt(field, np.ones((8, 2)), delimiter=",")
        return {k: str(field) if v == "FIELD" else v for k, v in CONTRACT_BASES[command].items()}

    def _sweep(self, tmp_path, capsys, command, key, cases):
        """Run ``command`` on each ``(text, config, flags)`` of ``cases``;
        argparse's exit 2 names the key as its flag."""
        flag = "--" + key.replace("_", "-")
        failures = []
        for index, (text, config, flags) in enumerate(cases):
            path = tmp_path / f"config{index}.json"
            path.write_text(json.dumps(config))
            out = tmp_path / f"run{index}"
            argv = [command, "--config", str(path), *flags, "--out", str(out)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    rc, name = main(argv), key
                except SystemExit as exc:
                    rc, name = exc.code, flag
            err = capsys.readouterr().err
            if rc not in (0, 2):
                failures.append(f"{key}={text!r}: exit {rc}: {err}")
            elif rc == 2 and name not in err:
                failures.append(f"{key}={text!r}: message does not name {name!r}: {err}")
            elif rc == 2 and out.exists():
                failures.append(f"{key}={text!r}: exit 2 but {out.name} was written")
        assert not failures, "\n".join(failures)

    @pytest.mark.parametrize(
        "command, key",
        [(command, key) for command in DEFAULTS for key in DEFAULTS[command]],
        ids=lambda item: item,
    )
    def test_exit_code_message_and_output(self, tmp_path, monkeypatch, capsys, command, key):
        base = self._base(tmp_path, monkeypatch, command)
        cases = [(text, {**base, key: json.loads(text)}, []) for text in HOSTILE_VALUES]
        self._sweep(tmp_path, capsys, command, key, cases)

    @pytest.mark.parametrize(
        "command, key",
        [
            (command, key)
            for command in DEFAULTS
            for key, default in DEFAULTS[command].items()
            if key != "out" and not isinstance(default, bool)
        ],
        ids=lambda item: item,
    )
    def test_flag_values(self, tmp_path, monkeypatch, capsys, command, key):
        base = self._base(tmp_path, monkeypatch, command)
        base.pop(key, None)
        flag = "--" + key.replace("_", "-")
        cases = [(text, base, [f"{flag}={text}"]) for text in HOSTILE_FLAG_VALUES]
        self._sweep(tmp_path, capsys, command, key, cases)


class TestBlasThreadPin:
    """``main`` runs the scipy-openblas that numpy 2.0+ bundles on one thread,
    and runs unpinned where it finds no thread setter, with the same output
    bytes."""

    @pytest.fixture
    def openblas(self):
        """The bundled scipy-openblas's thread getter and setter, the count
        restored afterwards.  A ``numpy.libs`` OpenBLAS whose ``scipy_``
        setter ``main`` cannot find fails here, on whatever numpy runs the
        suite."""
        paths = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
        if not paths:
            pytest.skip("this numpy bundles no OpenBLAS in numpy.libs")
        setter = cli._openblas_setter()
        assert setter is not None, f"no thread setter found in {[p.name for p in paths]}"
        getter = getattr(ctypes.CDLL(str(paths[0])), setter.__name__.replace("_set_", "_get_"))
        threads = getter()
        yield getter, setter
        setter(threads)

    def test_main_pins_one_thread(self, tmp_path, openblas):
        getter, setter = openblas
        setter(2)
        assert getter() == 2
        assert main(["gate-count", "--qubits", "3", "--out", str(tmp_path / "run")]) == 0
        assert getter() == 1

    @pytest.mark.parametrize("library", [None, b"not a shared library"], ids=["none", "unloadable"])
    def test_without_a_setter_main_runs_unpinned_with_the_same_bytes(
        self, tmp_path, monkeypatch, openblas, library
    ):
        out = tmp_path / "run"
        assert main(["double-slit", *FAST_SLIT, "--out", str(out)]) == 0
        pinned = tree_bytes(out)
        shutil.rmtree(out)
        getter, setter = openblas
        setter(2)
        libs = tmp_path / "site" / "numpy.libs"
        libs.mkdir(parents=True)
        if library is not None:
            (libs / "libopenblas.so").write_bytes(library)
        monkeypatch.setattr(np, "__file__", str(tmp_path / "site" / "numpy" / "__init__.py"))
        assert cli._openblas_setter() is None
        assert main(["double-slit", *FAST_SLIT, "--out", str(out)]) == 0
        assert getter() == 2
        assert tree_bytes(out) == pinned


def _subparsers() -> dict:
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _module_env() -> dict:
    """The environment for ``python -m qbpm`` with this checkout's sources
    ahead of any installed copy."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def test_module_entry_point_runs_main():
    result = subprocess.run(
        [sys.executable, "-m", "qbpm", "--version"],
        capture_output=True, text=True, env=_module_env(),
    )
    assert (result.returncode, result.stdout) == (0, f"qbpm {__version__}\n")


class TestOptionTable:
    """``DEFAULTS`` is the only option table: each config key is a flag."""

    @pytest.mark.parametrize("command", sorted(DEFAULTS))
    def test_flags_are_the_config_keys(self, command):
        sub = _subparsers()[command]
        dests = {action.dest for action in sub._actions if action.dest != "help"}
        assert dests == set(DEFAULTS[command]) | {"config"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["propagate", "--seed", "5"],
            ["gate-count", "--seed", "5"],
            ["export-qasm", "--seed", "5"],
            ["double-slit", "--format", "json"],
            ["propagate", "--format", "json"],
            ["error-analysis", "--format", "json"],
            ["gate-count", "--format", "json"],
            ["export-qasm", "--format", "json"],
            # error-analysis repeats the double slit only, at its z
            ["error-analysis", "--scenario", "gaussian-2d"],
            ["error-analysis", "--zr", "1"],
            ["error-analysis", "--scenario", "bogus"],
        ],
    )
    def test_removed_flags_rejected(self, tmp_path, argv):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--out", str(tmp_path / "run")])
        assert excinfo.value.code == 2
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["double-slit", *FAST_SLIT],
            ["gaussian-2d", *TestGaussianCommand.ARGS, "--format", "json"],
            ["error-analysis", *FAST_ERROR_SLIT],
            ["gate-count", "--qubits", "6"],
            ["export-qasm", "--qubits", "4", "--order", "3"],
            ["propagate", "--input", "FIELD", "--verify"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_written_config_reruns_byte_identical(self, tmp_path, argv):
        field = TestPropagateCommand().make_field(tmp_path)
        argv = [str(field) if arg == "FIELD" else arg for arg in argv]
        first, second = tmp_path / "run", tmp_path / "run2"
        assert main([*argv, "--out", str(first)]) == 0
        assert main([argv[0], "--config", str(first / "config.json"), "--out", str(second)]) == 0
        data, rerun = tree_bytes(first), tree_bytes(second)
        assert set(data) == set(rerun) and len(data) > 1
        for name in data:
            if name != "config.json":
                assert rerun[name] == data[name], name
        written = read_json(second / "config.json")
        assert written == {**read_json(first / "config.json"), "out": str(second)}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestPinnedBytes:
    """Deterministic CLI outputs, pinned by digest.

    Only Python-float and exact integer arithmetic feeds these files (no
    RNG, no FFT), so the digests hold on every platform.  A change here means
    the exported circuit or the gate-count report changed.
    """

    QASM = {
        1: "8588e562b2fe430d76b923bfec61b8c8933d53949997b7d625c59d1329341279",
        2: "2fda5733d882371a592112cf0224e56c8e9f3438e66713369fba641dc07b37d8",
        3: "42b89306d89361df97ffb60c40cd3ce2182324bf7488352a3832832ae01f21c1",
    }
    GATE_COUNT = {
        "15": (
            "f78c3115dd624a9198398e79e97775247f996a67ad4eca013d259bc91f9aa12f",
            "ce42a28b35566b5bc06c28ef8cd02102f72c7159fc08f2ab0d2c79626cbfbe50",
        ),
        "9 --order 3": (
            "1a6f1bfaff13a3ae0041d631b0da4a69f07ad445ed3051f64ab23567f92b3382",
            "77269987998687c11c43c9d46e139956a6eb85cb21d6b12124c791ea5ffe182e",
        ),
    }

    @pytest.mark.parametrize("order", sorted(QASM))
    def test_export_qasm(self, tmp_path, order):
        out = tmp_path / "run"
        assert main(["export-qasm", "--order", str(order), "--out", str(out)]) == 0
        assert _sha256((out / "qbpm_circuit.qasm").read_bytes()) == self.QASM[order]

    @pytest.mark.parametrize("args", sorted(GATE_COUNT))
    def test_gate_count(self, tmp_path, capsys, args):
        out = tmp_path / "run"
        assert main(["gate-count", "--qubits", *args.split(), "--out", str(out)]) == 0
        stdout_digest, json_digest = self.GATE_COUNT[args]
        assert _sha256(capsys.readouterr().out.encode()) == stdout_digest
        assert _sha256((out / "gate_count.json").read_bytes()) == json_digest
