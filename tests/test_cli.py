"""End-to-end tests of the command-line interface: determinism, output
formats, exit codes and config-file handling."""

import csv
import io
import json
import math
import subprocess
import sys

import pytest

CMD = [sys.executable, "-m", "photonguide"]


def run(*args, timeout=120):
    return subprocess.run(CMD + list(args), capture_output=True, text=True, timeout=timeout)


class TestDeterminism:
    def test_verify_byte_identical(self):
        args = ["verify", "--suite", "kinematics", "--seed", "42"]
        first = run(*args)
        second = run(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout  # non-empty

    def test_modes_byte_identical(self):
        args = ["modes", "--b1", "2", "--b2", "1", "--max-r", "3", "--max-s", "2"]
        assert run(*args).stdout == run(*args).stdout

    def test_csv_and_json_carry_identical_numbers(self):
        base = ["dispersion", "--b1", "3.14159", "--b2", "1.5", "--omega-min",
                "1.5", "--omega-max", "3.0", "--steps", "7"]
        as_csv = run(*base, "--format", "csv")
        as_json = run(*base, "--format", "json")
        assert as_csv.returncode == 0 and as_json.returncode == 0
        csv_rows = list(csv.DictReader(io.StringIO(as_csv.stdout)))
        json_rows = json.loads(as_json.stdout)
        assert len(csv_rows) == len(json_rows) == 7
        for crow, jrow in zip(csv_rows, json_rows):
            assert set(crow) == set(jrow)
            for key in crow:
                # 17 significant digits round-trip doubles exactly.
                assert float(crow[key]) == jrow[key]


class TestOutputs:
    def test_modes_sorted_by_cutoff(self):
        res = run("modes", "--b1", "2", "--b2", "1", "--max-r", "2", "--max-s", "2")
        rows = list(csv.DictReader(io.StringIO(res.stdout)))
        cutoffs = [float(r["omega_c"]) for r in rows]
        assert cutoffs == sorted(cutoffs)
        assert (rows[0]["r"], rows[0]["s"]) == ("1", "0")

    def test_modes_si_reference(self):
        res = run("modes", "--b1", "0.02286", "--b2", "0.01016", "--max-r", "1",
                  "--max-s", "0", "--si")
        row = next(csv.DictReader(io.StringIO(res.stdout)))
        assert abs(float(row["fc_hz"]) - 6.5566e9) / 6.5566e9 <= 1e-4

    def test_dispersion_first_row(self):
        res = run("dispersion", "--b1", "3.141592653589793", "--b2", "1.5707963267948966",
                  "--omega-min", "1.1", "--omega-max", "3.0", "--steps", "5")
        row = next(csv.DictReader(io.StringIO(res.stdout)))
        assert float(row["omega"]) == 1.1
        assert abs(float(row["vg"]) - 0.41659779045053102) <= 1e-12
        assert float(row["kg_residual"]) <= 1e-12

    def test_decompose_invariants_reported_zero(self):
        res = run("decompose", "--b1", "2", "--b2", "1", "--k3", "2.5",
                  "--azimuth", "0.7", "--format", "json")
        row = json.loads(res.stdout)[0]
        assert row["null_residual"] <= 1e-12
        assert row["ortho_residual"] <= 1e-12
        assert row["eta_norm_residual"] <= 1e-12

    def test_boost_preserves_norm(self):
        res = run("boost", "--t", "2", "--z", "1.7320508075688772", "--chi", "0.5",
                  "--format", "json")
        row = json.loads(res.stdout)[0]
        assert abs(row["norm2_before"] - row["norm2_after"]) <= 1e-12

    def test_tunneling_verdicts(self):
        res = run("tunneling", "--b1", "2", "--b2", "1", "--k3", "3",
                  "--new-b1", "2", "--new-b2", "1", "--format", "json")
        row = json.loads(res.stdout)[0]
        assert row["verdict"] == "Propagates"
        assert row["chi_star"] is None
        res = run("tunneling", "--b1", "2", "--b2", "1", "--k3", "3",
                  "--new-b1", "0.5", "--new-b2", "0.25", "--format", "json")
        row = json.loads(res.stdout)[0]
        assert row["verdict"] == "EvanescentInSomeFrame"
        assert row["chi_star"] is not None

    def test_tunneling_at_large_axial_wavenumber(self):
        # k3/m ~ 6e8: p/E rounds to 1, where artanh(p/E) used to raise.
        res = run("tunneling", "--b1", "2", "--b2", "1", "--k3", "1e9",
                  "--new-b1", "1.5", "--new-b2", "0.5", "--format", "json")
        assert res.returncode == 0 and res.stderr == ""
        row = json.loads(res.stdout)[0]
        assert row["verdict"] == "EvanescentInSomeFrame"
        assert math.isfinite(row["chi_star"])

    def test_out_flag_writes_file(self, tmp_path):
        target = tmp_path / "modes.csv"
        res = run("modes", "--b1", "2", "--b2", "1", "--out", str(target))
        assert res.returncode == 0 and res.stdout == ""
        assert target.read_text().startswith("r,s,omega_c")

    def test_svg_written(self, tmp_path):
        target = tmp_path / "chart.svg"
        res = run("dispersion", "--b1", "3.14159", "--b2", "1.5", "--omega-min", "1.5",
                  "--omega-max", "3.0", "--steps", "5", "--svg", str(target))
        assert res.returncode == 0
        text = target.read_text()
        assert text.startswith("<svg") and "polyline" in text


class TestExitCodes:
    def test_success_is_zero(self):
        assert run("verify", "--suite", "basis").returncode == 0

    def test_malformed_flag_is_two(self):
        assert run("modes", "--b1", "2").returncode == 2           # missing --b2
        assert run("modes", "--b1", "x", "--b2", "1").returncode == 2
        assert run("nonsense").returncode == 2

    def test_bad_physics_input_is_two(self):
        res = run("modes", "--b1", "-2", "--b2", "1")
        assert res.returncode == 2
        assert "error:" in res.stderr
        assert run("dispersion", "--b1", "2", "--b2", "1", "--omega-min", "0.5",
                   "--omega-max", "3").returncode == 2             # below cutoff
        assert run("decompose", "--b1", "2", "--b2", "1", "--r", "0",
                   "--k3", "1").returncode == 2                    # invalid index

    def test_verification_violation_is_one(self):
        # Hidden negative control: removing the spectral-weight term must make
        # the eigenvalue checks fail, and failure maps to exit code 1.
        res = run("verify", "--suite", "position", "--no-weight-term")
        assert res.returncode == 1
        assert "FAIL" in res.stdout

    def test_help_is_zero(self):
        assert run("--help").returncode == 0


class TestConfigFile:
    def test_config_sets_flags(self, tmp_path):
        cfg = tmp_path / "guide.cfg"
        cfg.write_text("b1 = 2\nb2 = 1\nmax_r = 1\nmax_s = 0  # lowest mode only\n")
        res = run("modes", "--config", str(cfg))
        assert res.returncode == 0
        rows = list(csv.DictReader(io.StringIO(res.stdout)))
        assert len(rows) == 1

    def test_cli_overrides_config(self, tmp_path):
        cfg = tmp_path / "guide.cfg"
        cfg.write_text("b1 = 2\nb2 = 1\nmax_r = 1\nmax_s = 0\n")
        res = run("modes", "--config", str(cfg), "--max-s", "1")
        rows = list(csv.DictReader(io.StringIO(res.stdout)))
        assert len(rows) == 2

    def test_missing_config_is_two(self):
        assert run("modes", "--config", "/no/such/file").returncode == 2

    def test_malformed_config_is_two(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a key value line\n")
        assert run("modes", "--config", str(cfg)).returncode == 2
