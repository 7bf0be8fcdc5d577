"""End-to-end tests of the command-line interface: determinism, output
formats, exit codes and config-file handling."""

import csv
import io
import json
import math
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from photonguide import cli

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


class TestVerifyFormats:
    def test_text_json_and_csv_carry_the_same_checks(self, capsys):
        argv = ["verify", "--suite", "dirac", "--seed", "0"]
        assert cli.main(argv) == 0
        text = capsys.readouterr().out.splitlines()
        assert text[-1] == "8/8 checks passed"
        expected = []
        for line in text[:-1]:
            status, name, residual, _, tol = line.split()
            expected.append({"check": name, "status": status,
                             "residual": float(residual.split("=")[1]), "tol": float(tol.split("=")[1])})

        assert cli.main(argv + ["--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert records == expected

        assert cli.main(argv + ["--format", "csv"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [{**row, "residual": float(row["residual"]), "tol": float(row["tol"])} for row in rows] == expected

    def test_json_keeps_the_violation_exit_code(self, capsys):
        assert cli.main(["verify", "--suite", "position", "--no-weight-term", "--format", "json"]) == 1
        records = json.loads(capsys.readouterr().out)
        failed = {r["check"] for r in records if r["status"] == "FAIL"}
        assert "position.eigenvalue_residual" in failed


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

    def test_si_output_is_pinned(self, capsys):
        # Frozen output: the hertz conversions keep their operation order.
        assert cli.main(["modes", "--b1", "0.02286", "--b2", "0.01016", "--max-r", "2",
                         "--max-s", "1", "--si"]) == 0
        assert capsys.readouterr().out == (
            "r,s,fc_hz,lambda_com_m\n"
            "1,0,6557140376.2029743,0.0072765639981614552\n"
            "2,0,13114280752.405949,0.0036382819990807276\n"
            "1,1,16145085787.909729,0.0029552925403530349\n"
            "2,1,19739606501.616455,0.0024171429956550664\n"
        )
        assert cli.main(["dispersion", "--b1", "0.02286", "--b2", "0.01016", "--omega-min", "7e9",
                         "--omega-max", "1.2e10", "--steps", "4", "--si"]) == 0
        assert capsys.readouterr().out == (
            "f_hz,k3_per_m,vg_mps,vp_mps,lambda_g_m,kg_residual\n"
            "7000000000,51.354233955758041,104939684.16456361,856449288.83854246,0.12234989840550607,3.637978807091713e-12\n"
            "8666666666.666666,118.77178184960724,196030079.56286263,458478199.23401403,0.052901330680847777,3.637978807091713e-12\n"
            "10333333333.333334,167.38138971977409,231701191.83725879,387894068.04954255,0.037538135617697664,3.637978807091713e-12\n"
            "12000000000,210.63389501112908,251077936.19482985,357958645.17518067,0.029829887097931728,3.637978807091713e-12\n"
        )

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

    def test_decompose_prints_one_sign_for_a_negative_zero_k3(self):
        res = run("decompose", "--b1", "2", "--b2", "1", "--k3", "-0")
        row = next(csv.DictReader(io.StringIO(res.stdout)))
        assert res.returncode == 0
        assert row["kz"] == row["p"] == "0"

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

    @pytest.mark.parametrize("ordered, swapped", [
        (["modes", "--b1", "2", "--b2", "1"], ["modes", "--b1", "1", "--b2", "2"]),
        (["tunneling", "--b1", "2", "--b2", "1", "--k3", "3", "--new-b1", "0.5", "--new-b2", "0.25"],
         ["tunneling", "--b1", "1", "--b2", "2", "--k3", "3", "--new-b1", "0.25", "--new-b2", "0.5"]),
    ])
    def test_swapped_sides_are_ordered_silently(self, ordered, swapped, capsys):
        assert cli.main(ordered) == 0
        expected = capsys.readouterr().out
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(swapped) == 0
        out, err = capsys.readouterr()
        assert caught == [] and err == ""
        assert out == expected

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

    def test_svg_write_failure_prints_no_records(self, tmp_path):
        res = run("dispersion", "--b1", "3.14159", "--b2", "1.5", "--omega-min", "1.5",
                  "--omega-max", "3.0", "--steps", "5", "--svg", str(tmp_path))
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1

    def test_rejected_records_write_no_chart(self, tmp_path):
        # k3 overflows at the top of the sweep: the records are rejected
        # before the chart, which would hold nan, is written.
        target = tmp_path / "chart.svg"
        res = run("dispersion", "--b1", "2", "--b2", "1", "--omega-min", "2", "--omega-max", "1e200",
                  "--steps", "3", "--svg", str(target))
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == "error: record 1: k3 = inf is not finite\n"
        assert not target.exists()


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

    @pytest.mark.parametrize("argv", [
        ["modes", "--b1", "inf", "--b2", "1"],
        ["modes", "--b1", "1e999", "--b2", "1"],
        ["dispersion", "--b1", "2", "--b2", "1", "--omega-min", "2", "--omega-max", "nan"],
        ["decompose", "--b1", "2", "--b2", "1", "--k3", "nan"],
        ["boost", "--t", "2", "--z", "1", "--chi", "1000"],
        ["verify", "--suite", "position", "--h", "-1"],
    ])
    def test_non_finite_and_overflowing_input_is_two(self, argv, capsys):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["boost", "--t", "1e200", "--chi", "0"],
        ["boost", "--t", "2", "--z", "1", "--chi", "700"],
        ["decompose", "--b1", "2", "--b2", "1", "--k3", "1e200"],
        ["modes", "--b1", "1e-320", "--b2", "1e-320"],
    ])
    def test_non_finite_result_is_two(self, argv, capsys):
        # Finite inputs whose results overflow: nothing is printed, and the
        # one-line error names the field and the record.
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: record 0: ") and "not finite" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_critical_rapidity_past_the_float_range_of_p_over_m_is_zero(self, capsys):
        # m = pi * 1e-300 and p = 1e300, so p/m overflows a float; chi* itself
        # is about 689.63 and is printed.
        argv = ["tunneling", "--b1", "1e300", "--b2", "1e300", "--k3", "1e300", "--new-b1", "1", "--new-b2", "1",
                "--format", "json"]
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        row = json.loads(out)[0]
        assert row["verdict"] == "EvanescentInSomeFrame"
        assert abs(row["chi_star"] - 689.6307980123643) <= 1e-9

    def test_negative_seed_is_two(self, capsys):
        # numpy seeds are non-negative: argparse rejects the flag, so no
        # traceback and no exit 1, which means a failed check.
        assert cli.main(["verify", "--suite", "basis", "--seed", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("error:") == 1 and "--seed" in err and "Traceback" not in err

    def test_nan_residual_is_a_failed_check(self, capsys):
        # A step so small that the difference quotients are nan fails the
        # eigenvalue checks instead of passing them with residual 0, and
        # numpy warns of nothing on stderr.
        assert cli.main(["verify", "--suite", "position", "--h", "1e-320"]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        lines = out.splitlines()
        for name in ("position.eigenvalue_residual", "position.eigenvalue_order_dev"):
            assert any(line.startswith(f"FAIL {name} residual=nan ") for line in lines), name

    @pytest.mark.parametrize("suite", ["position", "all"])
    def test_step_whose_half_underflows_is_named_as_given(self, suite, capsys):
        # 5e-324 is the smallest subnormal, so the order check's h/2 rounds
        # to 0.0: the one error line names the h the user gave, not 0.0.
        assert cli.main(["verify", "--suite", suite, "--h", "5e-324"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: step h=5e-324 is too small: the order check's step h/2 underflows to 0.0\n"

    @pytest.mark.parametrize("h", ["1e155", "1e200", "1e300"])
    def test_step_past_the_stencil_range_is_one_error_line(self, h, capsys):
        # The seam guard rejects such a step before any stencil point or
        # norm is formed, so numpy has no overflow to warn of: stderr is the
        # one error line, and the exit is that of bad input.
        assert cli.main(["verify", "--suite", "position", "--h", h]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: stencil at k=") and err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_nan_residual_is_a_failed_record(self, fmt, capsys):
        # The records are printed, with the nan residual as an empty value,
        # and the exit code is that of a failed check, not of bad input.
        assert cli.main(["verify", "--suite", "position", "--h", "1e-320", "--format", fmt]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        if fmt == "json":
            rows = json.loads(out)
        else:
            rows = list(csv.DictReader(io.StringIO(out)))
        by_name = {row["check"]: row for row in rows}
        for name in ("position.eigenvalue_residual", "position.eigenvalue_order_dev"):
            assert by_name[name]["status"] == "FAIL"
            assert by_name[name]["residual"] == (None if fmt == "json" else "")

    @pytest.mark.parametrize("argv", [
        # m ** 2 overflows inside klein_gordon_residual.
        ["dispersion", "--b1", "2", "--b2", "1e-160", "--s", "1", "--omega-min", "1e161",
         "--omega-max", "2e161", "--steps", "3"],
        # The Hz -> rad/m conversion overflows to inf, and the sweep then steps through nan.
        ["dispersion", "--b1", "1", "--b2", "1", "--si", "--omega-min", "1.7976931348623157e308",
         "--omega-max", "0", "--steps", "2"],
    ])
    def test_overflow_inside_a_command_is_two(self, argv, capsys):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["decompose", "--b1", "2", "--b2", "1", "--k3", "1", "--r"],
        ["dispersion", "--b1", "2", "--b2", "1", "--omega-min", "3", "--omega-max", "4", "--r"],
        ["tunneling", "--b1", "2", "--b2", "1", "--k3", "1", "--new-b1", "1", "--new-b2", "1", "--new-r"],
    ])
    def test_index_past_the_float_range_is_one_error_line(self, argv, capsys):
        # The mode's constructor computes the cutoff, so the 400-digit index
        # overflows there, before any record is formed.
        assert cli.main([*argv, "1" * 400]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: a result overflowed a float: int too large to convert to float\n"

    def test_tolerance_override_is_gone(self, capsys):
        # Rewriting every tolerance would let a broken operator exit 0.
        assert cli.main(["verify", "--suite", "basis", "--tol", "1"]) == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def test_verification_violation_is_one(self):
        # Hidden negative control: removing the spectral-weight term must make
        # the eigenvalue checks fail, and failure maps to exit code 1.
        res = run("verify", "--suite", "position", "--no-weight-term")
        assert res.returncode == 1
        assert "FAIL" in res.stdout

    def test_failed_check_prints_the_relation_that_holds(self):
        # A failed upper-bound check exceeds its tolerance and must say so.
        res = run("verify", "--suite", "position", "--no-weight-term")
        line = next(l for l in res.stdout.splitlines() if l.startswith("FAIL position.eigenvalue_residual "))
        assert " > tol=" in line and "<=" not in line
        for line in res.stdout.splitlines()[:-1]:
            status, _, residual, relation, tol = line.split()
            holds = float(residual.split("=")[1]) > float(tol.split("=")[1])
            assert relation == (">" if holds else "<=")

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

    def test_config_not_utf8_is_two(self, tmp_path):
        cfg = tmp_path / "utf16.cfg"
        cfg.write_bytes(b"\xff\xfe" + "b1 = 2\n".encode("utf-16-le"))
        res = run("modes", "--config", str(cfg))
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == f"error: {cfg}: not UTF-8 text\n"

    @pytest.mark.parametrize("line, message", [
        ("bogus_flag = false", "only a switch can be false, and bogus_flag is not a switch of modes"),
        ("max_r = false", "only a switch can be false, and max_r is not a switch of modes"),
        ("config = other.cfg", "a config file cannot name another config file"),
    ])
    def test_config_line_rejected(self, line, message, tmp_path, monkeypatch, capsys):
        # false can only leave a switch unset, and a nested config file would
        # be spliced in as a --config flag that nothing reads.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "other.cfg").write_text("max_r = 1\n")
        (tmp_path / "guide.cfg").write_text(f"b1 = 2\nb2 = 1\n{line}\n")
        assert cli.main(["modes", "--config", "guide.cfg"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: guide.cfg:3: {message}\n"


def readme_cli_commands():
    """The ``photonguide …`` lines of the sh block under ``## CLI`` in
    README.md, with backslash continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("photonguide ")]


class TestReadmeExamples:
    def test_finds_every_example(self):
        commands = readme_cli_commands()
        assert [argv[0] for argv in commands] == [
            "modes", "modes", "dispersion", "decompose", "boost", "tunneling", "verify"]
        assert commands[2][-2:] == ["--svg", "dispersion.svg"]

    @pytest.mark.parametrize("argv", readme_cli_commands(), ids=lambda argv: " ".join(argv))
    def test_example_runs(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out
