"""CLI output pinned byte for byte: each case in cli_golden.json holds an
argv, the files it needs, and the exit code, stdout, package ``error:``
lines and written files that ``cli.main`` produced for it.  argparse's own
usage text is not stored, because it differs between Python versions.

    python tests/test_cli_golden.py            # check every case
    python tests/test_cli_golden.py --kinematics   # only the numpy-free cases
    python tests/test_cli_golden.py --write    # regenerate cli_golden.json

The last form rewrites the file from the current code; use it only where
an output change is intended.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().with_name("cli_golden.json")
SRC = Path(__file__).resolve().parents[1] / "src"

GUIDE = ["--b1", "2", "--b2", "1"]
WR90 = ["--b1", "0.02286", "--b2", "0.01016", "--si"]
SWEEP = ["dispersion", "--b1", "3.14159", "--b2", "1.5708", "--omega-min", "1.1",
         "--omega-max", "3", "--steps", "5"]
SWEEP_SI = ["dispersion", *WR90, "--omega-min", "7e9", "--omega-max", "1.2e10", "--steps", "4"]
RECORDS = [
    ["modes", *GUIDE, "--max-r", "3", "--max-s", "2"],
    ["modes", *WR90, "--max-r", "2", "--max-s", "1"],
    SWEEP,
    SWEEP_SI,
    ["decompose", *GUIDE, "--k3", "2.5", "--azimuth", "0.3"],
    ["boost", "--t", "2", "--z", "1.732", "--chi", "0.5"],
    ["tunneling", *GUIDE, "--k3", "5", "--new-b1", "0.5", "--new-b2", "0.25"],
    ["tunneling", *GUIDE, "--k3", "3", "--new-b1", "1.5", "--new-b2", "0.5"],
]
CFG = {"guide.cfg": "b1 = 2\nb2 = 1  # sides\nmax_r = 2\nsi = false\n"}

# Each case: (argv, files to create before the run, in latin-1).
CASES = [(argv + ["--format", fmt], {}) for argv in RECORDS for fmt in ("csv", "json")] + [
    (["modes", "--b1", "1", "--b2", "2", "--max-r", "0"], {}),
    (SWEEP + ["--svg", "chart.svg"], {}),
    (SWEEP_SI + ["--svg", "chart.svg", "--format", "json"], {}),
    (["modes", *GUIDE, "--out", "modes.csv"], {}),
    (["modes", "--config", "guide.cfg"], CFG),
    (["modes", "--config=guide.cfg", "--max-s", "1", "--format", "json"], CFG),
    # Exit 2: bad input.
    (["modes", "--b1", "inf", "--b2", "1"], {}),
    (["boost", "--t", "nan", "--chi", "0"], {}),
    (["boost", "--t", "1", "--chi", "1000"], {}),
    (["boost", "--t", "1e200", "--chi", "0"], {}),
    (["modes", "--b1", "1e-320", "--b2", "1e-320"], {}),
    (["dispersion", "--b1", "2", "--b2", "1e-160", "--s", "1", "--omega-min", "1e161",
      "--omega-max", "2e161", "--steps", "3"], {}),
    (["dispersion", *GUIDE, "--omega-min", "1", "--omega-max", "3"], {}),
    (["dispersion", *GUIDE, "--omega-min", "2", "--omega-max", "3", "--steps", "1"], {}),
    (["modes", "--config", "missing.cfg"], {}),
    (["modes", "--config", "latin1.cfg"], {"latin1.cfg": "b1 = 2\xff\nb2 = 1\n"}),
    (["modes", "--config", "bad.cfg"], {"bad.cfg": "b1 2\n"}),
    (["--config", "guide.cfg"], CFG),
    (["modes", *GUIDE, "--config"], {}),
    (["verify", "--seed", "-1"], {}),
    (["verify", "--suite", "basis", "--seed", "0", "--format", "json"], {}),
]


def run_case(argv, files):
    """Run ``cli.main(argv)`` in a fresh directory holding ``files``; return
    what the golden file records for it."""
    from photonguide import cli

    cwd = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_bytes(text.encode("latin-1"))
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        finally:
            os.chdir(cwd)
        written = {path.name: path.read_bytes().decode("utf-8")
                   for path in sorted(Path(tmp).iterdir()) if path.name not in files}
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
    return {"argv": list(argv), "files": files, "exit": code, "stdout": out.getvalue(),
            "errors": errors, "written": written}


def golden_cases():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case():
    assert [[c["argv"], c["files"]] for c in golden_cases()] == [list(c) for c in CASES]


def test_cli_output_matches_golden():
    for case in golden_cases():
        assert run_case(case["argv"], case["files"]) == case


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    if "--write" in sys.argv:
        records = [run_case(argv, files) for argv, files in CASES]
        GOLDEN.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
        sys.exit(0)
    cases = golden_cases()
    if "--kinematics" in sys.argv:
        cases = [c for c in cases if c["argv"][0] != "verify"]
    bad = [c["argv"] for c in cases if run_case(c["argv"], c["files"]) != c]
    print(f"{len(cases) - len(bad)}/{len(cases)} golden CLI cases match", *bad, sep="\n")
    sys.exit(1 if bad else 0)
