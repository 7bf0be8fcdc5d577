"""The import graph stays lazy: the kinematics subcommands load neither
numpy nor scipy, only the fock suite of ``verify`` loads scipy and the Fock
layer, the kinematics CLI loads neither ``dataclasses`` nor ``inspect``, and
a bare ``import photonguide`` loads no submodule and binds no public name:
each public name is imported from its module."""

import json
import subprocess
import sys

import pytest

import photonguide
from photonguide import cli, verify

# Runs in a fresh interpreter: optionally calls cli.main(argv), then reports
# on stderr the exit code, the loaded numpy/scipy/photonguide modules, and
# every module loaded after the probe's own imports ("new"), so that what
# the interpreter's site hooks load does not count.
PROBE = """
import json, sys
before = set(sys.modules)
{statement}
code = cli.main(json.loads(sys.argv[1])) if len(sys.argv) > 1 else None
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy", "photonguide"))
new = sorted(set(sys.modules) - before)
sys.stderr.write(json.dumps({{"code": code, "loaded": loaded, "new": new}}))
"""


def probe(statement, argv=None):
    cmd = [sys.executable, "-c", PROBE.format(statement=statement)]
    if argv is not None:
        cmd.append(json.dumps(argv))
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stderr)


KINEMATICS_ARGV = pytest.mark.parametrize("argv", [
    ["modes", "--b1", "2", "--b2", "1"],
    ["modes", "--b1", "0.02286", "--b2", "0.01016", "--si"],
    ["dispersion", "--b1", "2", "--b2", "1", "--omega-min", "2", "--omega-max", "6", "--steps", "5"],
    ["decompose", "--b1", "2", "--b2", "1", "--k3", "2.5"],
    ["boost", "--t", "3", "--z", "2", "--chi", "0.7"],
    ["tunneling", "--b1", "2", "--b2", "1", "--k3", "3", "--new-b1", "1.5", "--new-b2", "0.5"],
], ids=["modes", "modes-si", "dispersion", "decompose", "boost", "tunneling"])

# The kinematics records are named tuples, so a kinematics command does
# without dataclasses and the inspect, ast, dis and tokenize it imports.
NOT_FOR_KINEMATICS = {"dataclasses", "inspect"}


@KINEMATICS_ARGV
def test_kinematics_subcommands_load_no_numpy_scipy_dataclasses_or_inspect(argv):
    report = probe("from photonguide import cli", argv)
    assert report["code"] == 0
    assert not [m for m in report["loaded"] if not m.startswith("photonguide")]
    assert NOT_FOR_KINEMATICS.isdisjoint(report["new"])


@pytest.mark.parametrize("suite", ["basis", "position", "dirac", "kinematics"])
def test_non_fock_verify_suites_load_no_scipy_or_fock_layer(suite, tmp_path):
    report = probe("from photonguide import cli", ["verify", "--suite", suite, "--out", str(tmp_path / "out")])
    assert report["code"] == 0
    assert not [m for m in report["loaded"] if m.split(".")[0] == "scipy" or m == "photonguide.second_quantization"]


def test_fock_verify_suite_loads_scipy_sparse(tmp_path):
    report = probe("from photonguide import cli", ["verify", "--suite", "fock", "--out", str(tmp_path / "out")])
    assert report["code"] == 0
    assert {"scipy.sparse", "photonguide.second_quantization"} <= set(report["loaded"])


def test_importing_the_cli_loads_no_numpy_scipy_dataclasses_or_inspect():
    report = probe("import photonguide.cli")
    assert not [m for m in report["loaded"] if not m.startswith("photonguide")]
    assert NOT_FOR_KINEMATICS.isdisjoint(report["new"])


def test_importing_the_package_loads_no_submodule_and_binds_no_name():
    # A failed assert in the probe fails the test with the names it bound.
    report = probe("import photonguide\n"
                   "public = [n for n in vars(photonguide) if not n.startswith('_')]\n"
                   "assert not public, public")
    assert report["loaded"] == ["photonguide"]


def test_suite_choices_match_verify():
    assert cli.SUITE_NAMES == tuple(verify.SUITES)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        photonguide.no_such_name
    assert not hasattr(photonguide, "numpy")
