"""Lets the CLI subprocesses that the tests start import photonguide from
this checkout's src/, as ``pythonpath`` in pyproject.toml does for the test
process itself, and starts every test with the Fock layer's slot empty."""

import os
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *_paths])


@pytest.fixture(autouse=True)
def empty_fock_slot(monkeypatch):
    """Each test starts with no X built before it, so none passes or fails by
    the tables and plan an earlier test kept, in any file (see
    FockSpace.position_operators).  A module not yet imported has its slot
    empty already."""
    sq = sys.modules.get("photonguide.second_quantization")
    if sq is not None:
        monkeypatch.setattr(sq, "_slot", None)
