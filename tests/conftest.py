"""Lets the CLI subprocesses that the tests start import photonguide from
this checkout's src/, as ``pythonpath`` in pyproject.toml does for the test
process itself."""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *_paths])
