"""Loaded by every ``python -m photonguide`` child of the cli_cold workload.

When ``PERFBENCH_REPORT_FD`` is set, the child writes one JSON object to that
file descriptor at exit: its own peak RSS (VmHWM, which a forked child does
not inherit from its parent, unlike ``ru_maxrss``), the modules this file and
the tracer imported (so that ``import.total_s`` leaves them out) and, when
``PERFBENCH_TRACE`` is set, the tracer's per-layer totals.
"""

import sys

_before = set(sys.modules)
import atexit  # noqa: E402
import os  # noqa: E402

_own = set(sys.modules) - _before | {"sitecustomize"}


def _report(fd, tracer):
    before = set(sys.modules)
    import json

    report = {"benchmark_modules": sorted(_own | (set(sys.modules) - before))}
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                report["vmhwm_kb"] = int(line.split()[1])
    if tracer is not None:
        report["trace"] = tracer.totals()
        report["fock_dim"] = tracer.fock_dim
        report["x_nnz"] = tracer.x_nnz
    os.write(fd, json.dumps(report).encode())
    os.close(fd)


def _start():
    fd = os.environ.pop("PERFBENCH_REPORT_FD", None)
    if fd is None:
        return
    tracer = None
    if os.environ.pop("PERFBENCH_TRACE", None):
        # The tracer wraps loaded modules.  photonguide has no function-level
        # imports, so every module loaded after this line is the tracer's.
        import photonguide.cli  # noqa: F401

        before = set(sys.modules)
        sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        from tracer import Tracer

        del sys.path[0]
        _own.update(set(sys.modules) - before)
        tracer = Tracer()
        tracer.install()
    atexit.register(_report, int(fd), tracer)


_start()
