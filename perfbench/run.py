"""photonguide benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: photonguide is imported from the
checkout's ``src/`` and nowhere else.  The run sizes its op stream from
``--seconds`` (ops = seconds x the workload's nominal rate, so the same seed
and seconds always give the same ops), times each op, scales the times by
reference samples taken around them (see "Machine-speed references" below),
checks each output outside the timing, and prints human-readable lines
followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the first
half of the ops untraced and the second half traced, and reports the
per-layer metrics.  ``correct`` is false when an op fails in a way the
known-failure ledger (README.md) does not list; ledger failures still count
in ``failed``.
"""

from __future__ import annotations

import os
import sys

PINNED_THREADS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
os.environ.update(PINNED_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_build", "perfbench")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(1, SRC)

from workloads import WORKLOADS, OpFailure  # noqa: E402

# Modules the setup probes do not need (tracer, platform, importlib.metadata)
# are imported where they are used, so that setup_s is photonguide's cost.
SETUP_SAMPLES = 8  # spread over the run, after one untimed warm-up probe
IMPORT_SAMPLES = 3
P90_MIN_OPS = 100

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "momentum_basis.calls": "count",
    "momentum_basis.self_s": "s",
    "position_operator.calls": "count",
    "position_operator.self_s": "s",
    "position_operator.frame_evals": "count",
    "dirac_like.calls": "count",
    "dirac_like.self_s": "s",
    "second_quantization.build_s": "s",
    "second_quantization.apply_s": "s",
    "second_quantization.fock_dim": "count",
    "second_quantization.x_nnz": "count",
    "verify.basis_s": "s",
    "verify.position_s": "s",
    "verify.fock_s": "s",
    "verify.dirac_s": "s",
    "verify.kinematics_s": "s",
    "verify.self_s": "s",
    "proc.minor_faults": "count",
    "proc.sys_s": "s",
    "waveguide_kinematics.calls": "count",
    "waveguide_kinematics.self_s": "s",
    "import.total_s": "s",
    "import.numpy_s": "s",
    "import.scipy_sparse_s": "s",
    "import.photonguide_s": "s",
    "cli.main_s": "s",
    "output.render_s": "s",
    "trace.overhead_s": "s",
    "src.lines": "count",
}

# Machine-speed references.  On a shared VM the speed of this process drifts
# by up to 1.6x within seconds, and the drift is shared by all code of one
# kind.  A run therefore interleaves fixed reference work of its own with the
# ops, outside their timing, and scales each reported time t to
# t * nominal / r, where r is the median of the REF_HALF reference samples
# taken just before the op and the REF_HALF just after it (SETUP_REF_HALF for
# set-up probes).  An op longer than REF_EVERY_S gets as many samples before
# it as it spans, and r then takes those before it and those after it.  The
# reported times read as on a machine where the reference takes its nominal
# time, and they move only when the program's speed relative to the
# reference moves.
# Two references, because in-process compute and process start-up drift
# apart: a small-array numpy and Python loop for in-process ops, and a bare
# interpreter start for set-up and for cli_cold's child processes.
KERNEL_NOMINAL_S = 0.025
START_NOMINAL_S = 0.015
REF_HALF = 3
# A set-up probe takes as long as many ops, and interpreter starts scatter
# more than the kernel, so each probe gets more reference samples.
SETUP_REF_HALF = 4
REF_EVERY_S = 0.5  # nominal op time per reference sample
_REF_MATRIX = np.array([[0.6, -0.8, 0.1], [0.8, 0.6, -0.2], [0.1, 0.2, 0.97]])
_REF_VECTOR = np.array([1.0, 2.0, 3.0])


def kernel_sample() -> float:
    """Seconds the in-process reference kernel takes now: small-array numpy
    calls and plain Python arithmetic in a loop, like photonguide's
    per-point code."""
    x, acc, total = _REF_VECTOR, {}, 0.0
    start = time.perf_counter()
    for i in range(450):
        x = _REF_MATRIX @ x
        x = x / np.linalg.norm(x)
        acc[i & 63] = float(np.cross(x, _REF_VECTOR)[0])
    for i in range(15000):
        total += (i * 0.5) % 7.0
    return time.perf_counter() - start


def start_sample() -> float:
    """Seconds a bare interpreter (no site, no environment) takes from spawn
    to exit now."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)
    return time.perf_counter() - start


def scaled(times: list[float], before: list[int], ref: list[float], nominal: float,
           half: int) -> list[float]:
    """Each time scaled by the reference samples around it; ``before[j]`` is
    the number of samples taken before time j was measured."""
    return [t * nominal / statistics.median(ref[max(0, b - half):b + half])
            for t, b in zip(times, before)]


IMPORT_NAMES = {"numpy": "import.numpy_s", "scipy.sparse": "import.scipy_sparse_s",
                "photonguide": "import.photonguide_s"}


class BenchError(Exception):
    """The benchmark cannot run in this checkout."""


def child_env(report: bool = False) -> dict[str, str]:
    """Environment of a child interpreter.  With ``report``, the child loads
    ``child/sitecustomize.py``, which reports back to the benchmark."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, os.path.join(HERE, "child")] if report else [SRC])
    env.pop("PERFBENCH_REPORT_FD", None)
    env.pop("PERFBENCH_TRACE", None)
    return env


def import_program(workload) -> None:
    """Import photonguide for the workload and insist that it is this
    checkout's copy."""
    if not os.path.isfile(os.path.join(SRC, "photonguide", "__init__.py")):
        raise BenchError(f"no photonguide sources under {SRC}")
    workload.import_program()
    origin = os.path.realpath(sys.modules["photonguide"].__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError(f"photonguide was imported from {origin}, not from {SRC}")


def parse_importtime(stderr: str, skip=()) -> dict[str, float]:
    """Seconds per module group from ``-X importtime`` lines.  Modules named
    in ``skip`` were imported by the benchmark, not by the program, and do
    not count in ``import.total_s``."""
    out = {"import.total_s": 0.0}
    skip = set(skip)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        if name.strip() not in skip:
            out["import.total_s"] += int(self_us) / 1e6
        metric = IMPORT_NAMES.get(name.strip())
        if metric and metric not in out:
            out[metric] = int(cumulative_us) / 1e6
    for metric in IMPORT_NAMES.values():
        out.setdefault(metric, 0.0)
    return out


def setup_probe(args) -> float:
    """Seconds from spawning a fresh interpreter to ready for the first op."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    start = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT)
    if done.returncode != 0:
        raise BenchError(f"setup probe failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.split()[-1]) - start


def measure_imports(workload) -> dict[str, float]:
    """Median ``-X importtime`` figures of a fresh import of the workload's modules."""
    code = "; ".join(f"import {name}" for name in workload.setup_modules)
    runs = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              capture_output=True, text=True, env=child_env(), cwd=ROOT)
        if done.returncode != 0:
            raise BenchError(f"import probe failed: {done.stderr.strip()[-500:]}")
        runs.append(parse_importtime(done.stderr))
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def read_cpu_times() -> list[int]:
    with open("/proc/stat", encoding="ascii") as fh:
        return [int(v) for v in fh.readline().split()[1:]]


def rusage_sum(who_list):
    usages = [resource.getrusage(who) for who in who_list]
    return (sum(u.ru_minflt for u in usages), sum(u.ru_stime for u in usages),
            sum(u.ru_nivcsw for u in usages))


class Run:
    """Op loop state for one run."""

    def __init__(self, workload):
        self.workload = workload
        self.who = (resource.RUSAGE_SELF,) if workload.in_process else (resource.RUSAGE_CHILDREN,)
        self.times: list[float] = []
        self.traced_times: list[float] = []
        self.failed = Counter()  # ledger key (or None) -> failed ops
        self.failures: list[str] = []
        self.faults = 0
        self.sys_s = 0.0
        self.vmhwm_kb: list[int] = []
        self.child_trace: Counter = Counter()
        self.child_imports: list[dict[str, float]] = []
        self.child_maxima = {"fock_dim": 0, "x_nnz": 0}
        self.reference, self.nominal = ((kernel_sample, KERNEL_NOMINAL_S) if workload.in_process
                                        else (start_sample, START_NOMINAL_S))
        self.ref_every = max(1, round(REF_EVERY_S * workload.rate))  # ops per sampling point
        self.ref_batch = max(1, round(1.0 / (REF_EVERY_S * workload.rate)))  # samples per point
        self.ref: list[float] = []
        self.ref_before: list[int] = []  # per untraced op, reference samples taken before it
        self.traced_before: list[int] = []
        self.setup: list[float] = []
        self.setup_ref: list[float] = []
        self.setup_before: list[int] = []

    def setup_sample(self, args) -> None:
        for _ in range(SETUP_REF_HALF):
            self.setup_ref.append(start_sample())
        self.setup_before.append(len(self.setup_ref))
        self.setup.append(setup_probe(args))

    def finish(self) -> None:
        """The reference samples after the last op and the last set-up probe."""
        for _ in range(max(REF_HALF, self.ref_batch)):
            self.ref.append(self.reference())
        for _ in range(SETUP_REF_HALF if self.setup else 0):
            self.setup_ref.append(start_sample())

    def one(self, i: int, traced: bool) -> None:
        workload = self.workload
        if i % self.ref_every == 0:
            for _ in range(self.ref_batch):
                self.ref.append(self.reference())
        (self.traced_before if traced else self.ref_before).append(len(self.ref))
        err = io.StringIO()
        result = exc = None
        before = rusage_sum(self.who)
        with contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                result = workload.op(i)
            except Exception as caught:  # an op that raises is a failed op, never a crash
                exc = caught
            elapsed = time.perf_counter() - start
        after = rusage_sum(self.who)
        (self.traced_times if traced else self.times).append(elapsed)
        if not traced:
            self.faults += after[0] - before[0]
            self.sys_s += after[1] - before[1]
        self._check(i, result, exc, err.getvalue())

    def scaled_ops(self, traced: bool = False) -> list[float]:
        times, before = (self.traced_times, self.traced_before) if traced else (self.times, self.ref_before)
        return scaled(times, before, self.ref, self.nominal, max(REF_HALF, self.ref_batch))

    def _check(self, i, result, exc, stderr) -> None:
        workload = self.workload
        if exc is not None:
            self._fail(i, workload.classify_error(i, exc), f"{type(exc).__name__}: {exc}")
            return
        if not workload.in_process:
            if "vmhwm_kb" in result.report:
                self.vmhwm_kb.append(result.report["vmhwm_kb"])
            if "trace" in result.report:
                self.child_trace.update(result.report["trace"])
                for key in self.child_maxima:
                    self.child_maxima[key] = max(self.child_maxima[key], result.report[key])
                self.child_imports.append(parse_importtime(
                    result.stderr, result.report.get("benchmark_modules", ())))
        if stderr:
            self._fail(i, None, f"wrote to stderr: {stderr.strip()[-200:]!r}")
            return
        try:
            workload.check(i, result)
        except OpFailure as failure:
            self._fail(i, failure.ledger, str(failure))
        except Exception as caught:  # a malformed output that the check could not parse
            self._fail(i, None, f"check raised {type(caught).__name__}: {caught}")

    def _fail(self, i, ledger, message) -> None:
        self.failed[ledger] += 1
        self.failures.append(f"op {i} [{ledger or 'UNEXPECTED'}]: {message}")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted(values)[max(0, math.ceil(q * len(values)) - 1)]


def source_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "photonguide")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def end_to_end_metrics(workload, state: Run) -> dict[str, float]:
    if workload.in_process:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        peak_mb = max(state.vmhwm_kb) / 1024.0
    times = state.scaled_ops()
    setup = scaled(state.setup, state.setup_before, state.setup_ref, START_NOMINAL_S, SETUP_REF_HALF)
    print(f"wall setup_s {statistics.median(state.setup)!r} op_p50_s {statistics.median(state.times)!r} "
          f"ops_per_s {len(state.times) / sum(state.times)!r}")
    if len(times) >= P90_MIN_OPS:
        print(f"op_p90_s {percentile(times, 0.9)!r} s (n={len(times)}; wall {percentile(state.times, 0.9)!r} s)")
    else:
        print(f"op_p90_s not reported: {len(times)} ops < {P90_MIN_OPS}")
    return {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(times),
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": peak_mb,
    }


def per_layer_metrics(workload, state: Run, tracer) -> dict[str, float]:
    from tracer import Tracer

    times, traced = state.times, len(state.traced_times)
    if tracer is not None:
        totals = tracer.totals()
        maxima = {"fock_dim": tracer.fock_dim, "x_nnz": tracer.x_nnz}
        imports = measure_imports(workload)
    else:
        totals, maxima = state.child_trace, state.child_maxima
        imports = {key: statistics.median(r[key] for r in state.child_imports)
                   for key in state.child_imports[0]}
    metrics = {key: totals.get(key, 0.0) / traced for key in Tracer().totals()}
    metrics.update(imports)
    metrics["second_quantization.fock_dim"] = maxima["fock_dim"]
    metrics["second_quantization.x_nnz"] = maxima["x_nnz"]
    metrics["proc.minor_faults"] = state.faults / len(times)
    metrics["proc.sys_s"] = state.sys_s / len(times)
    metrics["trace.overhead_s"] = (statistics.median(state.scaled_ops(traced=True))
                                   - statistics.median(state.scaled_ops()))
    metrics["src.lines"] = source_lines()
    print(f"trace: {len(times)} untraced ops, {traced} traced ops; every rebound name restored: "
          f"{tracer.restored() if tracer else True}")
    return metrics


def run(args) -> int:
    workload = WORKLOADS[args.workload]
    n = workload.ops_for(args.seconds)
    os.makedirs(WORKDIR, exist_ok=True)
    warnings.simplefilter("always")  # every warning an op emits reaches stderr

    cpu_before = read_cpu_times()
    usage_before = rusage_sum((resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    if not args.trace:
        setup_probe(args)  # untimed: the first probe in a checkout compiles bytecode
    import_program(workload)
    workload.setup(args.seed, n, WORKDIR)
    if not workload.in_process:
        workload.child_env = child_env(report=True)

    state = Run(workload)
    n_plain = (n + 1) // 2 if args.trace else n
    probes = Counter() if args.trace else Counter(j * n // SETUP_SAMPLES for j in range(SETUP_SAMPLES))
    for i in range(n_plain):
        for _ in range(probes[i]):
            state.setup_sample(args)
        state.one(i, traced=False)
    tracer = None
    if args.trace:
        if workload.in_process:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        else:
            workload.child_env["PERFBENCH_TRACE"] = "1"
            workload.child_flags = ["-X", "importtime"]
        try:
            for i in range(n_plain, n):
                state.one(i, traced=True)
        finally:
            if tracer is not None:
                tracer.uninstall()
    state.finish()
    cpu_after = read_cpu_times()
    usage_after = rusage_sum((resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))

    failed = sum(state.failed.values())
    unexpected = state.failed[None]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"failed/attempted {failed}/{n}")
    ledger = " ".join(f"{key}={count}" for key, count in sorted(state.failed.items(), key=str) if key)
    print(f"ledger failures: {ledger or 'none'}; unexpected failures: {unexpected}")
    for line in state.failures[:20]:
        print("  " + line)
    if args.trace:
        metrics, units = per_layer_metrics(workload, state, tracer), PER_LAYER
    else:
        metrics, units = end_to_end_metrics(workload, state), END_TO_END

    import platform
    from importlib import metadata

    cpu = [b - a for a, b in zip(cpu_before, cpu_after)]
    env = {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in PINNED_THREADS},
        "steal_share": cpu[7] / max(1, sum(cpu[:8])),  # user nice system idle iowait irq softirq steal
        "involuntary_ctx_switches": usage_after[2] - usage_before[2],
        "photonguide": os.path.relpath(sys.modules["photonguide"].__file__, ROOT),
        "setup_samples_s": state.setup,
        "reference_s": {"median": statistics.median(state.ref), "min": min(state.ref),
                        "max": max(state.ref), "samples": len(state.ref)},
    }
    print("env " + json.dumps(env))
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            workload = WORKLOADS[args.workload]
            import_program(workload)
            workload.setup(args.seed, workload.ops_for(args.seconds), WORKDIR)
            print(time.monotonic())
            return 0
        return run(args)
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
