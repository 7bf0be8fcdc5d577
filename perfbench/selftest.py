"""Smoke test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload briefly, untraced and traced, and asserts that:

- every metric BENCHMARK.json names is printed by name with its unit, both
  as a text line and in the final JSON line, and nothing else is;
- ``failed/attempted`` is printed and agrees with the JSON;
- photonguide was imported from this checkout's ``src/``;
- a traced run restores every name it rebinds, and each layer reads zero on
  the workloads that never call it and non-zero on those that do;
- in a directory holding only BENCHMARK.json and the benchmark, a run fails
  without printing a result.

It also installs the tracer in-process and checks, name by name, that every
binding it rebinds (including ``from .x import f`` names and ``verify.SUITES``)
is wrapped while installed and restored afterwards.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics that must be non-zero (True) or exactly zero (False).
LAYER_PATTERN = {
    "verify_all": {"momentum_basis.calls": True, "second_quantization.build_s": True,
                   "verify.fock_s": True, "cli.main_s": True, "waveguide_kinematics.calls": True},
    "fock_build": {"momentum_basis.calls": False, "second_quantization.build_s": True,
                   "second_quantization.apply_s": True, "verify.self_s": False, "cli.main_s": False,
                   "waveguide_kinematics.calls": False},
    "point_calls": {"momentum_basis.calls": True, "position_operator.frame_evals": True,
                    "second_quantization.build_s": False, "verify.self_s": False, "cli.main_s": False,
                    "waveguide_kinematics.calls": True},
    "cli_cold": {"momentum_basis.calls": False, "second_quantization.build_s": False,
                 "verify.self_s": False, "cli.main_s": True, "output.render_s": True,
                 "import.scipy_sparse_s": True},
}


def check(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(message)


def run_bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(bench: dict, workload: str, trace: int) -> None:
    done = run_bench(ROOT, workload, trace)
    check(done.returncode == 0, f"{workload} trace {trace} exited {done.returncode}: {done.stderr[-1000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"bad result keys {sorted(result)}")
    check(result["attempted"] >= 1, "nothing attempted")
    check(f"failed/attempted {result['failed']}/{result['attempted']}" in lines,
          f"{workload}: failed/attempted line missing or disagrees")
    expected = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == expected, f"{workload} trace {trace}: metrics {got} != {expected}")
    for name, unit in expected.items():
        check(any(re.fullmatch(rf"{re.escape(name)} \S+ {re.escape(unit)}", line) for line in lines),
              f"{workload}: no text line for {name} in {unit}")
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    check(env["photonguide"] == os.path.join("src", "photonguide", "__init__.py"),
          f"photonguide imported from {env['photonguide']}")
    if trace:
        check(any(line.endswith("every rebound name restored: True") for line in lines),
              f"{workload}: tracer did not restore every rebound name")
        values = {name: m["value"] for name, m in result["metrics"].items()}
        for name, nonzero in LAYER_PATTERN[workload].items():
            check((values[name] != 0) == nonzero, f"{workload}: {name} = {values[name]}, expected "
                  + ("non-zero" if nonzero else "zero"))
    print(f"ok  {workload} trace {trace}: {result['failed']}/{result['attempted']} failed, correct {result['correct']}")


def check_tracer_in_process() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import photonguide.cli  # noqa: F401
    from photonguide import dirac_like, verify
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        check(hasattr(photonguide.cli.main, "__wrapped__"), "cli.main not wrapped")
        check(all(hasattr(fn, "__wrapped__") for fn in verify.SUITES.values()), "verify.SUITES not wrapped")
        check(hasattr(verify.eigenvalue_residual, "__wrapped__"), "from-import in verify not rebound")
        check(hasattr(dirac_like.spinor_f, "__wrapped__"), "from-import in dirac_like not rebound")
        rebound = list(tracer.rebound)
        check(len(rebound) > 100, f"only {len(rebound)} names rebound")
    finally:
        tracer.uninstall()
    check(tracer.restored(), "a rebound name was not restored")
    for container, key, original in rebound:
        current = container[key] if isinstance(container, dict) else container.__dict__[key]
        check(current is original, f"{key} not restored")
    print(f"ok  tracer: {len(rebound)} names rebound and restored")


def check_bare_directory(bench: dict) -> None:
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run_bench(bare, bench["workloads"][0]["name"], 0)
        check(done.returncode != 0, "a run without src/ succeeded")
        check('"metrics"' not in done.stdout, "a run without src/ printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  bare directory: exits non-zero without a result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    check_tracer_in_process()
    check_bare_directory(bench)
    for workload in bench["workloads"]:
        for trace in (0, 1):
            check_run(bench, workload["name"], trace)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
