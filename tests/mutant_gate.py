"""The mutant gate: ``photonguide verify`` must fail on a wrongly spelled formula.

Each mutant in mutants.json replaces one exact text, found once in its module
of src/photonguide/, by another.  For each, a temporary copy of src/ gets the
mutant and ``python -m photonguide verify --suite all --seed 0`` runs on it.
The gate requires verify to fail (exit 1 with FAIL lines) on every mutant but
the listed survivors, and to pass on those, so that the survivor set only
shrinks, in the change that makes verify kill one.  An unmutated copy must
pass first.  The gate ends by naming the checks that no listed mutant fails,
and requires them to be the unkilled map's, so that map, too, only shrinks.

    python tests/mutant_gate.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = Path(__file__).resolve().parent / "mutants.json"
VERIFY = ["-m", "photonguide", "verify", "--suite", "all", "--seed", "0"]


def load() -> tuple[list[dict], dict, dict]:
    """The mutants, the survivor set {name: why verify passes it} and the
    unkilled map {check: why no listed mutant fails it}."""
    with open(MUTANTS, encoding="utf-8") as fh:
        listed = json.load(fh)
    return listed["mutants"], listed["survivors"], listed["unkilled"]


def apply(package: Path, mutant: dict) -> None:
    """Rewrite the mutant's module under package, requiring its old text once."""
    path = package / mutant["file"]
    text = path.read_text(encoding="utf-8")
    found = text.count(mutant["old"])
    if found != 1:
        raise ValueError(f"{mutant['name']}: {mutant['old']!r} occurs {found} times in {path.name}")
    path.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")


def fresh_copy(package: Path) -> None:
    """package as a copy of src/photonguide/, replacing what it held."""
    shutil.rmtree(package, ignore_errors=True)
    shutil.copytree(ROOT / "src" / "photonguide", package, ignore=shutil.ignore_patterns("__pycache__"))


def run_verify(src: Path) -> tuple[int, list[str], list[str]]:
    """verify's exit status on the package under src, the checks it printed
    and those it failed."""
    env = dict(os.environ, PYTHONPATH=str(src))
    res = subprocess.run([sys.executable, *VERIFY], capture_output=True, text=True, env=env, cwd=src.parent,
                         timeout=300)
    checks = [line.split()[:2] for line in res.stdout.splitlines() if line.startswith(("PASS ", "FAIL "))]
    return res.returncode, [name for _, name in checks], [name for verdict, name in checks if verdict == "FAIL"]


def unkilled_errors(checks: list[str], ever_failed: set[str], unkilled: dict) -> list[str]:
    """The gate's errors for the checks that no listed mutant fails: each
    must be in the unkilled map, and each check in the map must be one."""
    errors = [f"{name}: no listed mutant fails it, and it is not in the unkilled map"
              for name in checks if name not in ever_failed and name not in unkilled]
    return errors + [f"{name}: a listed mutant fails it, so it leaves the unkilled map"
                     for name in unkilled if name in ever_failed]


def main() -> int:
    mutants, survivors, unkilled = load()
    unknown = set(survivors) - {m["name"] for m in mutants}
    if unknown:
        print(f"survivors not in the mutant list: {sorted(unknown)}")
        return 1
    errors, ever_failed = [], set()
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        package = src / "photonguide"
        fresh_copy(package)
        where = subprocess.run([sys.executable, "-c", "import photonguide; print(photonguide.__file__)"],
                               capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                               cwd=tmp, check=True)
        if Path(where.stdout.strip()).parent != package:
            print(f"the child imports photonguide from {where.stdout.strip()}, not from the copy")
            return 1
        status, checks, failed = run_verify(src)
        if status != 0:
            print(f"verify fails on the unmutated copy (exit {status}): {failed}")
            return 1
        for mutant in mutants:
            fresh_copy(package)
            apply(package, mutant)
            status, _, failed = run_verify(src)
            ever_failed.update(failed)
            killed = status == 1 and bool(failed)
            verdict = "killed" if killed else "survived" if status == 0 else f"error (exit {status})"
            print(f"{mutant['name']:<32} {verdict:<9} {', '.join(failed)}")
            if not (killed or status == 0):
                errors.append(f"{mutant['name']}: verify exited {status} without a failed check")
            elif killed and mutant["name"] in survivors:
                errors.append(f"{mutant['name']}: killed, so it leaves the survivor set")
            elif not killed and mutant["name"] not in survivors:
                errors.append(f"{mutant['name']}: verify passes it")
    print(f"{sum(1 for m in mutants if m['name'] not in survivors)} must be killed, "
          f"{len(survivors)} listed survivors")
    unfailed = [name for name in checks if name not in ever_failed]
    print(f"{len(unfailed)} of {len(checks)} checks fail under no listed mutant: {', '.join(unfailed)}")
    errors += unkilled_errors(checks, ever_failed, unkilled)
    for error in errors:
        print("MUTANT GATE:", error)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
