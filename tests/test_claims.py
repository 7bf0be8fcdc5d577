"""The claim ledger: tests/claims.json files every check of ``verify --suite
all`` under the one sentence of the abstract (PAPER.md) that it supports, and
names the ROADMAP items that will add to each claim.  A change that adds a
check must file it; the README's table is rendered from the file."""

import json
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CLAIMS = json.loads((ROOT / "tests" / "claims.json").read_text(encoding="utf-8"))["claims"]
CHECKS = [line.split()[1] for line in (ROOT / "tests" / "verify_all_seed0.txt").read_text().splitlines()
          if line.startswith(("PASS ", "FAIL "))]


def suite(name: str) -> str:
    return name.split(".", 1)[0]


def check_cell(checks: list[str]) -> str:
    """The count, then the checks in verify's order, a suite filed whole under
    the claim as ``suite.*``."""
    parts = []
    for name in CHECKS:
        whole = {c for c in CHECKS if suite(c) == suite(name)}
        part = f"`{suite(name)}.*`" if whole <= set(checks) else f"`{name}`"
        if name in checks and part not in parts:
            parts.append(part)
    return f"{len(checks)}: " + ", ".join(parts)


def ledger_table() -> str:
    rows = ["| claim (PAPER.md) | checks | what they show | open items |", "|---|---|---|---|"]
    rows += [f"| {c['claim']}. “{c['sentence']}” | {check_cell(c['checks'])} | {c['shows']} | "
             f"{', '.join(str(item) for item in c['open_items'])} |" for c in CLAIMS]
    return "\n".join(rows) + "\n"


def test_every_check_is_filed_under_exactly_one_claim():
    filed = Counter(name for claim in CLAIMS for name in claim["checks"])
    assert {name: filed[name] for name in CHECKS if filed[name] != 1} == {}


def test_every_filed_check_exists():
    assert [name for claim in CLAIMS for name in claim["checks"] if name not in CHECKS] == []


def test_each_claim_quotes_the_abstract():
    abstract = (ROOT / "PAPER.md").read_text(encoding="utf-8")
    assert [claim["claim"] for claim in CLAIMS] == ["C1", "C2", "C3", "C4"]
    for claim in CLAIMS:
        assert claim["sentence"] in abstract, claim["claim"]
        assert claim["open_items"] and all(isinstance(item, int) for item in claim["open_items"])


def test_readme_table_is_the_ledger():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert ledger_table() in readme
