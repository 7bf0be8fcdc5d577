"""The mutant list of tests/mutant_gate.py against the source it mutates, and
its unkilled map against verify's checks: the gate itself runs verify once
per mutant, in CI."""

from pathlib import Path

import mutant_gate

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "photonguide"


def test_each_mutant_spells_text_found_once():
    mutants, survivors, _ = mutant_gate.load()
    names = [m["name"] for m in mutants]
    assert len(set(names)) == len(names) and set(survivors) <= set(names)
    for mutant in mutants:
        assert mutant["new"] != mutant["old"], mutant["name"]
        assert (PACKAGE / mutant["file"]).read_text(encoding="utf-8").count(mutant["old"]) == 1, mutant["name"]


def test_each_unkilled_name_is_a_check():
    checks = {line.split()[1] for line in (ROOT / "tests" / "verify_all_seed0.txt").read_text(encoding="utf-8")
              .splitlines() if line.startswith(("PASS ", "FAIL "))}
    _, _, unkilled = mutant_gate.load()
    assert set(unkilled) <= checks


def test_a_check_no_mutant_fails_must_be_in_the_unkilled_map():
    checks = ["a.check", "b.check", "c.check"]
    assert mutant_gate.unkilled_errors(checks, {"a.check"}, {"b.check": "why", "c.check": "why"}) == []
    errors = mutant_gate.unkilled_errors(checks, {"a.check"}, {"b.check": "why"})
    assert errors == ["c.check: no listed mutant fails it, and it is not in the unkilled map"]


def test_a_check_some_mutant_fails_leaves_the_unkilled_map():
    errors = mutant_gate.unkilled_errors(["a.check", "b.check"], {"a.check", "b.check"}, {"b.check": "why"})
    assert errors == ["b.check: a listed mutant fails it, so it leaves the unkilled map"]
