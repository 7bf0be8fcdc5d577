"""The mutant list of tests/mutant_gate.py against the source it mutates: the
gate itself runs verify once per mutant, in CI."""

from pathlib import Path

import mutant_gate

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "photonguide"


def test_each_mutant_spells_text_found_once():
    mutants, survivors = mutant_gate.load()
    names = [m["name"] for m in mutants]
    assert len(set(names)) == len(names) and set(survivors) <= set(names)
    for mutant in mutants:
        assert mutant["new"] != mutant["old"], mutant["name"]
        assert (PACKAGE / mutant["file"]).read_text(encoding="utf-8").count(mutant["old"]) == 1, mutant["name"]
