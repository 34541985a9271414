"""The mutant list in ``scripts/mutants.py`` stays in step with ``src/``:
every target occurs exactly once, and one that does not is refused."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_target_occurs_exactly_once():
    mutants.check_targets(ROOT)


@pytest.mark.parametrize("text,count", [("a < b", 0), ("x > y; x > y", 2)],
                         ids=["absent", "twice"])
def test_target_must_occur_exactly_once(text, count):
    m = mutants.Mutant("probe", "src/probe.py", "x > y", "x >= y")
    with pytest.raises(ValueError, match=f"occurs {count} times in src/probe.py"):
        mutants.mutate(text, m)
    assert mutants.mutate("if x > y:", m) == "if x >= y:"
