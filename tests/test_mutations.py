import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)

ENTRIES = json.loads((ROOT / "tools" / "mutations.json").read_text())
FAST = ["tests/test_states.py::test_the_orthonormality_tolerance_decides_the_check"]


def test_a_no_op_mutation_is_reported_as_surviving():
    entry = {"name": "no-op", "file": "psesk/states.py", "old": "ORTHONORMALITY_TOL = 1e-8",
             "new": "ORTHONORMALITY_TOL = 1e-8", "tests": FAST}
    assert mutate.run(entry) == "survived"


@pytest.mark.parametrize("old, count", [("ORTHONORMALITY_TOL = 1e-9", 0),
                                        ("ORTHONORMALITY_TOL", 2)])
def test_an_old_text_that_is_missing_or_repeated_is_an_error(old, count):
    entry = {"name": "bad", "file": "psesk/states.py", "old": old, "new": "", "tests": FAST}
    assert mutate.run(entry) == f"old text occurs {count} times in psesk/states.py"


def test_every_listed_mutation_applies_once_to_the_source():
    # a change that removes or duplicates a mutated text must update its entry
    assert len(ENTRIES) >= 12
    assert len({entry["name"] for entry in ENTRIES}) == len(ENTRIES)
    for entry in ENTRIES:
        assert entry.keys() == {"name", "file", "old", "new", "tests"}, entry["name"]
        assert entry["old"] != entry["new"], entry["name"]
        assert (ROOT / "src" / entry["file"]).read_text().count(entry["old"]) == 1, entry["name"]
        assert entry["tests"] and all((ROOT / test.split("::")[0]).is_file()
                                      for test in entry["tests"]), entry["name"]
