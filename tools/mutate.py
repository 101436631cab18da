"""Check that the tests kill every code mutation in a checked-in list.

    python tools/mutate.py

Each entry of ``tools/mutations.json`` (a JSON array) names a mutation
and gives its ``file`` under ``src/``, an ``old`` text that must occur
exactly once in that file, the ``new`` text that replaces it, and the
``tests`` (pytest paths or node ids, relative to the repository root)
that must fail on it.
For each entry the runner copies ``src`` to a temporary directory, applies
the mutation there, and runs ``python -m pytest -x -q`` on the entry's
tests from the repository root with the copy first on ``PYTHONPATH``,
without hypothesis's pytest plugin: its report of a failing example imports
optional packages (libcst) whose deprecation warnings the suite's
``filterwarnings = error`` turns into an internal error (exit status 3),
while the ``@given`` tests run and fail the same without it.
First it runs every listed test once on an unmutated copy: they must pass.

A mutation is killed when pytest reports a failed test (exit status 1).
It survives when the tests pass; an old text that is missing or occurs
more than once, and any other pytest exit status (no tests collected, a
usage error), are errors.  The runner prints one line per entry and exits
0 only when the unmutated tests pass and every entry was killed.  Uses the
standard library only.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def apply(src: Path, entry: dict) -> str | None:
    """Apply ``entry`` to the tree ``src``; returns why it cannot be applied, or None."""
    path = src / entry["file"]
    text = path.read_text()
    count = text.count(entry["old"])
    if count != 1:
        return f"old text occurs {count} times in {entry['file']}"
    path.write_text(text.replace(entry["old"], entry["new"]))
    return None


def run(entry: dict) -> str:
    """The outcome of one mutation: killed, survived, or an error message.

    An entry without a ``file`` mutates nothing: it survives when its tests pass.
    """
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp, "src")
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        problem = apply(src, entry) if "file" in entry else None
        if problem:
            return problem
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]),
            "PYTHONDONTWRITEBYTECODE": "1"}
        where = subprocess.run([sys.executable, "-c", "import psesk; print(psesk.__file__)"],
                               env=env, cwd=ROOT, capture_output=True, text=True)
        if not where.stdout.startswith(str(src)):
            return f"psesk imports from {where.stdout.strip() or where.stderr.strip()!r}"
        status = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                                 "no:cacheprovider", "-p", "no:hypothesispytest",
                                 *entry["tests"]],
                                env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL).returncode
    return {0: "survived", 1: "killed"}.get(status, f"pytest exited with status {status}")


def main() -> int:
    entries = json.loads((ROOT / "tools" / "mutations.json").read_text())
    # a test that fails unmutated would count every mutation of it as killed
    baseline = run({"tests": sorted({test for entry in entries for test in entry["tests"]})})
    print(f"{'(unmutated)':32s} {'tests pass' if baseline == 'survived' else baseline}", flush=True)
    ok = baseline == "survived"
    for entry in entries:
        start = time.perf_counter()
        outcome = run(entry)
        ok &= outcome == "killed"
        print(f"{entry['name']:32s} {outcome} ({time.perf_counter() - start:.1f} s)", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
