"""The runtime needs numpy only; scipy is a test-time oracle at most.
Every exported name resolves."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_does_not_load_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = "import sys, psesk.cli; assert 'scipy' not in sys.modules, 'scipy loaded'"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_cli_import_loads_only_psesk_and_the_standard_library():
    # numpy's own submodules come with it or lazily on first use (numpy.fft),
    # never from psesk's import
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys, numpy; before = set(sys.modules); import psesk.cli; "
            "print(*sorted(set(sys.modules) - before))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    added = done.stdout.split()
    assert "psesk.cli" in added
    foreign = [name for name in added if name.split(".")[0] != "psesk"
               and name.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def test_no_source_file_mentions_scipy():
    hits = [str(path) for path in SRC.rglob("*.py") if "scipy" in path.read_text()]
    assert hits == []


def test_public_names_resolve():
    import psesk

    modules = [psesk] + [importlib.import_module(f"psesk.{path.stem}")
                         for path in sorted((SRC / "psesk").glob("*.py"))
                         if path.stem != "__init__"]
    missing = [f"{m.__name__}.{name}" for m in modules
               for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert missing == []
