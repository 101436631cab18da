"""The runtime needs numpy only; scipy is a test-time oracle at most.
The runtime import leaves the oracles' special functions unloaded, the
package exports no oracle, and every exported name resolves."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _python(code: str) -> str:
    """Stdout of a fresh interpreter that runs ``code`` with psesk from SRC."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_does_not_load_scipy():
    _python("import sys, psesk.cli; assert 'scipy' not in sys.modules, 'scipy loaded'")


def test_cli_import_loads_only_psesk_and_the_standard_library():
    # numpy's own submodules come with it or lazily on first use (numpy.fft),
    # never from psesk's import
    added = _python("import sys, numpy; before = set(sys.modules); import psesk.cli; "
                    "print(*sorted(set(sys.modules) - before))").split()
    assert "psesk.cli" in added
    foreign = [name for name in added if name.split(".")[0] != "psesk"
               and name.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


# oracles and test-only functions, importable from their own modules only
ORACLES = ("entanglement_hamiltonian", "expand_function", "frft_direct", "frft_kernel",
           "gauss_hermite", "ho_wavefunction", "inversion_matrix", "marginal_position",
           "minimum_block_gap", "translated_overlap", "wigner_mn", "wigner_pure")


def test_runtime_import_leaves_the_oracles_out():
    from psesk.phasespace import wigner_mn

    out = _python(
        "import sys, psesk, psesk.cli\n"
        "print(*[m for m in ('psesk.specfun', 'fractions', 'decimal') if m in sys.modules])\n"
        f"print(*[name for name in {ORACLES!r} if name in psesk.__all__])\n"
        "print(repr(complex(psesk.phasespace.wigner_mn(2, 3, 0.4, -0.2))))")
    loaded, exported, value = out.split("\n")[:3]
    assert loaded == "" and exported == ""
    assert complex(value) == complex(wigner_mn(2, 3, 0.4, -0.2)) != 0


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


def test_the_declared_numpy_floor_has_what_the_code_calls():
    # np.trapezoid (phasespace.marginal_position and the tests) came in numpy 2.0
    tomllib = pytest.importorskip("tomllib")  # the standard library from Python 3.11
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text())["project"]
    floors = [dep.split(">=")[1] for dep in project["dependencies"]
              if dep.split(">=")[0].strip() == "numpy"]
    assert len(floors) == 1
    assert tuple(int(part) for part in floors[0].split(".")[:2]) >= (2, 0)
