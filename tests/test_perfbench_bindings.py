"""The benchmark's span recorder looks up psesk functions by name.

``Recorder.install`` resolves every name in ``perfbench/spans.py`` ``TRACED``
with a bare ``getattr``, and the benchmark self-test patches
``psesk.entanglement.rotated_overlap``; renaming or deleting one of them
breaks every traced benchmark run, so it fails here first.  The benchmark
also tells a table build from a cached call by the identity of
``overlap._master_table``, and its self-test expects one ``ho_overlap_table``
call per ``rotated_overlap``.  It books ``cli.rows_written`` as ``len()`` of
``cli.write_table``'s fifth argument, which must count the data rows the
table holds.  The self-test itself runs here too.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def test_traced_names_resolve_on_their_layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # standard library only
    for layer, names in spans.TRACED.items():
        module = importlib.import_module(f"psesk.{layer}")
        for name in names:
            obj = module
            for part in name.split("."):
                assert hasattr(obj, part), f"psesk.{layer}.{name}"
                obj = getattr(obj, part)
    assert callable(importlib.import_module("psesk.entanglement").rotated_overlap)


def test_rotated_overlap_reads_the_table_once(monkeypatch):
    from psesk import overlap
    from psesk.states import ho_slater

    assert hasattr(overlap, "_master_table")
    calls = []
    table = overlap.ho_overlap_table

    def counted(basis_size):
        calls.append(basis_size)
        return table(basis_size)

    monkeypatch.setattr(overlap, "ho_overlap_table", counted)
    overlap.rotated_overlap(ho_slater([0, 1], basis_size=4), 0.3)
    assert calls == [4]


def test_only_a_larger_table_replaces_the_cache(monkeypatch):
    from psesk import overlap

    monkeypatch.setattr(overlap, "_master_table", None)
    overlap.ho_overlap_table(8)
    built = overlap._master_table
    assert built is not None and built.basis_size == 8
    overlap.ho_overlap_table(6)
    assert overlap._master_table is built
    overlap.ho_overlap_table(8)
    assert overlap._master_table is built
    overlap.ho_overlap_table(9)
    assert overlap._master_table is not built
    assert overlap._master_table.basis_size == 9


def test_benchmark_selftest_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]


TABLE_COMMANDS = (
    ["spectrum", "--ho-slater", "0,1", "--theta-points", "16"],
    ["entropy-surface", "--interpolated", "0,0.5", "--t-points", "3", "--theta-points", "16"],
    ["wigner", "--ho-slater", "1", "--grid-points", "11", "--gnuplot"],
    ["solve-potential", "--potential", "sho", "--levels", "3"],
)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_rows_written_is_the_data_row_count(tmp_path, monkeypatch, fmt):
    # the benchmark books cli.rows_written as len() of write_table's 5th argument
    from psesk import cli

    counted = {}
    write = cli.write_table

    def wrapped(*args, **kwargs):
        name = write(*args, **kwargs)
        counted[name] = len(args[4])
        return name

    monkeypatch.setattr(cli, "write_table", wrapped)
    for argv in TABLE_COMMANDS:
        assert cli.main([*argv, "--format", fmt, "--out", str(tmp_path)]) == 0
    stems = ("spectrum", "entropy", "entropy_surface", "wigner", "bound_states", "coefficients")
    assert sorted(counted) == sorted(f"{stem}.{fmt}" for stem in stems)
    for name, count in counted.items():
        text = (tmp_path / name).read_text()
        written = len(json.loads(text)) if fmt == "json" else text.count("\n") - 1
        assert count == written > 0, name
