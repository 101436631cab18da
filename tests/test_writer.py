"""The column-block table writer against the row-wise formatter it replaces.

Every command's tables and gnuplot matrices must equal, byte for byte, what
``helpers.table_text`` and ``helpers.matrix_text`` make one row tuple and
one cell at a time from the same library results, in CSV and in JSON.
"""

import json
import math

import numpy as np
import pytest

from helpers import fmt_float, matrix_text, table_text
from psesk import cli, entanglement, phasespace, potentials
from psesk.cli import PLOT_CLIP, Blocks, cell_texts, main, write_table
from psesk.states import ho_slater, interpolated_state

FORMATS = ("csv", "json")
EDGE = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -5e-324, 1e16, 1e22, -1e22,
        0.1 + 0.2, 1.0, -3.0, 2.0**53, 123456789.0, 2.1855269934031036]


def run(tmp_path, fmt, argv):
    out = tmp_path / fmt
    gnuplot = ["--gnuplot"] if argv[0] in ("spectrum", "wigner") else []
    assert main([*argv, "--format", fmt, *gnuplot, "--out", str(out)]) == 0
    return out


def table(out, stem, fmt) -> bytes:
    return (out / f"{stem}.{fmt}").read_bytes()


def test_cells_match_the_cell_formatter():
    values = np.array(EDGE)
    assert cell_texts("csv")(values) == [fmt_float(v) for v in EDGE]
    for v in EDGE:  # alone, so an all-finite array takes the same path
        assert cell_texts("csv")(np.array([v])) == [fmt_float(v)]
    want = [json.dumps("+inf" if v == math.inf else "-inf" if v == -math.inf else v)
            for v in EDGE]
    assert cell_texts("json")(values) == want
    assert cell_texts("json")(["+1", "asym"]) == ['"+1"', '"asym"']
    assert cell_texts("csv")(["+1", "asym"]) == ["+1", "asym"]


@pytest.mark.parametrize("fmt", FORMATS)
def test_edge_cells_and_empty_tables_match_the_row_formatter(tmp_path, fmt):
    names = [str(k) for k in range(len(EDGE))]
    cells = cell_texts(fmt)
    halves = [zip(cells(np.array(EDGE[:5])), cells(names[:5])), iter(()),
              zip(cells(np.array(EDGE[5:])), cells(names[5:]))]
    write_table(tmp_path, "edge", fmt, ["v", "n"], Blocks(len(EDGE), halves))
    assert table(tmp_path, "edge", fmt) == table_text(fmt, ["v", "n"], zip(EDGE, names)).encode()
    write_table(tmp_path, "empty", fmt, ["v"], Blocks(0, []))
    assert table(tmp_path, "empty", fmt) == table_text(fmt, ["v"], []).encode()


@pytest.mark.parametrize("fmt", FORMATS)
def test_spectrum_with_infinite_energies_matches_the_row_formatter(tmp_path, fmt):
    k = 32
    out = run(tmp_path, fmt, ["spectrum", "--potential-expr", "(x-7)^2/2", "--particles", "1",
                              "--theta-points", str(k)])
    state = potentials.bound_states(potentials.potential("custom", "(x-7)^2/2"), 1).as_slater()
    data = entanglement.pses_sweep(state, np.linspace(0.0, 2.0 * math.pi, k, endpoint=False))
    assert np.isposinf(data.energies).any() and np.isneginf(data.energies).any()
    rows = [(theta, str(level), eps) for theta, row in zip(data.thetas, data.energies)
            for level, eps in enumerate(row)]
    assert table(out, "spectrum", fmt) == table_text(
        fmt, ["theta", "level", "epsilon"], rows).encode()
    assert table(out, "entropy", fmt) == table_text(
        fmt, ["theta", "entropy"], zip(data.thetas, data.entropy)).encode()
    assert (out / "spectrum_matrix.dat").read_bytes() == matrix_text(
        [theta, *np.clip(row, -PLOT_CLIP, PLOT_CLIP)]
        for theta, row in zip(data.thetas, data.energies)).encode()


@pytest.mark.parametrize("fmt", FORMATS)
def test_entropy_surface_matches_the_row_formatter(tmp_path, fmt):
    phi = 0.7
    out = run(tmp_path, fmt, ["entropy-surface", "--interpolated", f"0,{phi}",
                              "--t-points", "9", "--theta-points", "32"])
    t_grid = np.linspace(0.0, 1.0, 9)
    thetas = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
    rows = [(t, theta, s) for t in t_grid for theta, s in
            zip(thetas, entanglement.pses_sweep(interpolated_state(float(t), phi), thetas).entropy)]
    assert table(out, "entropy_surface", fmt) == table_text(
        fmt, ["t", "theta", "entropy"], rows).encode()
    assert not (out / "entropy-surface_matrix.dat").exists()


def _density(state):
    return state.coeffs.T @ state.coeffs.conj()


WIGNER = {
    "slater": (["--ho-slater", "0,2"],
               lambda axis: phasespace.wigner_of_state(_density(ho_slater([0, 2])), axis, axis)),
    "coherent": (["--coherent=1.2,-0.5"],
                 lambda axis: phasespace.coherent_wigner(complex(1.2, -0.5), axis, axis)),
    "interpolated": (["--interpolated", "0.4,1.1"],
                     lambda axis: phasespace.wigner_of_state(
                         _density(interpolated_state(0.4, 1.1)), axis, axis)),
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("kind", WIGNER)
def test_wigner_matches_the_row_formatter(tmp_path, fmt, kind):
    argv, make = WIGNER[kind]
    out = run(tmp_path, fmt, ["wigner", *argv, "--grid-points", "41", "--grid-half-width", "6"])
    field = make(np.linspace(-6.0, 6.0, 41))
    rows = [(xv, pv, float(w.real), float(w.imag))
            for xv, row in zip(field.x, field.values) for pv, w in zip(field.p, row)]
    assert table(out, "wigner", fmt) == table_text(fmt, ["x", "p", "w_re", "w_im"], rows).encode()
    assert (out / "wigner_matrix.dat").read_bytes() == matrix_text(
        [[str(len(field.x)), *field.x],
         *([pv, *col] for pv, col in zip(field.p, field.values.real.T))]).encode()


@pytest.mark.parametrize("fmt", FORMATS)
def test_negative_zero_w_im_is_written_as_such(tmp_path, monkeypatch, fmt):
    axis = np.linspace(-1.0, 1.0, 3)
    values = np.zeros((3, 3), dtype=complex)
    values[1, 2] = complex(0.5, -0.0)
    field = phasespace.WignerField(axis, axis, values, True)
    monkeypatch.setattr(cli, "_wigner_field", lambda cfg, axis: (field, {"kind": "fixed"}))
    out = run(tmp_path, fmt, ["wigner", "--ho-slater", "0", "--grid-points", "3"])
    rows = [(xv, pv, float(w.real), float(w.imag))
            for xv, row in zip(axis, values) for pv, w in zip(axis, row)]
    text = table(out, "wigner", fmt)
    assert text == table_text(fmt, ["x", "p", "w_re", "w_im"], rows).encode()
    assert text.count(b"-0.0") == 1


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("kind", ["double_well", "rosen_morse"])
def test_solve_potential_tables_match_the_row_formatter(tmp_path, fmt, kind):
    out = run(tmp_path, fmt, ["solve-potential", "--potential", kind, "--levels", "4"])
    bset = potentials.bound_states(potentials.potential(kind), 4)
    parities = potentials.parity_check(bset)
    rows = [(str(i), e, "asym" if par is None else f"{par:+d}")
            for i, (e, par) in enumerate(zip(bset.energies, parities))]
    assert table(out, "bound_states", fmt) == table_text(
        fmt, ["n", "energy", "parity"], rows).encode()
    header = ["n", *(f"{part}_{m}" for m in range(bset.basis_size) for part in ("re", "im"))]
    coeff_rows = [(str(i), *(float(part) for v in row for part in (v.real, v.imag)))
                  for i, row in enumerate(bset.states)]
    assert table(out, "coefficients", fmt) == table_text(fmt, header, coeff_rows).encode()
