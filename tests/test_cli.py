import importlib
import json
import math
import pkgutil
import re
import runpy
import shlex
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import psesk
from psesk import chiral, cli, potentials
from psesk.cli import COMMANDS, KEYS, STATE_FLAGS, build_parser, main, resolve_config
from psesk.overlap import evaluate_gramians
from psesk.phasespace import wigner_mn
from psesk.states import NumericError, ho_slater


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_spectrum_flat_pair(tmp_path):
    rc = main(["spectrum", "--ho-slater", "0,1", "--theta-points", "64", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "spectrum.csv")
    assert header == ["theta", "level", "epsilon"]
    assert len(rows) == 64 * 2
    eps = sorted(abs(float(r[2])) for r in rows)
    assert eps[0] == pytest.approx(2.1855269934, abs=1e-6)
    assert eps[-1] == pytest.approx(2.1855269934, abs=1e-6)
    meta = json.loads((tmp_path / "spectrum_meta.json").read_text())
    assert meta["n_even"] == 1 and meta["n_odd"] == 1
    assert meta["nu_e"] == 1
    assert meta["flat_bands"] == 0
    assert meta["entropy_file"] == "entropy.csv"
    assert meta["config"]["theta_points"] == 64


def test_spectrum_single_mode_is_flat_zero(tmp_path):
    rc = main(["spectrum", "--ho-slater", "0", "--theta-points", "16", "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "spectrum.csv")
    assert all(abs(float(r[2])) < 1e-12 for r in rows)


def test_float_formatting_serializes_sentinels():
    from psesk.cli import cell_texts

    cells = cell_texts("csv")
    assert cells(np.array([math.inf, -math.inf, 0.5])) == ["+inf", "-inf", "0.5"]
    # shortest round-trip representation survives parsing
    assert float(cells(np.array([2.1855269934031036]))[0]) == 2.1855269934031036


def test_spectrum_asymmetric_state_reports_null_chiral_data(tmp_path):
    rc = main(
        ["spectrum", "--potential", "rosen_morse", "--particles", "2",
         "--theta-points", "16", "--out", str(tmp_path)]
    )
    assert rc == 0
    meta = json.loads((tmp_path / "spectrum_meta.json").read_text())
    assert meta["inversion_symmetric"] is False
    assert meta["nu_e"] is None and meta["n_even"] is None


def test_spectrum_at_a_closed_gap_reports_null_winding(tmp_path):
    # T_CRIT, phi = 2 pi / 3: the winding is undefined, the spectrum is not
    t_crit = (2.0 / math.pi) * math.atan(math.sqrt(2.0))
    rc = main(["spectrum", "--interpolated", f"{t_crit!r},{2 * math.pi / 3!r}",
               "--out", str(tmp_path)])
    assert rc == 0
    meta = json.loads((tmp_path / "spectrum_meta.json").read_text())
    assert meta["inversion_symmetric"] is True
    assert meta["nu_e"] is None


def test_spectrum_deterministic_output(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert main(["spectrum", "--ho-slater", "0,1,2", "--theta-points", "32",
                     "--out", str(out)]) == 0
    assert (a / "spectrum.csv").read_bytes() == (b / "spectrum.csv").read_bytes()
    assert (a / "entropy.csv").read_bytes() == (b / "entropy.csv").read_bytes()


def test_spectrum_interpolated_near_critical_has_small_gap(tmp_path):
    rc = main(["spectrum", "--interpolated", f"0.61,{2 * math.pi / 3}",
               "--theta-points", "1024", "--gnuplot", "--out", str(tmp_path)])
    assert rc == 0
    meta = json.loads((tmp_path / "spectrum_meta.json").read_text())
    assert meta["gap_min"] < 1e-2
    assert (tmp_path / "spectrum_matrix.dat").exists()


def test_spectrum_odd_filling_well_has_zero_band(tmp_path):
    rc = main(["spectrum", "--potential", "poschl_teller", "--particles", "7",
               "--theta-points", "16", "--out", str(tmp_path)])
    assert rc == 0
    meta = json.loads((tmp_path / "spectrum_meta.json").read_text())
    assert meta["flat_bands"] == 1
    _, rows = read_csv(tmp_path / "spectrum.csv")
    levels = {}
    for r in rows:
        levels.setdefault(r[1], []).append(abs(float(r[2])))
    zero_bands = sum(1 for vals in levels.values() if max(vals) < 1e-8)
    assert zero_bands == 1


def test_winding_ground_state(tmp_path, capsys):
    rc = main(["winding", "--ho-slater", "0,1,2,3", "--out", str(tmp_path)])
    assert rc == 0
    assert "nu_E = 2" in capsys.readouterr().out
    report = json.loads((tmp_path / "winding.json").read_text())
    assert report["nu_E"] == 2
    assert report["K_used"] >= 256
    assert report["min_abs_det"] > 0
    assert report["closings"] == []
    # one scan gives both the report's minimum and minimum_block_gap's
    ps = chiral.parity_sort(ho_slater([0, 1, 2, 3]))
    assert report["min_abs_det"] == chiral.minimum_block_gap(ps)[1]


def test_winding_excited_state_sign(tmp_path):
    rc = main(["winding", "--ho-slater", "1,2,3,4", "--out", str(tmp_path)])
    assert rc == 0
    assert json.loads((tmp_path / "winding.json").read_text())["nu_E"] == -2


def test_winding_flat_band_report_for_odd_counts(tmp_path, capsys):
    rc = main(["winding", "--ho-slater", "0,1,2", "--out", str(tmp_path)])
    assert rc == 0
    assert "flat bands: 1" in capsys.readouterr().out
    report = json.loads((tmp_path / "winding.json").read_text())
    assert report["nu_E"] is None
    assert report["flat_bands"] == 1


WINDING_KEYS = {"command", "config", "state", "n_even", "n_odd", "nu_E", "closings"}


@pytest.mark.parametrize("state, code, keys, out, err", [
    (["--potential", "double_well", "--particles", "7"], 0, {"flat_bands"},
     "flat bands: 1 (n_even=4, n_odd=3)\n", ""),
    (["--ho-slater", "0,1,2,3"], 0, {"K_used", "min_abs_det"}, "nu_E = 2\n", ""),
    (["--interpolated", "0.6081734479693929,1.0"], 4, {"K_used", "min_abs_det"}, "",
     "gap closed; winding undefined\n"),
])
def test_each_winding_outcome_has_its_keys_line_and_exit_code(tmp_path, capsys, state, code,
                                                              keys, out, err):
    # unbalanced, gapped and closed: one sidecar each, with exactly these keys
    assert main(["winding", *state, "--out", str(tmp_path)]) == code
    assert capsys.readouterr() == (out, err)
    report = json.loads((tmp_path / "winding.json").read_text())
    assert report.keys() == WINDING_KEYS | keys
    assert (report["nu_E"] is None) == (code == 4 or "flat_bands" in keys)
    assert (report["closings"] != []) == (code == 4)
    assert (report.get("K_used") is None) == (code == 4 or "flat_bands" in keys)


@pytest.mark.parametrize("basis, size", [([], 100), (["--basis", "120"], 120)])
def test_solve_potential_and_spectrum_write_the_same_well_energies(tmp_path, basis, size):
    assert main(["solve-potential", "--potential", "double_well", "--levels", "7", *basis,
                 "--out", str(tmp_path / "solve")]) == 0
    assert main(["spectrum", "--potential", "double_well", "--particles", "7", *basis,
                 "--theta-points", "16", "--out", str(tmp_path / "spectrum")]) == 0
    solved = json.loads((tmp_path / "solve" / "solve_potential_meta.json").read_text())
    spectrum = json.loads((tmp_path / "spectrum" / "spectrum_meta.json").read_text())
    assert solved["basis_size"] == spectrum["basis_size"] == size
    assert len(solved["energies"]) == 7
    assert ([e.hex() for e in solved["energies"]]
            == [e.hex() for e in spectrum["state"]["energies"]])


def test_winding_gap_closed_exit_code(tmp_path):
    t_crit = (2.0 / math.pi) * math.atan(math.sqrt(2.0))
    rc = main(
        ["winding", "--interpolated", f"{t_crit},{2 * math.pi / 3}", "--out", str(tmp_path)]
    )
    assert rc == 4
    report = json.loads((tmp_path / "winding.json").read_text())
    assert report["nu_E"] is None
    assert len(report["closings"]) == 1
    assert report["closings"][0] == pytest.approx(5 * math.pi / 6, abs=1e-4)


def test_winding_resolves_a_narrow_open_gap(tmp_path, capsys):
    rc = main(["winding", "--interpolated", "0.6082,2.0943951023931953", "--out", str(tmp_path)])
    assert rc == 0
    assert "nu_E = -1" in capsys.readouterr().out
    report = json.loads((tmp_path / "winding.json").read_text())
    assert report["nu_E"] == -1
    assert 256 < report["K_used"] < 300


@pytest.mark.parametrize("state, nu", [
    (["--ho-slater", ",".join(map(str, range(68)))], 34),
    (["--potential", "double_well", "--particles", "70", "--basis", "1024"], 35),
])
def test_winding_of_a_wide_ground_filling(tmp_path, capsys, state, nu):
    # min |det m| is 3e-11 and 1.4e-11, below the gap floor, but the chiral
    # gap sigma_min(m) >= 2^{N_e - 1} |det m| stays open
    rc = main(["winding", *state, "--out", str(tmp_path)])
    assert rc == 0
    assert f"nu_E = {nu}" in capsys.readouterr().out


def test_winding_grid_comes_from_the_basis(tmp_path, capsys):
    # det m is e^{1001 i theta} up to a constant, which the offset S = 1001
    # demodulates: the state's grid of 1024 intervals bisects nothing
    rc = main(["winding", "--ho-slater", "0,1001", "--basis", "1024", "--out", str(tmp_path)])
    assert rc == 0
    assert "nu_E = 1001" in capsys.readouterr().out
    report = json.loads((tmp_path / "winding.json").read_text())
    assert report["nu_E"] == 1001
    assert report["K_used"] == 1024


def test_spectrum_gap_min_is_the_chiral_gap(tmp_path):
    # for a balanced symmetric state the smallest |epsilon| at each angle is
    # 2 artanh(2 sigma_min(m(theta)))
    rc = main(["spectrum", "--potential", "poschl_teller", "--particles", "6",
               "--theta-points", "64", "--out", str(tmp_path)])
    assert rc == 0
    gap_min = json.loads((tmp_path / "spectrum_meta.json").read_text())["gap_min"]
    state = potentials.bound_states(potentials.potential("poschl_teller"), 6).as_slater()
    ps = chiral.parity_sort(state)
    assert ps.n_even == ps.n_odd == 3
    thetas = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    sigma_min = np.linalg.svd(evaluate_gramians(*ps.sectors, thetas), compute_uv=False)[:, -1]
    want = float(np.min(2.0 * np.arctanh(2.0 * sigma_min)))
    assert abs(gap_min - want) <= 1e-10 * want


def test_winding_one_ulp_above_the_critical_point_names_its_closing(tmp_path):
    rc = main(["winding", "--interpolated", "0.6081734479693929,0", "--out", str(tmp_path)])
    assert rc == 4
    report = json.loads((tmp_path / "winding.json").read_text())
    assert report["closings"] == [math.pi / 2]
    # the smallest |det m| the scan saw, roundoff above the zero
    assert 0.0 < report["min_abs_det"] < chiral.DET_FLOOR


def test_winding_closings_come_from_the_requested_grid(tmp_path, monkeypatch):
    # the report's closings come from the state's one grid, sized from its basis
    grids = []
    grid_determinants = chiral._grid_determinants
    monkeypatch.setattr(chiral, "_grid_determinants",
                        lambda ps, blocks: grids.append(len(blocks)) or grid_determinants(ps, blocks))
    t_crit = (2.0 / math.pi) * math.atan(math.sqrt(2.0))
    rc = main(["winding", "--interpolated", f"{t_crit},2.0944", "--basis", "600",
               "--out", str(tmp_path)])
    assert rc == 4
    assert grids == [1024]
    closings = json.loads((tmp_path / "winding.json").read_text())["closings"]
    assert closings == [pytest.approx((math.pi + 2.0944) / 2, abs=1e-4)]


def test_entropy_surface_argmax(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "state": {"interpolated": {"t": 0.0, "phi": 2 * math.pi / 3}},
        "t_points": 21,
        "theta_points": 32,
    }))
    rc = main(["entropy-surface", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "entropy_surface.csv")
    assert header == ["t", "theta", "entropy"]
    assert len(rows) == 21 * 32
    meta = json.loads((tmp_path / "entropy_surface_meta.json").read_text())
    assert meta["max_entropy"] <= 2 * math.log(2) + 1e-9
    assert meta["argmax"]["t"] == pytest.approx(0.6, abs=0.05)
    # S is pi-periodic in theta, so the reported maximiser is the one in [0, pi)
    assert 0.0 <= meta["argmax"]["theta"] < math.pi
    at_argmax = {(r[0], r[1]): float(r[2]) for r in rows}[
        (repr(meta["argmax"]["t"]), repr(meta["argmax"]["theta"]))]
    assert at_argmax == pytest.approx(meta["max_entropy"], abs=1e-12)


def test_entropy_surface_argmax_is_stable_on_the_script_grid(tmp_path):
    # scripts/entropy_polar.py's grid: the maxima at theta and theta + pi tie
    # to roundoff, so a plain argmax over [0, 2 pi) may pick either copy
    rc = main(["entropy-surface", "--interpolated", f"0,{2 * math.pi / 3}",
               "--t-points", "201", "--theta-points", "256", "--out", str(tmp_path)])
    assert rc == 0
    meta = json.loads((tmp_path / "entropy_surface_meta.json").read_text())
    assert 0.0 <= meta["argmax"]["theta"] < math.pi
    assert meta["argmax"]["theta"] == pytest.approx(5 * math.pi / 6, abs=0.02)


def test_wigner_ground_state_peak(tmp_path):
    rc = main(["wigner", "--ho-slater", "0", "--grid-points", "41",
               "--grid-half-width", "4", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "wigner.csv")
    assert header == ["x", "p", "w_re", "w_im"]
    by_point = {(r[0], r[1]): float(r[2]) for r in rows}
    assert by_point[("0.0", "0.0")] == pytest.approx(2.0, rel=1e-12)


def test_wigner_first_excited_negative_origin(tmp_path):
    rc = main(["wigner", "--ho-slater", "1", "--grid-points", "21",
               "--grid-half-width", "4", "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "wigner.csv")
    by_point = {(r[0], r[1]): float(r[2]) for r in rows}
    assert by_point[("0.0", "0.0")] == pytest.approx(-2.0, rel=1e-12)


def test_wigner_coherent_center(tmp_path):
    rc = main(["wigner", "--coherent", "3", "--grid-points", "41",
               "--grid-half-width", "6", "--gnuplot", "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "wigner.csv")
    vals = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
    best = max(vals, key=vals.get)
    assert best[0] == pytest.approx(3 * math.sqrt(2.0), abs=0.16)
    assert best[1] == pytest.approx(0.0, abs=0.16)
    assert (tmp_path / "wigner_matrix.dat").exists()


@pytest.mark.parametrize("center", ["1e200,0", "1e308,-1e308"])
def test_wigner_far_coherent_center_is_zero_without_warnings(tmp_path, center):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["wigner", "--coherent", center, "--grid-points", "5",
                     "--out", str(tmp_path)]) == 0
    table = np.loadtxt(tmp_path / "wigner.csv", delimiter=",", skiprows=1)
    assert len(table) == 25 and np.all(table[:, 2:] == 0.0)


def test_solve_potential_sho(tmp_path):
    rc = main(["solve-potential", "--potential", "sho", "--levels", "8", "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "bound_states.csv")
    energies = [float(r[1]) for r in rows]
    assert energies == pytest.approx([n + 0.5 for n in range(8)], abs=1e-8)
    parities = [r[2] for r in rows]
    assert parities == ["+1", "-1", "+1", "-1", "+1", "-1", "+1", "-1"]
    coeff_header, coeff_rows = read_csv(tmp_path / "coefficients.csv")
    assert coeff_header[:3] == ["n", "re_0", "im_0"]
    assert len(coeff_rows) == 8


@pytest.mark.parametrize("flags,levels", [
    (["--particles", "3"], 3), (["--particles", "3", "--levels", "3"], 3),
    (["--levels", "5"], 5), ([], 8)])
def test_solve_potential_level_count(tmp_path, flags, levels):
    # the state's n and --levels set one count: either, both if they agree, else 8
    assert main(["solve-potential", "--potential", "sho", *flags, "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "solve_potential_meta.json").read_text())
    assert meta["levels"] == levels and len(meta["energies"]) == levels
    assert meta["config"]["levels"] == (int(flags[-1]) if "--levels" in flags else None)
    assert len(read_csv(tmp_path / "bound_states.csv")[1]) == levels


def test_solve_potential_rosen_morse_parity_column(tmp_path):
    rc = main(["solve-potential", "--potential", "rosen_morse", "--levels", "6",
               "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "bound_states.csv")
    assert all(r[2] == "asym" for r in rows)


def test_solve_potential_custom_expression(tmp_path):
    rc = main(["solve-potential", "--potential-expr", "x^2/2", "--levels", "3",
               "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "bound_states.csv")
    assert [float(r[1]) for r in rows] == pytest.approx([0.5, 1.5, 2.5], abs=1e-8)


BAD_INPUTS = [
    (["spectrum", "--ho-slater", "0,1", "--theta-points", "15"], None),
    (["spectrum"], None),
    (["spectrum", "--ho-slater", "2,1"], None),
    (["spectrum", "--ho-slater", "0,1", "--basis", "100000"], None),
    (["spectrum", "--ho-slater", "0,1", "--basis", "0"], None),
    (["spectrum", "--ho-slater", "0,100000"], None),
    (["wigner", "--ho-slater", "0,100000"], None),
    (["spectrum"], {"state": {"ho_slater": [0, 100000]}}),
    (["winding", "--ho-slater", "0,1", "--winding-grid", "0"], None),
    (["winding", "--ho-slater", "0,1", "--winding-grid", "255"], None),
    (["entropy-surface", "--interpolated", "0,1", "--t-points", "0"], None),
    (["solve-potential", "--potential", "sho", "--levels", "0"], None),
    (["solve-potential", "--potential", "sho", "--particles", "0"], None),
    (["wigner", "--ho-slater", "0", "--grid-half-width", "-1"], None),
    # finite half widths whose span 2 x width overflows, or whose steps are subnormal
    (["wigner", "--ho-slater", "0", "--grid-points", "3", "--grid-half-width", "8.99e307"], None),
    (["wigner", "--ho-slater", "0"], {"grid_half_width": 1e308}),
    (["wigner", "--ho-slater", "0", "--grid-points", "5", "--grid-half-width", "5e-324"], None),
    (["wigner", "--ho-slater", "0", "--grid-points", "1"], None),
    (["winding", "--ho-slater", "0,1"], {"basis": "x"}),
    (["winding", "--ho-slater", "0,1"], {"winding_grid": 2.5}),
    (["spectrum", "--ho-slater", "0,1"], {"theta_points": "32"}),
    (["entropy-surface", "--interpolated", "0,1"], {"t_points": "5"}),
    (["wigner", "--ho-slater", "0"], {"grid_half_width": "x"}),
    (["wigner", "--ho-slater", "0"], {"grid_points": True}),
    (["spectrum"], {"state": "ho_slater"}),
    (["spectrum"], {"state": {"ho_slater": 5}}),
    (["spectrum"], {"state": {"ho_slater": ["a"]}}),
    (["spectrum"], {"state": {"interpolated": 3}}),
    (["spectrum"], {"state": {"potential_ground": {"kind": "sho", "n": [2]}}}),
    (["entropy-surface"], {"state": {"interpolated": 3}}),
    (["wigner"], {"state": {"coherent": "x"}}),
    (["wigner", "--coherent", "1,2,3"], None),
    (["spectrum", "--ho-slater", "0,1"], {"out": 7}),
    (["spectrum", "--ho-slater", "0,1"], {"gnuplot": "no"}),
    (["spectrum", "--interpolated", "0.3,nan"], None),
    (["spectrum", "--interpolated", "inf,1"], None),
    (["spectrum", "--interpolated", "0.3"], None),
    (["wigner", "--coherent", "nan"], None),
    (["spectrum"], {"state": {"potential_ground": {"kind": "custom", "expression": 7}}}),
    (["spectrum"], {"state": {"interpolated": {"t": 10**400, "phi": 1.0}}}),
    (["spectrum", "--theta-points", "x"], None),
    (["spectrum", "--bogus"], None),
    (["spectrum", "--potential", "foo"], None),
    ([], None),
    (["spectrum", "--ho-slater", "0,1"], {"thetapoints": 64}),
    (["spectrum"], {"state": {"ho_slater": [0, 1], "interpolated": {"t": 0.3, "phi": 1.0}}}),
    (["spectrum", "--ho-slater", "0,1", "--interpolated", "0.3,1"], None),
    (["spectrum", "--ho-slater", "0,1", "--theta-points", str(2**24 + 2)], None),
    (["spectrum", "--ho-slater", "0,1"], {"out": "cfg.json"}),
    (["spectrum", "--ho-slater", "0,1"], {"out": "a\0b"}),
    (["solve-potential", "--potential-expr", "x" + "+x" * 2000], None),
    # flags a command does not read
    (["entropy-surface", "--interpolated", "0,1", "--basis", "2"], None),
    (["winding", "--ho-slater", "0,1", "--gnuplot"], None),
    (["frft-check", "--out", "x"], None),
    # a missing state, or one of a kind the command does not take
    (["solve-potential", "--levels", "2"], None),
    (["spectrum"], {"state": {"coherent": [1, 0]}}),
    (["entropy-surface"], {"state": {"ho_slater": [0, 1]}}),
    (["solve-potential"], {"state": {"interpolated": {"t": 0.3, "phi": 1.0}}}),
    # a well has an expression exactly when its kind is custom, in either order
    (["spectrum", "--potential", "sho", "--potential-expr", "x^4"], None),
    (["spectrum", "--potential-expr", "x^4", "--potential", "sho"], None),
    (["solve-potential", "--potential", "custom"], None),
    (["spectrum"], {"state": {"potential_ground": {"kind": "sho", "expression": "x^4"}}}),
    (["spectrum"], {"state": {"potential_ground": {"kind": "custom"}}}),
    # two values for one quantity, or one the state has no use for
    (["solve-potential", "--potential", "sho", "--particles", "3", "--levels", "5"], None),
    (["solve-potential", "--potential", "sho", "--levels", "5"],
     {"state": {"potential_ground": {"kind": "sho", "n": 3}}}),
    (["solve-potential", "--particles", "3"],
     {"levels": 5, "state": {"potential_ground": {"kind": "sho"}}}),
    (["wigner", "--coherent", "3", "--basis", "5"], None),
    (["wigner", "--coherent", "3"], {"basis": 5}),
    # a list that does not parse, and a filling of no level
    (["spectrum", "--ho-slater", "0,x"], None),
    (["spectrum"], {"state": {"ho_slater": []}}),
]


def test_config_error_exit_codes(tmp_path, capsys, monkeypatch):
    # no --out, so that a bad "out" in the config is what the run sees
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    for argv, config in BAD_INPUTS:
        if config is not None:
            cfg.write_text(json.dumps(config))
            argv = argv + ["--config", str(cfg)]
        assert main(argv) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), (argv, err)
    # a config file that cannot be read, and one that holds no JSON object
    cfg.write_text("[1]")
    for path in (tmp_path / "missing.json", cfg):
        argv = ["spectrum", "--ho-slater", "0,1", "--config", str(path)]
        assert main(argv) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), (argv, err)


def test_winding_beyond_old_table_cap(tmp_path):
    rc = main(["winding", "--ho-slater", "0,1", "--basis", "300", "--out", str(tmp_path)])
    assert rc == 0
    assert json.loads((tmp_path / "winding.json").read_text())["nu_E"] == 1


BARRIER = "1e20*exp(-x^4)"  # V >= 0 and V -> 0: no bound level, only roundoff below 0
NO_LEVEL = "NotEnoughBoundStates: requested 2 levels but only 0 lie below the continuum at 0"
# (argv, the start of the one stderr line)
NUMERIC_FAILURES = [
    (["solve-potential", "--potential", "poschl_teller", "--levels", "12"], "NotEnoughBoundStates:"),
    (["solve-potential", "--potential-expr", "1/0"], "QuadratureOverflow:"),
    (["solve-potential", "--potential-expr", BARRIER, "--levels", "2"], NO_LEVEL),
    (["spectrum", "--potential-expr", BARRIER, "--particles", "2"], NO_LEVEL),
    (["solve-potential", "--potential-expr", "1.7e308*exp(-x^4)"],
     "QuadratureOverflow: Galerkin matrix has non-finite entries"),
]


def test_numeric_error_exit_code(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv, start in NUMERIC_FAILURES:
            assert main(argv + ["--out", str(tmp_path)]) == 3, argv
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(start), (argv, err)


def test_every_refusal_is_a_config_or_numeric_error(capsys, monkeypatch):
    # main has one handler for numeric refusals, so every exception class
    # that psesk defines is a ConfigError (exit 2) or a NumericError, which
    # exits 3 with one line labelled with its class name
    defined = {value for info in pkgutil.iter_modules(psesk.__path__)
               for value in vars(importlib.import_module(f"psesk.{info.name}")).values()
               if isinstance(value, type) and issubclass(value, Exception)
               and value.__module__ == f"psesk.{info.name}"}
    assert cli.ConfigError in defined and len(defined) >= 14
    for cls in sorted(defined - {cli.ConfigError}, key=lambda cls: cls.__name__):
        assert issubclass(cls, NumericError), cls
        exc = cls([0.5], 0.0) if cls is chiral.GapClosed else cls("no result")

        def refuse(cfg, exc=exc):
            raise exc
        monkeypatch.setitem(COMMANDS, "frft-check", refuse)
        assert main(["frft-check"]) == 3, cls
        assert capsys.readouterr().err.splitlines() == [f"{cls.__name__}: {exc}"], cls


def test_allocation_failure_exits_3(tmp_path, capsys, monkeypatch):
    from psesk import entanglement, phasespace

    def no_memory(message):
        def kernel(*args, **kwargs):
            raise MemoryError(*message)
        return kernel

    monkeypatch.setattr(entanglement, "pses_sweep", no_memory(["Unable to allocate 8 TiB"]))
    monkeypatch.setattr(phasespace, "wigner_of_state", no_memory([]))
    for argv, line in ((["spectrum", "--ho-slater", "0,1"], "Unable to allocate 8 TiB"),
                       (["wigner", "--ho-slater", "0"], "result too large to allocate")):
        assert main(argv + ["--out", str(tmp_path)]) == 3, argv
        assert capsys.readouterr().err.splitlines() == [f"MemoryError: {line}"], argv


def test_extreme_wigner_grid_widths_run(tmp_path):
    low, high = cli.MAX_POINTS * sys.float_info.min, sys.float_info.max / 4
    ok = KEYS["grid_half_width"].ok
    assert not ok(low * 0.99) and not ok(high * 1.01)
    for width in (low, high):
        for points in (2, 5, 161):
            argv = ["wigner", "--ho-slater", "0", "--grid-points", str(points),
                    "--grid-half-width", repr(width), "--out", str(tmp_path)]
            assert main(argv) == 0, argv


def test_wide_grid_high_index_wigner_is_finite(tmp_path):
    argv = ["wigner", "--ho-slater", "300", "--grid-half-width", "20", "--grid-points", "5"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    table = np.loadtxt(tmp_path / "wigner.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(table)) and np.all(table[:, 3] == 0.0)
    with np.errstate(all="ignore"):  # far out the closed form overflows
        closed = wigner_mn(300, 300, table[:, 0], table[:, 1])
    finite = np.isfinite(closed)
    assert np.max(np.abs(table[finite, 2] - closed[finite])) < 1e-12


def test_galerkin_basis_up_to_max_basis(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for basis in ("400", "1024"):
            out = tmp_path / basis
            assert main(["solve-potential", "--potential", "sho", "--levels", "3",
                         "--basis", basis, "--out", str(out)]) == 0
            energies = json.loads((out / "solve_potential_meta.json").read_text())["energies"]
            assert energies == pytest.approx([0.5, 1.5, 2.5], abs=1e-8)
        assert main(["winding", "--potential", "sho", "--particles", "2", "--basis", "400",
                     "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "winding.json").read_text())["nu_E"] == 1


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"state": {"ho_slater": [0, 1]}, "theta_points": 32}))
    rc = main(["spectrum", "--config", str(cfg), "--theta-points", "16",
               "--out", str(tmp_path)])
    assert rc == 0
    meta = json.loads((tmp_path / "spectrum_meta.json").read_text())
    assert meta["config"]["theta_points"] == 16
    _, rows = read_csv(tmp_path / "spectrum.csv")
    assert len(rows) == 16 * 2


def test_json_format_output(tmp_path):
    rc = main(["spectrum", "--ho-slater", "0,1", "--theta-points", "16",
               "--format", "json", "--out", str(tmp_path)])
    assert rc == 0
    rows = json.loads((tmp_path / "spectrum.json").read_text())
    assert len(rows) == 32
    assert set(rows[0]) == {"theta", "level", "epsilon"}


def test_frft_check_passes(capsys):
    assert main(["frft-check"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL" not in out


# ------------------------------------------------------------ boundary fuzz

# frft-check takes no state and runs a fixed 0.6 s oracle suite
FUZZ_COMMANDS = ["spectrum", "winding", "entropy-surface", "wigner", "solve-potential"]
# small valid sizes keep a run that succeeds to milliseconds
SMALL = {"theta_points": 16, "grid_points": 9, "t_points": 2, "basis": 12, "levels": 2}
# valid flag values; --out values stay inside the working directory
FLAG_VALUES = {
    "--out": ["o", "o/p"], "--theta-points": ["16", "64"], "--basis": ["4", "12", "40"],
    "--format": ["csv", "json"], "--gnuplot": [],
    "--t-points": ["1", "3"], "--grid-points": ["2", "41"], "--grid-half-width": ["2.5", "6", "40"],
    "--levels": ["1", "3"], "--ho-slater": ["0", "0,1", "1,2,3,4"],
    "--interpolated": ["0.3,1", "0.61,2.0944"], "--potential": ["sho", "double_well", "rosen_morse"],
    "--potential-expr": ["x^2/2", "exp(x^2)", "1/0"], "--particles": ["1", "3"],
    "--coherent": ["1", "0,1.5"],
}
# finite values, and the non-finite or oversized ones that must be rejected
NUMBER = st.one_of(st.floats(0, 1), st.sampled_from([math.nan, math.inf, 10**400, True]))
CONFIG_VALUES = {
    "out": st.sampled_from(["", "o", "o/p"]), "format": st.sampled_from(["csv", "json"]),
    "gnuplot": st.booleans(), "theta_points": st.sampled_from([16, 32, 64]),
    "basis": st.integers(1, 40), "t_points": st.integers(1, 3), "levels": st.integers(1, 4),
    "grid_points": st.integers(2, 41),
    "grid_half_width": st.one_of(st.floats(0.5, 8), st.sampled_from([1e200, 10**400])),
    "state": st.one_of(
        st.lists(st.integers(0, 11), min_size=1, max_size=4, unique=True).map(
            lambda v: {"ho_slater": sorted(v)}),
        st.builds(lambda t, phi: {"interpolated": {"t": t, "phi": phi}}, NUMBER, NUMBER),
        st.builds(lambda kind, n: {"potential_ground": {"kind": kind, "n": n}},
                  st.sampled_from(["sho", "double_well", "poschl_teller", "rosen_morse"]),
                  st.integers(1, 4)),
        st.sampled_from(["x^2/2", "1/0", "exp(x^2)"]).map(
            lambda e: {"potential_ground": {"kind": "custom", "expression": e}}),
        st.lists(NUMBER, min_size=1, max_size=2).map(lambda w: {"coherent": w}),
    ),
}
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from([2**24 + 2, 10**400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(st.characters(exclude_characters="/.\\"), max_size=3),  # an out value stays in cwd
    st.lists(st.one_of(st.integers(-1, 3), st.floats()), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
# one bad input per run, or none: a config value, a state part, or a flag
CORRUPTION = st.one_of(
    st.none(),
    st.tuples(st.just("config"), st.sampled_from([*KEYS, "thetapoints", "Basis"]), JUNK),
    st.tuples(st.just("state"), st.sampled_from(["ho_slater", "interpolated", "potential_ground",
                                                 "coherent", "squeezed"]), JUNK),
    st.tuples(st.just("flag"), st.sampled_from([*FLAG_VALUES, "--bogus", "-x", "--theta"]),
              st.one_of(st.sampled_from(["nan", "inf,1", "0.3,nan", "-1", "1e400", "0,,1", "x^", ""]),
                        st.text(alphabet="0123456789,-enaix", max_size=3))),
)


def command_flags(command):
    table = [*KEYS.items(), *STATE_FLAGS.items()]
    return ["--" + key.replace("_", "-") for key, (*_, commands, _) in table if command in commands]


def flag_with_value(command):
    flag = st.sampled_from(command_flags(command))
    return flag.flatmap(lambda f: st.sampled_from([[f, v] for v in FLAG_VALUES[f]] or [[f]]))


CASES = st.tuples(
    st.sampled_from(FUZZ_COMMANDS).flatmap(
        lambda c: st.tuples(st.just(c), st.lists(flag_with_value(c), max_size=3))),
    st.fixed_dictionaries({}, optional=CONFIG_VALUES),
    CORRUPTION,
)


def nan_written(path) -> bool:
    """Whether a written file holds a NaN number: a JSON constant, or a CSV or
    gnuplot cell that parses as one.  Text such as an out path "nan" is not."""
    constants = []
    if path.suffix == ".json":
        json.loads(path.read_text(), parse_constant=constants.append)
        return "NaN" in constants
    for cell in path.read_text().replace(",", " ").split():
        try:
            if math.isnan(float(cell)):
                return True
        except ValueError:  # a header or parity cell
            pass
    return False


def test_nan_oracle(tmp_path):
    for name, text, nan in [("a.json", '{"out": "nan", "x": [Infinity, "+inf"]}', False),
                            ("b.json", '[{"w": NaN}]', True), ("c.csv", "n,parity\n1,asym\n", False),
                            ("d.csv", "x,w\n0.5,nan\n", True), ("e.dat", "2 -inf +inf\n", False),
                            ("f.dat", "2 0.0 NaN\n", True)]:
        (tmp_path / name).write_text(text)
        assert nan_written(tmp_path / name) is nan, name


def case_state(argv, config) -> dict:
    """The config's state after the state flags in ``argv``, merged as
    resolve_config merges them."""
    state = cli._merge_state(config.get("state"), vars(build_parser().parse_args(argv)))
    return state if type(state) is dict else {}


def small_sizes(state) -> dict:
    """SMALL less what the state rejects: basis for a coherent state, levels
    for a state that sets its own n."""
    rejected = {"basis"} if "coherent" in state else set()
    if "n" in (state.get("potential_ground") or {}):
        rejected.add("levels")
    return {key: value for key, value in SMALL.items() if key not in rejected}


def test_cli_boundary_fuzz(capsys, monkeypatch):
    reached = set()  # uncorrupted successful runs of the paths that need their own sizes

    # the draw reaches each of these paths about once in 300 cases, so one
    # example of each pins them whatever the draw
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(CASES)
    @example((("wigner", [["--coherent", "0,1.5"]]), {}, None))
    @example((("solve-potential", []), {"state": {"potential_ground": {"kind": "sho", "n": 3}}},
              None))
    def run(case):
        (command, flags), config, corruption = case
        argv = [command, *(token for flag in flags for token in flag)]
        state = case_state(argv, config)
        config = {**small_sizes(state), **config}
        if corruption is not None:
            where, key, value = corruption
            if where == "config":
                config[key] = value
            elif where == "state":
                config["state"] = {**(config.get("state") or {}), key: value}
            else:
                argv += [key, value]
        with tempfile.TemporaryDirectory() as work:
            monkeypatch.chdir(work)
            Path(work, "cfg.json").write_text(json.dumps(config))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc = main(argv + ["--config", "cfg.json"])
            err = capsys.readouterr().err.splitlines()
            assert rc in (0, 2, 3, 4), (argv, config, rc)
            if rc != 0:
                assert len(err) == 1 and not caught, (argv, config, err,
                                                      [str(w.message) for w in caught])
            else:  # no meaningless result: every written number is finite or a +-inf energy
                outputs = [p for p in Path(work).rglob("*") if p.is_file() and p.name != "cfg.json"]
                assert not any(map(nan_written, outputs)), (argv, config)
                n = (state.get("potential_ground") or {}).get("n")
                if corruption is None and command == "wigner" and "coherent" in state:
                    reached.add("coherent wigner")
                if corruption is None and command == "solve-potential" and n not in (
                        None, SMALL["levels"]):
                    reached.add("solve-potential with the state's own n")

    run()
    assert reached == {"coherent wigner", "solve-potential with the state's own n"}


def test_spectrum_rows_are_made_as_they_are_written(tmp_path):
    # the tables hold no row list: the command peaks where its sweep does
    from psesk import entanglement

    k = 2**16
    tracemalloc.start()
    try:
        assert main(["spectrum", "--ho-slater", "0,1", "--theta-points", str(k),
                     "--out", str(tmp_path)]) == 0
        command = tracemalloc.get_traced_memory()[1]
        thetas = np.linspace(0.0, 2.0 * math.pi, k, endpoint=False)
        tracemalloc.reset_peak()
        entanglement.pses_sweep(ho_slater([0, 1]), thetas)
        sweep = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert command <= 1.5 * sweep, (command, sweep)
    assert len(read_csv(tmp_path / "spectrum.csv")[1]) == 2 * k


def readme_examples():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("Examples:", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0] for line in block.splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("psesk ")]


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    examples = readme_examples()
    assert len(examples) >= 4
    monkeypatch.chdir(tmp_path)
    for argv in examples:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if argv[0] == "winding":
            assert "nu_E = 2" in out, argv


@pytest.mark.parametrize("script", ["entropy_polar", "flat_band_spectra",
                                    "potential_well_spectra", "wigner_gallery"])
def test_scripts_exit_nonzero_when_a_command_fails(script, tmp_path, monkeypatch):
    # an output directory below a plain file cannot be written: every command exits 2
    blocked = tmp_path / "file"
    blocked.write_text("")
    path = Path(__file__).parents[1] / "scripts" / f"{script}.py"
    monkeypatch.setattr(sys, "argv", [str(path), "--out", str(blocked)])
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(path), run_name="__main__")
    assert stop.value.code == 2


WELL = {"--potential", "--potential-expr", "--particles"}
FLAG_SETS = {
    "spectrum": {"--out", "--theta-points", "--basis", "--format", "--gnuplot", "--ho-slater",
                 "--interpolated"} | WELL,
    "winding": {"--out", "--basis", "--ho-slater", "--interpolated"} | WELL,
    "entropy-surface": {"--out", "--theta-points", "--format", "--t-points", "--interpolated"},
    "wigner": {"--out", "--basis", "--format", "--gnuplot", "--grid-points", "--grid-half-width",
               "--ho-slater", "--interpolated", "--coherent"} | WELL,
    "solve-potential": {"--out", "--basis", "--format", "--levels"} | WELL,
    "frft-check": set(),
}


def readme_flag_commands():
    """The README flags table: each flag and the commands its row names."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    rows = [line.split("|") for line in text.splitlines() if line.startswith("| `--")]
    table = {}
    for _, flags, _, commands, *_ in rows:
        commands = commands.strip()
        names = (set(COMMANDS) - {commands[len("all but "):]} if commands.startswith("all but ")
                 else set(commands.split(", ")))
        table.update((flag, names) for flag in re.findall(r"`(--[a-z-]+)", flags))
    return table


def test_command_flag_sets():
    # every flag a command takes is one it reads, and --config comes with any flag
    want = {name: flags | {"--config"} if flags else flags for name, flags in FLAG_SETS.items()}
    assert sum(len(flags - {"--config"}) for flags in want.values()) == 41
    subparsers = build_parser()._subparsers._group_actions[0].choices
    got = {name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
           for name, sub in subparsers.items()}
    assert got == want
    flags = set().union(*want.values())
    assert readme_flag_commands() == {f: {c for c in want if f in want[c]} for f in flags}
    assert resolve_config(build_parser().parse_args(["frft-check"])) == {}


# the config keys each command reads, besides its state
READS = {
    "spectrum": {"out", "theta_points", "basis", "format", "gnuplot"},
    "winding": {"out", "basis"},
    "entropy-surface": {"out", "theta_points", "format", "t_points"},
    "wigner": {"out", "basis", "format", "gnuplot", "grid_points", "grid_half_width"},
    "solve-potential": {"out", "basis", "format", "levels"},
}
RUNS = {
    "spectrum": (["--ho-slater", "0,1"], "spectrum_meta.json"),
    "winding": (["--ho-slater", "0,1"], "winding.json"),
    "entropy-surface": (["--interpolated", "0,1"], "entropy_surface_meta.json"),
    "wigner": (["--ho-slater", "0"], "wigner_meta.json"),
    "solve-potential": (["--potential", "sho"], "solve_potential_meta.json"),
}
# a good and a bad value of each key that some command does not read
OTHER_KEYS = {"theta_points": (16, 15), "basis": (12, 0), "format": ("json", "xml"),
              "gnuplot": (True, "no"), "t_points": (2, 0),
              "grid_points": (9, 1), "grid_half_width": (2.0, -1.0), "levels": (2, 0)}


class Reads(dict):
    """A config that records the keys a command reads."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("command", READS)
def test_sidecar_config_is_what_the_command_reads(tmp_path, monkeypatch, capsys, command):
    argv, sidecar = RUNS[command]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: good for key, (good, _) in OTHER_KEYS.items()}))
    configs = []

    def recorded(args):
        configs.append(Reads(resolve_config(args)))
        return configs[-1]

    monkeypatch.setattr(cli, "resolve_config", recorded)
    assert main([command, *argv, "--config", str(cfg), "--out", str(tmp_path)]) == 0
    written = json.loads((tmp_path / sidecar).read_text())["config"]
    assert configs[0].read == set(written) == READS[command] | {"state"}
    # another command's key is still checked when its value is bad
    for key in OTHER_KEYS.keys() - READS[command]:
        cfg.write_text(json.dumps({key: OTHER_KEYS[key][1]}))
        assert main([command, *argv, "--config", str(cfg), "--out", str(tmp_path)]) == 2, key
        assert capsys.readouterr().err.startswith(f"config error: {key} must be"), key
