import json
import math

import numpy as np
import pytest

from psesk.cli import main


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
    from psesk.cli import fmt_float

    assert fmt_float(math.inf) == "+inf"
    assert fmt_float(-math.inf) == "-inf"
    assert fmt_float(0.5) == "0.5"
    # shortest round-trip representation survives parsing
    assert float(fmt_float(2.1855269934031036)) == 2.1855269934031036


def test_spectrum_asymmetric_state_reports_null_chiral_data(tmp_path):
    rc = main(
        ["spectrum", "--potential", "rosen_morse", "--particles", "2",
         "--theta-points", "16", "--out", str(tmp_path)]
    )
    assert rc == 0
    meta = json.loads((tmp_path / "spectrum_meta.json").read_text())
    assert meta["inversion_symmetric"] is False
    assert meta["nu_e"] is None and meta["n_even"] is None


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
    (["entropy-surface", "--interpolated", "0,1", "--t-points", "0"], None),
    (["solve-potential", "--potential", "sho", "--levels", "0"], None),
    (["solve-potential", "--potential", "sho", "--particles", "0"], None),
    (["wigner", "--ho-slater", "0", "--grid-half-width", "-1"], None),
    (["wigner", "--ho-slater", "0", "--grid-points", "1"], None),
    (["winding", "--ho-slater", "0,1"], {"basis": "x"}),
    (["winding", "--ho-slater", "0,1"], {"winding_grid": 2.5}),
    (["spectrum", "--ho-slater", "0,1"], {"theta_points": "32"}),
    (["entropy-surface", "--interpolated", "0,1"], {"t_points": "5"}),
    (["wigner", "--ho-slater", "0"], {"grid_half_width": "x"}),
    (["wigner", "--ho-slater", "0"], {"grid_points": True}),
]


def test_config_error_exit_codes(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for argv, config in BAD_INPUTS:
        if config is not None:
            cfg.write_text(json.dumps(config))
            argv = argv + ["--config", str(cfg)]
        assert main(argv + ["--out", str(tmp_path)]) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), (argv, err)


def test_winding_beyond_old_table_cap(tmp_path):
    rc = main(["winding", "--ho-slater", "0,1", "--basis", "300", "--out", str(tmp_path)])
    assert rc == 0
    assert json.loads((tmp_path / "winding.json").read_text())["nu_E"] == 1


def test_numeric_error_exit_code(tmp_path, capsys):
    rc = main(["solve-potential", "--potential", "poschl_teller", "--levels", "12",
               "--out", str(tmp_path)])
    assert rc == 3
    assert "NotEnoughBoundStates" in capsys.readouterr().err


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
