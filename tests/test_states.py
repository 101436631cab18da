import math

import numpy as np
import pytest

from psesk.states import SlaterState, ho_slater, interpolated_state


def test_ho_slater_rows_are_unit_vectors():
    s = ho_slater([0, 2, 5])
    assert s.n_particles == 3
    assert s.basis_size == 6
    assert s.coeffs[1, 2] == 1.0
    assert np.count_nonzero(s.coeffs) == 3


def test_ho_slater_rejects_unsorted_indices():
    with pytest.raises(ValueError):
        ho_slater([2, 1])
    with pytest.raises(ValueError):
        ho_slater([0, 0])
    with pytest.raises(ValueError):
        ho_slater([0, 3], basis_size=3)


def test_orthonormality_enforced():
    bad = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        SlaterState(bad)
    # a NaN deviation is not within tolerance
    with pytest.raises(ValueError):
        SlaterState(np.array([[1.0, 0.0], [np.nan, 1.0]]))


@pytest.mark.parametrize("deviation, refused", [(1e-7, True), (1e-9, False)])
def test_the_orthonormality_tolerance_decides_the_check(deviation, refused):
    # Gram deviations of 10 and 0.1 times ORTHONORMALITY_TOL = 1e-8, on the
    # diagonal and off it
    norm = np.eye(2, dtype=complex)
    norm[0] *= math.sqrt(1.0 + deviation)
    tilt = np.array([[1.0, 0.0], [deviation, math.sqrt(1.0 - deviation**2)]], dtype=complex)
    for rows in (norm, tilt):
        assert np.max(np.abs(rows @ rows.conj().T - np.eye(2))) == pytest.approx(deviation)
        if refused:
            with pytest.raises(ValueError, match="not orthonormal"):
                SlaterState(rows)
        else:
            assert np.array_equal(SlaterState(rows).coeffs, rows)


def test_interpolated_endpoints():
    gs = interpolated_state(0.0, 0.3)
    assert np.allclose(gs.coeffs[0], [1, 0, 0])
    es = interpolated_state(1.0, 0.3)
    assert abs(es.coeffs[0, 2]) == pytest.approx(1.0, abs=1e-15)
    assert np.angle(es.coeffs[0, 2]) == pytest.approx(-0.3, abs=1e-12)


def test_interpolated_is_normalized_for_all_t():
    for t in np.linspace(0, 1, 11):
        s = interpolated_state(float(t), 2 * math.pi / 3)
        assert s.n_particles == 2


@pytest.mark.parametrize("phase", [0.0, 1.0, 2 * math.pi / 3])
def test_interpolated_t_is_reduced_by_its_period(phase):
    # pi t / 2 of t = 1e308 overflows; 1e308 is a multiple of the period 4
    assert np.array_equal(interpolated_state(1e308, phase).coeffs,
                          interpolated_state(0.0, phase).coeffs)
    assert np.array_equal(interpolated_state(5.0, phase).coeffs,
                          interpolated_state(1.0, phase).coeffs)


def test_rotate_by_unitary_keeps_orthonormality():
    s = ho_slater([0, 1])
    u = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)
    r = SlaterState(u @ s.coeffs)
    assert isinstance(r, SlaterState)
    assert r.coeffs[0, 0] == pytest.approx(1 / math.sqrt(2))


def test_state_holds_a_read_only_copy_of_its_rows():
    rows = ho_slater([0, 1, 2, 3], 8).coeffs.copy()
    s = SlaterState(rows)
    assert s.coeffs is not rows and not np.shares_memory(s.coeffs, rows)
    rows[0, 0] = 7.0
    assert s.coeffs[0, 0] == 1.0
    with pytest.raises(ValueError):
        s.coeffs[0, 0] = 7.0


def test_states_compare_by_identity_and_hash():
    s = ho_slater([0, 1])
    twin = SlaterState(s.coeffs)
    assert s == s and s != twin
    assert {s: 1, twin: 2}[s] == 1
