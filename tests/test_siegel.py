"""Siegel points are genus 2: the constructor and the JSON format accept
2 x 2 points only."""

import pytest

from azy5.siegel import TAU_I, SiegelPoint


def test_only_2x2_points():
    with pytest.raises(ValueError):
        SiegelPoint([[0.3 + 1.1j]])
    with pytest.raises(ValueError):
        SiegelPoint([[1j, 0, 0], [0, 1j, 0], [0, 0, 1j]])
    assert SiegelPoint([[1j, 0], [0, 1j]]).lam_min == 1.0


def test_json_roundtrip_and_genus1_rejected():
    data = TAU_I.to_json()
    assert data["g"] == 2
    assert (SiegelPoint.from_json(data).mat == TAU_I.mat).all()
    with pytest.raises(ValueError):
        SiegelPoint.from_json({"g": 1, "entries": [[[0.3, 1.1]]]})
    with pytest.raises(ValueError):
        SiegelPoint.from_json({"g": 1, "entries": data["entries"]})


def test_symmetry_tolerance():
    """The off-diagonal pair may differ by 1e-12 (1 + the largest entry
    modulus): a point within that is accepted with the mean of the pair
    on both sides, and one beyond it raises."""
    a, b, d = 0.1 + 2.0j, -0.2 + 0.3j, 0.4 + 1.5j
    tol = 1e-12 * (1 + abs(a))
    p = SiegelPoint([[a, b + 0.9 * tol], [b, d]])
    assert p.mat[0, 1] == p.mat[1, 0] == (b + 0.9 * tol + b) / 2
    assert p.mat[0, 0] == a and p.mat[1, 1] == d
    for delta in (1.1 * tol, 1.1j * tol):
        with pytest.raises(ValueError, match="symmetric"):
            SiegelPoint([[a, b + delta], [b, d]])


def test_non_finite_entries_rejected():
    for bad in (float("nan"), float("inf"), complex(0, float("nan"))):
        with pytest.raises(ValueError, match="finite"):
            SiegelPoint([[bad, 0.1], [0.1, 1j]])
