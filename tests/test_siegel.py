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
