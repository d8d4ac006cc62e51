"""Addition-formula quadrics and the intersection tetrahedra over
plus-quadruples."""

import numpy as np
import pytest

from azy5.chars import EVEN_CHARS, M0, even_quadruples
from azy5.forms import p2
from azy5.geometry import (ADDITION_TABLE, Tetrahedron, addition_residual,
                           all_tetrahedra, f_m, faces_from_vertices,
                           intersect_quadrics, normalize_point,
                           point_distance, quadric_value, tetrahedron)


def test_table_structure():
    assert set(ADDITION_TABLE) == set(EVEN_CHARS)
    for m, q in ADDITION_TABLE.items():
        arr = np.array(q)
        assert arr.shape == (4, 4)
        assert (arr == arr.T).all()
        assert arr.dtype.kind == "i" or all(isinstance(v, int) for row in q for v in row)
    # the coordinate quadruple's own quadrics are diagonal, the rest are not
    for m in (0, 1, 2, 3):
        assert all(ADDITION_TABLE[m][i][j] == 0 for i in range(4) for j in range(4) if i != j)
    for m in (4, 6, 8, 9, 12, 15):
        assert all(ADDITION_TABLE[m][i][i] == 0 for i in range(4))


def test_addition_formulas(taus):
    for tau in taus[:3]:
        for m in EVEN_CHARS:
            assert addition_residual(m, tau) < 1e-10


def test_addition_formulas_odd_are_trivial(taus):
    # odd characteristics are not in the table at all
    assert 5 not in ADDITION_TABLE


def test_normalize_point():
    p = normalize_point((2j, 1, 0, 0))
    assert p == (1, -0.5j, 0, 0)
    with pytest.raises(ValueError):
        normalize_point((0, 0, 0, 0))


def test_point_distance():
    assert point_distance((1, 0, 0, 0), (3j, 0, 0, 0)) < 1e-15
    assert abs(point_distance((1, 0, 0, 0), (0, 1, 0, 0)) - 1) < 1e-15


def test_standard_tetrahedron_is_coordinate_simplex():
    T = tetrahedron(M0)
    assert T.quad == M0
    assert T.complement == tuple(sorted(set(EVEN_CHARS) - M0))
    assert T.residual < 1e-12
    expected = {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)}
    for v in T.vertices:
        nearest = min(expected, key=lambda e: point_distance(v, e))
        assert point_distance(v, nearest) < 1e-10
        expected.discard(nearest)
    assert not expected
    # faces are exactly the coordinate forms
    for f in T.faces:
        arr = np.array(f)
        k = int(np.argmax(np.abs(arr)))
        assert abs(arr[k] - 1) < 1e-10
        assert np.max(np.abs(np.delete(arr, k))) < 1e-10


def test_standard_form_is_coordinate_monomial():
    T = tetrahedron(M0)
    x = (0.3 + 0.1j, -1.2, 0.7j, 2.0 - 0.5j)
    prod = x[0] * x[1] * x[2] * x[3]
    assert abs(T.form_value(x) - prod) < 1e-9 * abs(prod)


def test_f_m_on_standard_quadruple_is_p2(taus):
    for tau in taus[:2]:
        a = f_m(M0, tau)
        b = p2(tau).value
        assert abs(a - b) < 1e-12 * max(1.0, abs(b))


def test_all_fifteen_tetrahedra():
    tets = all_tetrahedra()
    assert len(tets) == 15
    for quad, T in tets.items():
        assert len(T.vertices) == 4
        assert T.residual < 1e-8
        # every vertex coordinate is zero or a fourth root of unity
        for v in T.vertices:
            for z in v:
                assert min(abs(z - t) for t in (-1, 0, 1, 1j, -1j)) < 1e-9
        for n in T.complement:
            for v in T.vertices:
                assert abs(quadric_value(n, v)) < 1e-8


def test_f_m_shares_the_all_tetrahedra_cache(taus):
    """f_m reuses the tetrahedra all_tetrahedra(seed=0) solved: fifteen
    solves in all, none repeated."""
    tetrahedron.cache_clear()
    all_tetrahedra(seed=0)
    for quad in even_quadruples("plus"):
        f_m(quad, taus[0])
    assert tetrahedron.cache_info().misses == 15


def test_vertices_are_projectively_distinct():
    for T in all_tetrahedra().values():
        for i in range(4):
            for j in range(i + 1, 4):
                assert point_distance(T.vertices[i], T.vertices[j]) > 0.1


def test_tetrahedron_rejects_non_plus():
    with pytest.raises(ValueError):
        tetrahedron(frozenset(even_quadruples("minus")[0]))
    with pytest.raises(ValueError):
        tetrahedron(frozenset(even_quadruples("star")[0]))


def test_faces_reject_degenerate_vertices():
    with pytest.raises(RuntimeError):
        faces_from_vertices(((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0)))


def test_intersect_quadrics_seed_stability():
    comp = tuple(sorted(set(EVEN_CHARS) - M0))
    mats = [ADDITION_TABLE[n] for n in comp]
    a = intersect_quadrics(mats, seed=0)
    b = intersect_quadrics(mats, seed=7)
    for p, q in zip(a, b):
        assert point_distance(p, q) < 1e-9
