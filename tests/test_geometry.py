"""Addition-formula quadrics and the exact intersection tetrahedra over
plus-quadruples."""

from itertools import product

import mpmath as mp
import numpy as np
import pytest

from azy5 import cli
from azy5.chars import EVEN_CHARS, M0, even_quadruples
from azy5.forms import face_product, p2
from azy5.geometry import (_CANDIDATES, _UNITS, ADDITION_TABLE,
                           addition_residuals, all_faces, all_tetrahedra, f_m,
                           faces_from_vertices, quadric_value, tetrahedron)
from azy5.siegel import sample_taus
from azy5.theta import ThetaValue, theta_constant, theta_second_vector

UNITS = {0, 1, -1, 1j, -1j}


def _face_at(face, x):
    return sum(a * v for a, v in zip(face, x))


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
        residuals = addition_residuals(tau)
        assert set(residuals) == set(EVEN_CHARS)
        assert max(residuals.values()) < 1e-10


def test_addition_residuals_evaluate_theta_once(taus, monkeypatch):
    """One run for the four second-order and one for the ten first-order
    constants, and the residuals of the single-constant route, bit for
    bit."""
    import azy5.geometry as geometry
    tau = taus[0]
    x = [t.value for t in theta_second_vector(tau)]
    ref = {}
    for m in EVEN_CHARS:
        th = theta_constant(m, tau).value
        ref[m] = abs(th * th - quadric_value(m, x))
    calls = []

    def counted(name):
        fn = getattr(geometry, name)

        def wrapper(*a, **kw):
            calls.append(name)
            return fn(*a, **kw)
        return wrapper

    for name in ("theta_second_vector", "theta_all_even"):
        monkeypatch.setattr(geometry, name, counted(name))
    assert addition_residuals(tau) == ref
    assert sorted(calls) == ["theta_all_even", "theta_second_vector"]


def test_addition_formulas_odd_are_trivial(taus):
    # odd characteristics are not in the table at all
    assert 5 not in ADDITION_TABLE


def test_standard_tetrahedron_is_coordinate_simplex():
    T = tetrahedron(M0)
    assert T.quad == M0
    assert T.complement == tuple(sorted(set(EVEN_CHARS) - M0))
    assert all(quadric_value(n, v) == 0 for n in T.complement for v in T.vertices)
    assert set(T.vertices) == {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)}
    # faces are exactly the coordinate forms, so F_M0 = X0 X1 X2 X3 exactly
    assert set(T.faces) == set(T.vertices)


def test_standard_form_is_coordinate_monomial():
    T = tetrahedron(M0)
    x = (0.3 + 0.1j, -1.2, 0.7j, 2.0 - 0.5j)
    prod = x[0] * x[1] * x[2] * x[3]
    got = face_product(T.faces, [ThetaValue(v, 0.0) for v in x], False).value
    assert abs(got - prod) < 1e-9 * abs(prod)


def test_f_m_on_standard_quadruple_is_p2(taus):
    for tau in taus[:2]:
        a = f_m(M0, tau).value
        b = p2(tau).value
        assert abs(a - b) < 1e-12 * max(1.0, abs(b))


def test_hiprec_f_m_is_formed_at_working_precision(monkeypatch):
    """F at 50 digits (constants to eps 1e-30) against the same product at
    70 digits: agreement far below double precision, which a product
    rounded at 53 bits cannot reach."""
    import azy5.numeric as numeric
    tau = sample_taus(0, 1)[0]
    with monkeypatch.context() as m, mp.workdps(70):
        m.setattr(numeric, "HIPREC_DPS", 70)
        x = [t.value for t in theta_second_vector(tau, 1e-60, True)]
    for quad in even_quadruples("plus")[:3]:
        got = f_m(quad, tau, 1e-30, True).value
        with monkeypatch.context() as m, mp.workdps(70):
            m.setattr(numeric, "HIPREC_DPS", 70)
            want = face_product(tetrahedron(frozenset(quad)).faces,
                                [ThetaValue(v, 0.0) for v in x], True).value
            assert abs(got - want) < 1e-25 * abs(want)


def _dense_quadric(m, x):
    q = ADDITION_TABLE[m]
    return sum(q[i][j] * x[i] * x[j] for i in range(4) for j in range(4))


def test_sparse_quadric_matches_dense_sum(taus):
    """quadric_value reads the four nonzero entries of Q_m; the dense
    16-term sum agrees exactly on all 625 points of {0, +-1, +-i}^4, the
    156 candidates of the vertex search among them, and bit for bit at
    theta values in both precisions."""
    assert len(_CANDIDATES) == 156
    points = [[t.value for t in theta_second_vector(tau, 1e-12, hiprec)]
              for tau in taus[:2] for hiprec in (False, True)]
    for m in EVEN_CHARS:
        for p in product(_UNITS, repeat=4):
            assert quadric_value(m, p) == _dense_quadric(m, p)
        for x in points:
            assert quadric_value(m, x) == _dense_quadric(m, x)


def test_all_fifteen_tetrahedra():
    """Four vertices in {0, +-1, +-i}^4 per plus-quadruple, each on the
    six complement quadrics exactly."""
    tets = all_tetrahedra()
    assert len(tets) == 15
    for quad, T in tets.items():
        assert len(T.vertices) == 4
        for v in T.vertices:
            assert set(v) <= UNITS
            assert next(z for z in v if z) == 1
        for n in T.complement:
            for v in T.vertices:
                assert quadric_value(n, v) == 0


def test_faces_vanish_exactly_on_their_vertices():
    for T in all_tetrahedra().values():
        for i, face in enumerate(T.faces):
            assert set(face) <= UNITS
            assert next(a for a in face if a) == 1
            for j, v in enumerate(T.vertices):
                assert (_face_at(face, v) == 0) == (i != j)


def test_sixty_distinct_faces():
    faces = all_faces()
    assert len(faces) == 60
    assert len(set(faces)) == 60
    tets = [tetrahedron(frozenset(q)) for q in even_quadruples("plus")]
    assert faces == tuple(f for T in tets for f in T.faces)


def test_f_m_shares_the_all_tetrahedra_cache(taus):
    """f_m reuses the tetrahedra all_tetrahedra() found: fifteen
    searches in all, none repeated."""
    tetrahedron.cache_clear()
    all_tetrahedra(seed=0)
    for quad in even_quadruples("plus"):
        f_m(quad, taus[0])
    assert tetrahedron.cache_info().misses == 15


def test_cli_seeds_do_not_repeat_the_search(tmp_path):
    """The CLI seed does not reach the tetrahedra: verify --seed 1 and
    geometry, which takes no seed, in one process find each tetrahedron
    once."""
    tetrahedron.cache_clear()
    all_faces.cache_clear()
    assert cli.main(["verify", "--seed", "1", "--samples", "2"]) == 0
    assert cli.main(["geometry"]) == 0
    assert tetrahedron.cache_info().misses == 15


def test_vertices_are_projectively_distinct():
    """Vertices are normalized (first nonzero coordinate 1), so distinct
    points are distinct tuples; they also span P^3."""
    for T in all_tetrahedra().values():
        assert len(set(T.vertices)) == 4
        assert abs(np.linalg.det(np.array(T.vertices))) > 0.5


def test_tetrahedron_rejects_non_plus():
    with pytest.raises(ValueError):
        tetrahedron(frozenset(even_quadruples("minus")[0]))
    with pytest.raises(ValueError):
        tetrahedron(frozenset(even_quadruples("star")[0]))


def test_faces_reject_degenerate_vertices():
    with pytest.raises(RuntimeError):
        faces_from_vertices(((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0)))
    # four coplanar points, no three collinear
    with pytest.raises(RuntimeError):
        faces_from_vertices(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0)))

