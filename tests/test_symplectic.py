"""Exact Sp(4,Z) arithmetic, subgroup membership, coset transversals, and
the action on the upper half-space."""

import hashlib
import warnings

import mpmath as mp
import numpy as np
import pytest

from azy5.chars import M0, act_set, even_quadruples
from azy5.numeric import m2_det, value_prec
from azy5.siegel import TAU_I, SiegelPoint
from azy5.symplectic import (_COLUMN_OPS, E11, ESYM, FULL, GENERATORS,
                             IDENTITY, J, PRINCIPAL2, THETA0_2,
                             SymplecticMatrix, act_tau, coset_reps,
                             gl_rotation, lower_translation, random_word,
                             transform, translation)
from reference import in_subgroup, inverse, principal2_word, word_matrix


def test_generators_are_symplectic():
    for g in GENERATORS:
        SymplecticMatrix(g.to_rows())  # re-validates the symplectic relations


def test_constructor_rejects_nonsymplectic():
    with pytest.raises(ValueError):
        SymplecticMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 1]])
    with pytest.raises(ValueError):
        SymplecticMatrix([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def test_block_roundtrip():
    g = J @ translation(ESYM)
    h = SymplecticMatrix.from_blocks(g.a, g.b, g.c, g.d)
    assert h == g


def test_inverse(full_words):
    for g in full_words(20, 6):
        assert g @ inverse(g) == IDENTITY
        assert inverse(g) @ g == IDENTITY


def test_word_matrix_matches_products():
    w = (0, 1, 0, 2, 3)
    m = IDENTITY
    for i in w:
        m = m @ GENERATORS[i]
    assert word_matrix(w) == m


def test_immutability():
    with pytest.raises(AttributeError):
        J.rows = None


def test_membership_basics():
    assert in_subgroup(J, FULL)
    assert not in_subgroup(J, THETA0_2)
    assert in_subgroup(translation(E11), THETA0_2)
    assert in_subgroup(lower_translation(((2, 0), (0, 0))), THETA0_2)
    assert not in_subgroup(translation(E11), PRINCIPAL2)
    assert in_subgroup(translation(((2, 0), (0, 0))), PRINCIPAL2)


def test_random_words_land_in_their_subgroup(rng):
    for spec in (FULL, THETA0_2):
        for _ in range(15):
            g = random_word(spec, rng, 6)
            assert in_subgroup(g, spec)
    for _ in range(15):
        assert in_subgroup(principal2_word(rng, 6), PRINCIPAL2)
    # principal(2) sits inside theta0(2)
    for _ in range(10):
        assert in_subgroup(principal2_word(rng, 6), THETA0_2)


def test_stabilizer_membership_criterion(rng):
    """gamma fixes the coordinate quadruple M0 setwise exactly when its c
    block is even."""
    for _ in range(60):
        g = random_word(FULL, rng, 6)
        assert (act_set(g, M0) == M0) == in_subgroup(g, THETA0_2)


def test_subgroup_spec_validation(rng):
    assert (FULL, PRINCIPAL2, THETA0_2) == ("Sp(4,Z)", "principal(2)", "theta0(2)")
    for spec in ("weird", "principal(4)", "theta0(4)"):
        with pytest.raises(ValueError):
            in_subgroup(J, spec)
        with pytest.raises(ValueError):
            random_word(spec, rng, 3)


def test_coset_system_theta0():
    system = coset_reps(THETA0_2)
    assert system.index == 15
    assert system.reps[0] == IDENTITY
    assert system.words[0] == ()
    for g, w in zip(system.reps, system.words):
        assert word_matrix(w) == g
    # distinct cosets = distinct images of M0 under the inverses,
    # covering every plus quadruple exactly once
    keys = {act_set(inverse(g), M0) for g in system.reps}
    assert len(keys) == 15
    assert keys == {frozenset(q) for q in even_quadruples("plus")}


def test_coset_system_principal2():
    system = coset_reps(PRINCIPAL2)
    assert system.index == 720
    keys = {g.mod2_key() for g in system.reps}
    assert len(keys) == 720
    assert system.reps[0] == IDENTITY


def _reference_bfs(key_fn, expected):
    """The breadth-first search by generic 4 x 4 products, carrying each
    inverse along as gen^-1 @ inv: the reference for the column-operation
    search of coset_reps."""
    reps, words = [IDENTITY], [()]
    seen = {key_fn(IDENTITY, IDENTITY)}
    frontier = [(IDENTITY, IDENTITY, ())]
    gen_inv = [inverse(g) for g in GENERATORS]
    while len(reps) < expected:
        nxt = []
        for mat, inv, word in frontier:
            for gi, gen in enumerate(GENERATORS):
                nm, ninv = mat @ gen, gen_inv[gi] @ inv
                k = key_fn(nm, ninv)
                if k not in seen and len(reps) < expected:
                    seen.add(k)
                    reps.append(nm)
                    words.append(word + (gi,))
                    nxt.append((nm, ninv, word + (gi,)))
        frontier = nxt
    return tuple(reps), tuple(words)


@pytest.mark.parametrize("spec,key_fn,expected", [
    (THETA0_2, lambda m, inv: act_set(inv, M0), 15),
    (PRINCIPAL2, lambda m, inv: m.mod2_key(), 720)])
def test_coset_reps_match_reference_search(spec, key_fn, expected):
    system = coset_reps(spec)
    reps, words = _reference_bfs(key_fn, expected)
    assert system.words == words
    assert system.reps == reps
    assert all(type(x) is int for g in system.reps for row in g.rows for x in row)


def test_column_operations_are_right_multiplication(rng):
    assert len(_COLUMN_OPS) == len(GENERATORS)
    for _ in range(40):
        m = random_word(FULL, rng, rng.randrange(1, 10))
        for op, g in zip(_COLUMN_OPS, GENERATORS):
            assert tuple(map(op, m.rows)) == (m @ g).rows


def test_principal2_words_are_pinned():
    words = " ".join("".join("JABC"[i] for i in w) or "1"
                     for w in coset_reps(PRINCIPAL2).words)
    assert hashlib.sha256(words.encode()).hexdigest() == (
        "610fd6ed960d0b03df53c4d827401e054757a4914a32d4d022b3343910b32222")


def test_coset_reps_is_cached():
    for spec in (THETA0_2, PRINCIPAL2):
        assert coset_reps(spec) is coset_reps(spec)


def test_unsupported_transversal():
    for spec in (FULL, "theta0(4)"):
        with pytest.raises(ValueError):
            coset_reps(spec)


def test_act_tau_translation(taus):
    tau = taus[0]
    moved = act_tau(translation(E11), tau)
    want = np.array(tau.mat) + np.array([[1, 0], [0, 0]])
    assert np.allclose(moved.mat, want, rtol=0, atol=1e-15)


def test_act_tau_inversion_fixed_point(tau_i):
    # J fixes i*identity
    moved = act_tau(J, tau_i)
    assert np.allclose(moved.mat, tau_i.mat, rtol=0, atol=1e-14)


def test_act_tau_composition(taus, full_words):
    tau = taus[1]
    for g in full_words(5, 4):
        for h in full_words(3, 3):
            one = act_tau(g @ h, tau)
            two = act_tau(g, act_tau(h, tau))
            assert np.allclose(one.mat, two.mat, rtol=1e-12, atol=1e-12)


def test_act_tau_hiprec_payload(taus):
    moved = act_tau(J, taus[0], hiprec=True)
    ent = moved.entries_mp()
    dbl = moved.mat
    for i in range(2):
        for j in range(2):
            assert abs(complex(ent[i][j]) - dbl[i][j]) < 1e-14


def _den(gamma, t):
    """c t + d, in the order of numeric.mobius."""
    c, d = gamma.c, gamma.d
    return tuple(tuple(c[i][0] * t[0][j] + c[i][1] * t[1][j] + d[i][j] for j in range(2))
                 for i in range(2))


def test_transform_det(taus, full_words):
    """transform gives act_tau's point and det(c tau + d), formed at the
    working precision: at J, where det(c tau + d) = det(-tau), and at a
    random word, in both precisions."""
    tau = taus[2]
    want_j = np.linalg.det(-np.array(tau.mat))
    for hiprec in (False, True):
        for g in (J, full_words(1, 6)[0]):
            point, det = transform(g, tau, hiprec)
            assert point.mat == act_tau(g, tau, hiprec).mat
            assert isinstance(det, mp.mpc if hiprec else complex)
            with value_prec(hiprec):
                assert det == m2_det(_den(g, tau.entries_mp() if hiprec else tau.mat))
            if g == J:
                assert abs(complex(det ** 2) - want_j ** 2) < 1e-12 * abs(want_j) ** 2


def test_transform_warns_when_badly_conditioned():
    """c tau + d = -tau at J: condition 1e13 past the 1e12 limit warns,
    the identity's condition does not."""
    with pytest.warns(UserWarning, match="badly conditioned"):
        transform(J, SiegelPoint(1j * np.diag([1.0, 1e-13])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        transform(J, TAU_I)


def test_gl_rotation_requires_unimodular():
    with pytest.raises(ValueError):
        gl_rotation(((2, 0), (0, 1)))
    gl_rotation(((0, 1), (1, 0)))
    gl_rotation(((-1, 0), (0, 1)))
