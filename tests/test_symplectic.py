"""Exact Sp(4,Z) arithmetic, subgroup membership, coset transversals, and
the action on the upper half-space."""

import random

import numpy as np
import pytest

from azy5.chars import M0, act_set, even_quadruples
from azy5.siegel import SiegelPoint
from azy5.symplectic import (E11, E22, ESYM, ETA0, FULL, GENERATORS, IDENTITY,
                             J, PRINCIPAL2, THETA0_2, SubgroupSpec,
                             SymplecticMatrix, act_tau, automorphy_factor,
                             coset_reps, gl_rotation, in_subgroup,
                             lower_translation, random_word, translation,
                             word_matrix)


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
        assert g @ g.inverse() == IDENTITY
        assert g.inverse() @ g == IDENTITY


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
    for spec in (FULL, PRINCIPAL2, THETA0_2):
        for _ in range(15):
            g = random_word(spec, rng, 6)
            assert in_subgroup(g, spec)
    # principal(2) sits inside theta0(2)
    for _ in range(10):
        assert in_subgroup(random_word(PRINCIPAL2, rng, 6), THETA0_2)


def test_stabilizer_membership_criterion(rng):
    """gamma fixes the coordinate quadruple M0 setwise exactly when its c
    block is even."""
    for _ in range(60):
        g = random_word(FULL, rng, 6)
        assert (act_set(g, M0) == M0) == in_subgroup(g, THETA0_2)


def test_subgroup_spec_validation():
    with pytest.raises(ValueError):
        SubgroupSpec("weird")
    with pytest.raises(ValueError):
        SubgroupSpec("principal", 0)
    assert SubgroupSpec("igusa", 2).label() == "igusa(2,4)"
    assert THETA0_2.label() == "theta0(2)"
    assert FULL.label() == "Sp(4,Z)"


def test_coset_system_theta0():
    system = coset_reps(THETA0_2)
    assert system.index == 15
    assert system.reps[0] == IDENTITY
    assert system.words[0] == ()
    for g, w in zip(system.reps, system.words):
        assert word_matrix(w) == g
    # distinct cosets = distinct images of M0 under the inverses,
    # covering every plus quadruple exactly once
    keys = {act_set(g.inverse(), M0) for g in system.reps}
    assert len(keys) == 15
    assert keys == {frozenset(q) for q in even_quadruples("plus")}


def test_coset_system_principal2():
    system = coset_reps(PRINCIPAL2)
    assert system.index == 720
    keys = {g.mod2_key() for g in system.reps}
    assert len(keys) == 720
    assert system.reps[0] == IDENTITY


def test_coset_reps_is_cached():
    for spec in (THETA0_2, PRINCIPAL2):
        assert coset_reps(spec) is coset_reps(spec)


def test_trivial_transversals():
    assert coset_reps(FULL).index == 1
    assert coset_reps(SubgroupSpec("principal", 1)).index == 1


def test_unsupported_transversal():
    with pytest.raises(NotImplementedError):
        coset_reps(SubgroupSpec("theta0", 4))


def test_act_tau_translation(taus):
    tau = taus[0]
    moved = act_tau(translation(E11), tau)
    want = tau.mat + np.array([[1, 0], [0, 0]])
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
    dbl = moved.entries()
    for i in range(2):
        for j in range(2):
            assert abs(complex(ent[i][j]) - dbl[i][j]) < 1e-14


def test_automorphy_factor(taus):
    tau = taus[2]
    f = automorphy_factor(J, tau, 2)
    det = np.linalg.det(-tau.mat)
    assert abs(f - det ** 2) < 1e-12 * abs(det) ** 2
    with pytest.raises(ValueError):
        automorphy_factor(J, tau, 0.5)


def test_gl_rotation_requires_unimodular():
    with pytest.raises(ValueError):
        gl_rotation(((2, 0), (0, 1)))
    gl_rotation(((0, 1), (1, 0)))
    gl_rotation(((-1, 0), (0, 1)))
