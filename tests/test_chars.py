"""Characteristic combinatorics: indexing, parity, triple/quadruple tags,
the permutation action, and the two sign characters built on it."""

import random

import pytest

from azy5.chars import (EVEN_CHARS, M0, ODD_CHARS, ODD_PAIRING, act_char,
                        act_char_vectors, act_set, char_action, char_index, chi_p,
                        classify_quadruple, classify_triple, even_quadruples,
                        even_triples, format_char, mdbl_of, mprime_of,
                        pair_sign, parity, perm_sign, psi_p, reduction_sign)
from azy5.symplectic import (E11, E22, ESYM, FULL, IDENTITY, J, PRINCIPAL2,
                             THETA0_2, coset_reps, gl_rotation, lower_translation,
                             random_word, translation)
from reference import compose_perm, image_and_unit, inverse, principal2_word


def test_index_roundtrip():
    for idx in range(16):
        assert char_index(mprime_of(idx), mdbl_of(idx)) == idx


def test_format_char_is_injective():
    assert len({format_char(idx) for idx in range(16)}) == 16
    assert format_char(9) == "[10;01]"
    assert format_char(6) == "[01;10]"


def test_parity_partition():
    assert EVEN_CHARS == (0, 1, 2, 3, 4, 6, 8, 9, 12, 15)
    assert ODD_CHARS == (5, 7, 10, 11, 13, 14)
    assert all(parity(m) == 1 for m in EVEN_CHARS)
    assert all(parity(m) == -1 for m in ODD_CHARS)


def test_m0_is_plus_quadruple():
    assert M0 == frozenset({0, 1, 2, 3})
    assert all(mprime_of(m) == (0, 0) for m in M0)
    assert classify_quadruple(tuple(M0)) == "plus"


def test_triple_tag_counts():
    assert len(even_triples()) == 120
    assert len(even_triples("minus")) == 60
    assert len(even_triples("plus")) == 60


def test_quadruple_tag_counts():
    assert len(even_quadruples()) == 210
    assert len(even_quadruples("minus")) == 15
    assert len(even_quadruples("plus")) == 15
    assert len(even_quadruples("star")) == 180


def test_classify_rejects_repeats_and_odd():
    with pytest.raises(ValueError):
        classify_triple((0, 0, 1))
    with pytest.raises(ValueError):
        classify_triple((0, 1, 5))
    with pytest.raises(ValueError):
        classify_quadruple((0, 1, 2, 5))


def test_action_is_group_action():
    rng = random.Random(7)
    for _ in range(25):
        g = random_word(FULL, rng, 4)
        h = random_word(FULL, rng, 4)
        gh = g @ h
        for m in range(16):
            assert act_char(gh, m) == act_char(g, act_char(h, m))
    for m in range(16):
        assert act_char(IDENTITY, m) == m


def test_action_preserves_parity_and_tags():
    rng = random.Random(8)
    words = [random_word(FULL, rng, 5) for _ in range(10)]
    for g in words:
        for m in range(16):
            assert parity(act_char(g, m)) == parity(m)
        # tags are orbit invariants
        for t in even_triples()[::13]:
            img = tuple(act_char(g, m) for m in t)
            assert classify_triple(img) == classify_triple(t)
        for q in even_quadruples("plus")[::4]:
            img = tuple(act_char(g, m) for m in q)
            assert classify_quadruple(img) == "plus"


def test_action_table_matches_the_formulas():
    """For the 720 representatives of the principal level-2 cosets and 50
    random words, each matrix's action table holds, for every
    characteristic, the mod-2 reduction of act_char_vectors and the unit
    of xi_numerator with reduction_sign; act_char reads it, psi_p is the permutation it induces on the odd characteristics
    and chi_p that permutation's sign."""
    rng = random.Random(23)
    mats = list(coset_reps(PRINCIPAL2).reps) + [random_word(FULL, rng, 6) for _ in range(50)]
    for g in mats:
        direct = [image_and_unit(m, g) for m in range(16)]
        assert char_action(g) == tuple(zip(*direct))
        assert [act_char(g, m) for m in range(16)] == [n for n, _ in direct]
        perm = tuple(ODD_CHARS.index(direct[c][0]) for c in ODD_CHARS)
        assert psi_p(g) == perm
        assert chi_p(g) == perm_sign(perm)


def test_action_table_is_built_once_per_matrix():
    """An equal matrix built anew finds the table of the first."""
    rng = random.Random(24)
    g = random_word(FULL, rng, 6)
    table = char_action(g)
    again = g @ IDENTITY
    assert again is not g
    assert char_action(again) is table


def test_unreduced_vectors_reduce_to_action():
    rng = random.Random(9)
    for _ in range(20):
        g = random_word(FULL, rng, 5)
        for m in range(16):
            (p1, p2), (d1, d2) = act_char_vectors(g, m)
            assert act_char(g, m) == char_index((p1 % 2, p2 % 2), (d1 % 2, d2 % 2))


def test_even_triples_and_quadruples_are_cached():
    for fn, tag in ((even_triples, "plus"), (even_quadruples, "star")):
        assert fn(tag) is fn(tag)
        assert fn.cache_info().hits > 0


def test_reduction_sign_values():
    assert reduction_sign((0, 0), (0, 0)) == 1
    # shift by 2 in the m'' slot against an odd m' costs a sign
    assert reduction_sign((1, 0), (2, 0)) == -1
    assert reduction_sign((1, 0), (0, 2)) == 1
    assert reduction_sign((1, 1), (2, 2)) == 1
    # shifts in the m' slot are free
    assert reduction_sign((3, 0), (1, 0)) == reduction_sign((1, 0), (1, 0))


def test_psi_p_is_permutation_homomorphism():
    rng = random.Random(10)
    for _ in range(20):
        g = random_word(FULL, rng, 4)
        h = random_word(FULL, rng, 4)
        p, q = psi_p(g), psi_p(h)
        assert sorted(p) == list(range(6))
        assert psi_p(g @ h) == compose_perm(p, q)


def test_perm_sign_basics():
    assert perm_sign((0, 1, 2, 3, 4, 5)) == 1
    assert perm_sign((1, 0, 2, 3, 4, 5)) == -1
    assert perm_sign((1, 2, 0, 3, 4, 5)) == 1


def test_chi_p_is_character():
    rng = random.Random(11)
    for _ in range(20):
        g = random_word(FULL, rng, 4)
        h = random_word(FULL, rng, 4)
        assert chi_p(g @ h) == chi_p(g) * chi_p(h)
        assert chi_p(g) == chi_p(inverse(g))


def test_chi_p_trivial_on_principal2():
    rng = random.Random(12)
    for _ in range(30):
        g = principal2_word(rng, 6)
        assert chi_p(g) == 1


def test_chi_p_generator_values():
    # the three upper translations each swap one matched odd pair
    assert chi_p(translation(E11)) == -1
    assert chi_p(translation(E22)) == -1
    assert chi_p(J) == 1


def test_pair_sign_on_known_elements():
    # in-pair flips are invisible to pair_sign
    assert pair_sign(translation(E11)) == 1
    assert pair_sign(translation(E22)) == 1
    assert pair_sign(translation(ESYM)) == 1
    assert pair_sign(lower_translation(((2, 0), (0, 0)))) == 1
    # the coordinate swap exchanges two pairs: a transposition on blocks
    assert pair_sign(gl_rotation(((0, 1), (1, 0)))) == -1
    # the order-3 rotation cycles all three pairs: even
    assert pair_sign(gl_rotation(((0, -1), (1, -1)))) == 1
    # the unimodular shear also transposes two pairs
    assert pair_sign(gl_rotation(((1, 1), (0, 1)))) == -1


def test_pair_sign_is_character_on_stabilizer():
    rng = random.Random(13)
    for _ in range(25):
        g = random_word(THETA0_2, rng, 5)
        h = random_word(THETA0_2, rng, 5)
        assert pair_sign(g @ h) == pair_sign(g) * pair_sign(h)


def test_pair_sign_rejects_nonstabilizer():
    # J moves M0, hence scrambles the matched pairing
    with pytest.raises(ValueError):
        pair_sign(J)


def test_pairing_is_stabilizer_invariant():
    """The three odd pairs (as characteristic sets) are permuted among
    themselves by every stabilizer element."""
    rng = random.Random(14)
    pairs = [frozenset(ODD_CHARS[i] for i in blk) for blk in ODD_PAIRING]
    for _ in range(25):
        g = random_word(THETA0_2, rng, 6)
        imgs = {frozenset(act_char(g, c) for c in p) for p in pairs}
        assert imgs == set(pairs)


def test_act_set_on_m0():
    assert act_set(IDENTITY, M0) == M0
    assert act_set(translation(E11), M0) == M0
    assert act_set(J, M0) != M0
    assert len(act_set(J, M0)) == 4
