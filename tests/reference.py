"""Slow reference definitions that only the tests call: permutation
composition, subgroup membership, generator words as matrices, the
characteristic action and slash_unit straight from the formulas that
chars.char_action tabulates, the slash action by direct evaluation at
gamma tau with the brute-force 720-coset sum it gives (the cross-check
of forms.symmetrize_exact), and the doubled point 2 tau of the direct
second-order sums."""

from azy5.chars import act_char_vectors, char_index, reduction_sign, xi_numerator
from azy5.forms import _signed_sum_eval, mono_key, monomial_degree
from azy5.numeric import value_prec
from azy5.siegel import SiegelPoint
from azy5.symplectic import (FULL, GENERATORS, IDENTITY, PRINCIPAL2, THETA0_2,
                             coset_reps, lower_translation, transform,
                             translation)
from azy5.theta import trace_btc


def compose_perm(p, q):
    """(p o q)[i] = p[q[i]], matching the left action on characteristics."""
    return tuple(p[q[i]] for i in range(len(q)))


def word_matrix(indices):
    """The product of GENERATORS[i] over a word, left to right."""
    m = IDENTITY
    for i in indices:
        m = m @ GENERATORS[i]
    return m


def in_subgroup(gamma, spec):
    """Exact membership of gamma in the congruence subgroup."""
    if spec == FULL:
        return True
    if spec == THETA0_2:
        return all(x % 2 == 0 for row in gamma.c for x in row)
    if spec == PRINCIPAL2:
        return all((x - (i == j)) % 2 == 0
                   for i, row in enumerate(gamma.rows) for j, x in enumerate(row))
    raise ValueError(f"unknown subgroup {spec!r}")


def image_and_unit(m, gamma):
    """(n, k) of theta.transform_unit from the formulas: the mod-2
    reduction n of act_char_vectors, and k = xi_numerator mod 8, plus 4
    when the reduction costs a sign."""
    mpv, mdv = act_char_vectors(gamma, m)
    k = xi_numerator(m, gamma) % 8
    if reduction_sign(mpv, mdv) < 0:
        k = (k + 4) % 8
    return char_index((mpv[0] % 2, mpv[1] % 2), (mdv[0] % 2, mdv[1] % 2)), k


def slash_unit_by_inverse(key, gamma):
    """forms.slash_unit by acting with gamma^{-1}: each factor theta_n
    comes from theta_m, m = gamma^{-1}.n, whose image under gamma must
    be n again, with the unit of m under gamma."""
    deg = monomial_degree(key)
    inverse = gamma.inverse()
    K = (deg * trace_btc(gamma)) % 8
    img = []
    for n, e in key:
        m = image_and_unit(n, inverse)[0]
        n_back, k = image_and_unit(m, gamma)
        assert n_back == n, "characteristic action failed to invert"
        img.append((m, e))
        K = (K + k * e) % 8
    return mono_key(img), K


def monomial_at(key, tau, eps=1e-12, hiprec=False):
    """The monomial `key` at tau, as a one-term signed sum."""
    return _signed_sum_eval(((1, key),), tau, eps, hiprec)[0]


def slash_numeric(key, weight, gamma, tau, eps=1e-12, hiprec=False):
    """(f |_weight gamma)(tau) by direct evaluation at gamma tau."""
    point, det = transform(gamma, tau, hiprec)
    mv = monomial_at(key, point, eps, hiprec)
    with value_prec(hiprec):
        return det ** -weight * mv


def symmetrize_numeric(key, weight, tau, character=None, multiplicity=1):
    """Brute-force coset sum of character * (f |_weight gamma) over the
    level-2 principal cosets, divided by the stated multiplicity.  First
    checks that f is actually invariant under two sample level-2
    elements (a non-invariant f would make the sum depend on the choice
    of representatives)."""
    key = mono_key(key)
    if 2 * weight != monomial_degree(key):
        raise ValueError("weight must be half the number of theta factors")
    f0 = monomial_at(key, tau)
    for eta in (translation(((2, 0), (0, 0))), lower_translation(((0, 2), (2, 0)))):
        f1 = slash_numeric(key, weight, eta, tau)
        if abs(f1 - f0) > 1e-6 * max(1.0, abs(f0)):
            raise ValueError("monomial is not level-2 invariant; coset sum ill-defined")
    total = 0
    for g in coset_reps(PRINCIPAL2).reps:
        t = slash_numeric(key, weight, g, tau)
        total += t if character is None else t * character(g)
    return total / multiplicity


def doubled(tau):
    """2 tau, keeping a high-precision payload.  mpmath rounds every
    operation, mpc construction included, to the ambient precision, so
    the payload is doubled at the working precision it was built with."""
    mp_ent = tau._mp
    if mp_ent is not None:
        with value_prec(True):
            mp_ent = tuple(tuple(z + z for z in row) for row in mp_ent)
    return SiegelPoint(2 * tau.mat, mp_entries=mp_ent)
