"""Slow reference definitions and capabilities that only the tests call:
permutation composition, subgroup membership, generator words as
matrices, the symplectic inverse, random principal(2) words, the
characteristic action and slash_unit straight from the formulas that
chars.char_action tabulates, the table's entry for one characteristic,
the slash action by direct evaluation at gamma tau with the brute-force
720-coset sum it gives (the cross-check of forms.symmetrize_exact), a
theta constant at an unreduced characteristic, and the doubled point
2 tau of the direct second-order sums."""

from azy5.chars import (act_char_vectors, char_action, char_index, reduction_sign,
                        xi_numerator)
from azy5.forms import _signed_sum_eval, mono_key, monomial_degree
from azy5.numeric import value_prec
from azy5.siegel import SiegelPoint
from azy5.symplectic import (E11, E22, ESYM, FULL, GENERATORS, IDENTITY,
                             PRINCIPAL2, THETA0_2, SymplecticMatrix, coset_reps,
                             lower_translation, transform, translation)
from azy5.theta import _run_kernel, _theta, trace_btc


def compose_perm(p, q):
    """(p o q)[i] = p[q[i]], matching the left action on characteristics."""
    return tuple(p[q[i]] for i in range(len(q)))


def word_matrix(indices):
    """The product of GENERATORS[i] over a word, left to right."""
    m = IDENTITY
    for i in indices:
        m = m @ GENERATORS[i]
    return m


def inverse(gamma):
    """gamma^{-1} by the symplectic closed form [[d^T, -b^T], [-c^T, a^T]]."""
    a, b, c, d = gamma.a, gamma.b, gamma.c, gamma.d
    return SymplecticMatrix(((d[0][0], d[1][0], -b[0][0], -b[1][0]),
                             (d[0][1], d[1][1], -b[0][1], -b[1][1]),
                             (-c[0][0], -c[1][0], a[0][0], a[1][0]),
                             (-c[0][1], -c[1][1], a[0][1], a[1][1])))


# Letters of principal(2): the doubled upper and lower elementary translations.
_PRINCIPAL2_LETTERS = tuple(f(tuple(tuple(2 * x for x in row) for row in S))
                            for f in (translation, lower_translation) for S in (E11, E22, ESYM))


def principal2_word(rng, length):
    """Seeded random element of principal(2): a word of the given length
    in its six letters."""
    m = IDENTITY
    for _ in range(length):
        m = m @ _PRINCIPAL2_LETTERS[rng.randrange(len(_PRINCIPAL2_LETTERS))]
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


def transform_unit(m, gamma):
    """(n, k) with theta_n(gamma tau) = kappa(gamma) e^{pi i k/4}
    det(c tau + d)^{1/2} theta_m(tau), n the mod-2 reduction of the image
    characteristic and k in Z/8 folding chi_m = e^{2 pi i xi_m} together
    with the sign of that reduction: the entry of m in gamma's exact
    action table (chars.char_action)."""
    image, unit = char_action(gamma)
    return image[m], unit[m]


def image_and_unit(m, gamma):
    """(n, k) of transform_unit from the formulas: the mod-2
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
    gamma_inv = inverse(gamma)
    K = (deg * trace_btc(gamma)) % 8
    img = []
    for n, e in key:
        m = image_and_unit(n, gamma_inv)[0]
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


def theta_raw(mprime, mdbl, tau, eps=1e-12, hiprec=False):
    """Theta constant for integer (possibly unreduced) characteristic
    vectors, from the kernel run of theta.theta_constant.  The lattice
    points k = 2n + m' depend on m' mod 2 only, and m'' is kept as given
    in the exact factor i^{k.m''}, so the classical shift sign
    theta_{m+2n} = (-1)^{m'.n''} theta_m comes out of the series itself."""
    with value_prec(hiprec):
        return _theta(_run_kernel(tau, -2, eps, hiprec), mprime, mdbl)


def doubled(tau):
    """2 tau, keeping a high-precision payload.  mpmath rounds every
    operation, mpc construction included, to the ambient precision, so
    the payload is doubled at the working precision it was built with."""
    mp_ent = tau._mp
    if mp_ent is not None:
        with value_prec(True):
            mp_ent = tuple(tuple(z + z for z in row) for row in mp_ent)
    return SiegelPoint(2 * tau.mat, mp_entries=mp_ent)
