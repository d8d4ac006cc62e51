"""Slow reference definitions and capabilities that only the tests call:
permutation composition, subgroup membership, generator words as
matrices, the symplectic inverse, random principal(2) words, the
characteristic action and slash_unit straight from the formulas that
chars.char_action tabulates, the table's entry for one characteristic,
the slash action by direct evaluation at gamma tau with the brute-force
720-coset sum it gives (the cross-check of forms.symmetrize_exact), the
theta multiplier measured at a general point, a theta constant at an
unreduced characteristic, the doubled point 2 tau of the direct
second-order sums, and the double kernel over E's full bounding square,
each point once, that the half-square theta._grid replaced."""

import cmath
import math

import numpy as np

from azy5.chars import (act_char_vectors, char_action, char_index, reduction_sign,
                        xi_numerator)
from azy5.forms import _signed_sum_eval, mono_key, monomial_degree
from azy5.numeric import value_prec
from azy5.siegel import SiegelPoint
from azy5.symplectic import (E11, E22, ESYM, FULL, GENERATORS, IDENTITY,
                             PRINCIPAL2, THETA0_2, SymplecticMatrix, coset_reps,
                             lower_translation, transform, translation)
from azy5.theta import (_CHI8, _PROBE_MIN_ABS, _U, _ellipse, _run_kernel, _theta,
                        theta_all_even, trace_btc)


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


def kappa_at(gamma, tau, eps=1e-12):
    """theta.kappa_numeric measured at tau instead of i*I: the first even
    characteristic m with |theta_m(tau)| > _PROBE_MIN_ABS gives
    theta_n(gamma tau) / (e^{pi i k/4} det(c tau + d)^{1/2} theta_m(tau)),
    (n, k) from gamma's action table."""
    th0 = theta_all_even(tau, eps)
    point, det = transform(gamma, tau)
    m = next(m for m in sorted(th0) if abs(th0[m].value) > _PROBE_MIN_ABS)
    n, k = transform_unit(m, gamma)
    return theta_all_even(point, eps)[n].value / (_CHI8[k] * cmath.sqrt(det) * th0[m].value)


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
    return SiegelPoint([[2 * z for z in row] for row in tau.mat], mp_entries=mp_ent)


def _square_points(K):
    """(k0, k1, cls): the points of the square [-K, K]^2, each listed
    once and sorted by its class cls = 4 r0 + r1, r = k mod 4."""
    k0, k1 = (x.ravel() for x in np.meshgrid(np.arange(-K, K + 1), np.arange(-K, K + 1),
                                             indexing="ij"))
    cls = 4 * (k0 % 4) + k1 % 4
    perm = np.argsort(cls, kind="stable")
    return k0[perm].astype(np.int16), k1[perm].astype(np.int16), cls[perm].astype(np.int8)


def grid_full_square(t, eps, moments=False):
    """theta._grid's (sums, mom, bounds, cut) from every point of E's
    bounding square that lies in E, each once, one exactly rounded
    math.fsum per component and class: the double kernel before it
    summed half the square."""
    t11, t12, t22 = t
    _, keep, cut, extent = _ellipse((t11.imag, t12.imag, t22.imag), 53, eps, moments)
    k0, k1, cls = _square_points(extent)
    k0, k1 = k0.astype(float), k1.astype(float)
    aa, ab, bb = k0 * k0, k0 * k1, k1 * k1
    inside = t11.imag * aa + (2 * t12.imag) * ab + t22.imag * bb <= keep
    aa, ab, bb, cls = aa[inside], ab[inside], bb[inside], cls[inside]
    terms = np.exp(1j * np.pi * (t11 * aa + (2 * t12) * ab + t22 * bb))
    form_abs = abs(t11) * aa + (2 * abs(t12)) * np.abs(ab) + abs(t22) * bb
    ends = np.cumsum(np.bincount(cls, minlength=16)).tolist()
    spans = list(zip([0] + ends, ends))

    def by_class(x):
        re, im = x.real.tolist(), x.imag.tolist()
        z = [(math.fsum(re[i:j]), math.fsum(im[i:j])) for i, j in spans]
        return [z[4 * r0:4 * r0 + 4] for r0 in range(4)]

    sums = by_class(terms)
    weight = np.bincount(cls, np.abs(terms) * (1 + np.pi * form_abs), minlength=16).tolist()
    bounds = [[8 * _U * weight[4 * r0 + r1] + 2 * _U * abs(complex(*sums[r0][r1]))
               for r1 in range(4)] for r0 in range(4)]
    if not moments:
        return sums, None, bounds, cut
    mom = [by_class(terms * w) for w in (aa, 2 * ab, bb)]
    return sums, [[[m[r0][r1] for m in mom] for r1 in range(4)] for r0 in range(4)], bounds, cut
