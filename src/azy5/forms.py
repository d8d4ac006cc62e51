"""Scalar modular forms built from theta constants.

Monomials in the ten even theta constants are written as canonical tuples
((m, e), ...) sorted by characteristic index.  Summing such a monomial
f = prod theta_n^{e_n} of weight k = (sum e)/2 over the level-2 principal
congruence cosets,

    sum_{gamma in Gamma2(2)\\Gamma2} character(gamma) (f |_k gamma)(tau),

reduces exactly: theta_n(gamma tau) picks up kappa(gamma), an eighth root
of unity, and det(c tau + d)^{1/2} per factor; the determinant powers
cancel against the slash weight, and when sum e is divisible by 4 the
kappa power collapses through kappa^4 = e^{pi i Tr(b^T c)} to a sign.
Each slash term is therefore a unit e^{pi i K/4} (K computed in exact
integer arithmetic) times a theta monomial at tau, so the symmetrized sum
collects into few monomials with integer coefficients.  The images of f
form one orbit under the four generators of Sp(4,Z), so the collection
closes that orbit instead of visiting the 720 cosets one by one; every
image stands for 720 / (orbit size) cosets.  This module does that
collection once, asserts the expected multiplicities, and evaluates
the resulting short signed sums with certified error bounds.  The bound
of a signed sum (chi5_product, chi10, chi12 and the weight-30 sum)
propagates each theta constant's certified error, which covers both the
truncation and the rounding of its series, through the products, and
adds the rounding of the products and of the sum themselves
(_signed_sum_eval): in double sqrt(5) u per complex multiplication and
the rounding of the final fsum; in high precision the error counts of
Python-integer floating complexes, whose signed sum is exact and
rounded once.

P2, each quartic F_M and construction.phi are products of linear forms
in the second-order constants Theta: face_product, over the one
certified_product that also multiplies phi_transversal's factors and
charges the factor errors and its own rounding.

Bookkeeping runs on arrays.  Each tuple of faces and each tuple of
signed terms becomes an index plan once (_face_plan, _term_plan, cached
by the tuple's identity and then by its value, _plan_cache): the signed
parts of Theta that each face sums, and the exponents of each monomial
over the ten constants.  A call then propagates the certified errors in
a few numpy steps over the plan (_product_errs): moduli, logs, the
double range guard, the exp * expm1 error of every product and the
weights of the rounding terms.  High precision feeds its fc_abs moduli
and error counts into the same arrays.
The values do not go through numpy: each face is one exactly rounded
math.fsum (an exact integer sum in high precision), and the products
are CPython complex (or integer) arithmetic on Python lists, in a fixed
order, because numpy's complex multiply rounds differently in the last
bit.  So the values are bit for bit those of a per-element evaluation
(tests/test_bounds.py), and only the last digits of the bounds depend
on the order of the array sums.

Forms provided:
  * chi5_product: the weight-5 product of the ten even constants, and its
    expression chi5_determinant as a constant multiple of the 4 x 4
    determinant of second-order constants and their tau-derivatives;
  * chi10 = chi5^2, the one-term signed sum of the squares of the ten;
  * p2: the product of the four second-order constants (weight 2), the
    face product over the coordinate faces;
  * the weight-30 signed sum over the 60 odd-sum triples of even
    characteristics, each entering as (theta_a theta_b theta_c)^20, built
    by symmetrizing the base triple (every sign comes out in {+1, -1});
  * the weight-12 signed sum over the 15 six-term complements of the
    plus-quadruples, each entering at fourth powers.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache, partial, reduce

import numpy as np

from .chars import EVEN_CHARS, M0, char_action, chi_p, parity
from .numeric import (fc_abs, fc_align, fc_from_mpc, fc_mul, fc_pow, fc_sum,
                      fc_to_mpc, fsum_complex, value_prec)
from .symplectic import GENERATORS
from .theta import (GUARD_BITS, ThetaValue, theta_all_even, theta_gradient_vector,
                    theta_second_vector, trace_btc)

AZY_BASE_TRIPLE = (0, 1, 4)
AZY_EXPONENT = 20
SIXPLET_BASE = tuple(sorted(set(EVEN_CHARS) - M0))


def mono_key(items):
    """Canonical monomial: ((char, exp), ...) sorted by characteristic,
    duplicate characteristics merged, zero exponents dropped."""
    acc = {}
    pairs = items.items() if isinstance(items, dict) else items
    for m, e in pairs:
        if parity(m) != 1:
            raise ValueError(f"characteristic {m} is odd; its theta constant vanishes")
        if e:
            acc[m] = acc.get(m, 0) + e
    if any(e < 0 for e in acc.values()):
        raise ValueError("exponents must be nonnegative")
    return tuple(sorted(acc.items()))


def monomial_degree(key):
    return sum(e for _, e in key)


def _product_errs(mods, errs, expo):
    """(err, log_abs): for each row i of the exponent matrix expo, the
    certified error prod(|v_j| + err_j)^e_j - prod |v_j|^e_j, e = expo[i],
    of the product of the factors of moduli `mods` and certified errors
    `errs` (float arrays), evaluated in log space so that errors far
    below one ulp of the values still register, and the log of the
    product's modulus (-inf when a factor is zero).

    In log space, with lo = sum e_j log|v_j| and
    delta = sum e_j log1p(err_j / |v_j|), the error is
    e^lo expm1(delta), or e^(lo + delta) when delta > 1 (a factor
    dominated by its own error, where expm1's precision no longer
    matters).  A product with a zero factor is off by at most
    prod(|v_j| + err_j)^e_j, formed as e^(sum e_j log h_j) with h_j the
    sum |v_j| + err_j rounded up and the log sum exactly rounded
    (math.fsum), and by 0 when that factor's error is 0 too.

    Rounding, u = 2^-53, with log, log1p, exp and expm1 within one ulp.
    A sum over the n columns of expo is off by (n - 1) u sum|terms| in any
    order, math.fsum by u |sum|, and each term e_j log m_j by 3u of
    itself (m_j = |v_j|, or h_j), so a log sum is off by (m + 2) u A,
    A = sum e_j |log m_j|, m = n or 1; delta by (n + 3) u delta, since
    log1p(x (1 + t)) is within |t| log1p(x) of log1p(x), and expm1 moves
    by (1 + delta) times its relative change.  With five more roundings,
    the exact error is within e^c of the computed one,
    c = (m + 4) u (A + delta + 1) + 5u (delta = 0 in the zero branch):
    each error is multiplied by e^(c + 4u), the 4u for the roundings of
    that factor and product, and raised by 2^-1072 for subnormals."""
    zero = mods == 0.0
    safe = mods + zero  # 1 in place of a zero modulus
    logs, l1p = np.log(safe), np.log1p(errs / safe)
    lo, delta = expo @ logs, expo @ l1p
    unit = (expo.shape[1] + 4) * _U
    charge = expo @ (np.abs(logs) + l1p) * unit + (unit + 9 * _U)  # c + 4u
    with np.errstate(over="ignore", invalid="ignore"):
        err = np.where(delta > 1.0, np.exp(lo + delta), np.exp(lo) * np.expm1(delta))
        if np.count_nonzero(zero):
            log_hi = np.log(np.nextafter(mods + errs, np.inf))
            for i in np.flatnonzero(expo[:, zero].any(axis=1)):
                terms = (expo[i] * log_hi).tolist()
                err[i] = _exp(math.fsum(terms))
                charge[i] = 5 * _U * (math.fsum(map(abs, terms)) + 1) + 9 * _U
                lo[i] = -np.inf
        err *= np.exp(charge)
        err += 2.0 ** -1072
        if np.count_nonzero(zero):
            err[expo[:, mods + errs == 0.0].any(axis=1)] = 0.0
    return err, lo


def _exp(x):
    """e^x, inf beyond the float range."""
    return math.inf if x > 709.0 else math.exp(x)


# --- the certified product -----------------------------------------------

# Unit roundoff of IEEE double.
_U = 2.0 ** -53

# Bounds on sum log|v| over the factors below and above 1 in modulus that
# keep every partial product of a double product, and the product, normal:
# 2^-969 leaves 53 bits after a scaling by PHI_CONSTANT = -2^-44
# (construction.phi), 2^1000 room to round.
_LOG_TINY = -969 * math.log(2)
_LOG_HUGE = 1000 * math.log(2)

# The four coordinate faces X_k, whose product is P2.
_COORDINATE_FACES = tuple(tuple(complex(j == k) for j in range(4)) for k in range(4))


def _pairwise_product(vals, mul=operator.mul):
    """Product of a list as a balanced tree of n - 1 multiplications."""
    while len(vals) > 1:
        nxt = list(map(mul, vals[::2], vals[1::2]))
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def certified_product(vals, mods, errs, hiprec):
    """ThetaValue of the product of the factors `vals`, in their working
    form (complex in double, floating complex in high precision), of
    moduli `mods` (floats) and certified bounds `errs` on their distances
    from the exact factors.  _product_errs bounds the effect of the errs
    by prod(|v| + e) - prod |v|; the n - 1 multiplications form a
    pairwise tree.  In double each has relative error at most sqrt(5) u,
    u = 2^-53 (Brent, Percival and Zimmermann, Math. Comp. 76 (2007)),
    so the computed P is within
    ((1 + sqrt(5) u)^(n-1) - 1) prod |v| <= 2 (n - 1) sqrt(5) u |P| of
    prod v, provided every partial product is normal: a product whose
    log moduli leave _LOG_TINY/_LOG_HUGE raises.  In high precision they
    are numeric.fc_mul at wp = prec + GUARD_BITS bits: P is within
    2 c 2^-wp |P| of prod v for its error count c (the two covers
    second-order terms), and rounding P to an mpc adds 2^(1 - prec) |P|.

    The products stay CPython complex (or integer) arithmetic on Python
    lists: numpy's complex multiply rounds differently in the last bit."""
    mods = np.asarray(mods, float)
    with value_prec(hiprec):
        if hiprec:
            import mpmath as mp
            wp = mp.mp.prec + GUARD_BITS
            P = _pairwise_product(vals, partial(fc_mul, wp=wp))
            value = fc_to_mpc(P)
            rounding = (2 * P[3] * 2.0 ** -wp + 2.0 ** (1 - mp.mp.prec)) * fc_abs(P)
        else:
            logs = np.log(mods[mods > 0.0])
            if logs[logs < 0].sum() < _LOG_TINY or logs[logs > 0].sum() > _LOG_HUGE:
                raise ArithmeticError("the product leaves the double range; use hiprec")
            value = _pairwise_product(vals)
            rounding = 2 * (len(vals) - 1) * math.sqrt(5) * _U * abs(value)
    err = _product_errs(mods, np.asarray(errs, float), np.ones((1, len(vals))))[0][0]
    return ThetaValue(value, float(err) + rounding)


def value_product(tvs, hiprec):
    """certified_product of ThetaValues at the working precision: in high
    precision each mpc value enters a floating complex exactly."""
    vals = [fc_from_mpc(t.value) if hiprec else t.value for t in tvs]
    mods = [fc_abs(v) if hiprec else abs(v) for v in vals]
    return certified_product(vals, mods, [t.err for t in tvs], hiprec)


def _plan_cache(build):
    """build(key) for tuples of faces or of signed terms, cached twice:
    by the key's identity, then by equality (at most 64 keys each).  An
    lru_cache hashes the whole tuple on every call, since CPython tuples
    do not cache their hash; the tuples that all_faces() and azy_terms()
    return once per process are found by their id.  Each identity entry
    holds its key, so the id cannot be reused while the entry lives."""
    by_value = lru_cache(maxsize=64)(build)
    by_id = {}

    def plan(key):
        hit = by_id.get(id(key))
        if hit is not None and hit[0] is key:
            return hit[1]
        if len(by_id) >= 64:
            by_id.clear()
        out = by_value(key)
        by_id[id(key)] = key, out
        return out
    return plan


# (Re, Im) of a Theta_k as offsets into the signed parts of face_product,
# for the four units a: 0 Re Theta, 4 Im Theta, 8 -Re Theta, 12 -Im Theta.
_UNIT_PARTS = {1: (0, 4), -1: (8, 12), 1j: (12, 0), -1j: (4, 8)}


@_plan_cache
def _face_plan(faces):
    """(index, support) of a tuple of faces: index[p, i] lists the terms
    of part p (0 real, 1 imaginary) of face i as positions in the 17
    signed parts (Re Theta, Im Theta, -Re Theta, -Im Theta, and a zero at
    16 that pads every face to four terms); support[i, k] is 1 where
    face i has a nonzero coefficient on Theta_k."""
    index = np.full((2, len(faces), 4), 16)
    for i, face in enumerate(faces):
        for j, k in enumerate(k for k, a in enumerate(face) if a):
            index[:, i, j] = [p + k for p in _UNIT_PARTS[face[k]]]
    return index, np.array([[float(a != 0) for a in face] for face in faces])


def face_product(faces, thetas, hiprec):
    """ThetaValue of the product of the linear forms `faces`, coefficients
    in {0, +-1, +-i}, at the four ThetaValues `thetas`
    (theta_second_vector), through certified_product.

    _face_plan turns the faces into index arrays once; each call gathers
    the terms of all faces from the signed parts of Theta in one step.
    Every a_i Theta_i is exact, so a face l(Theta) moves by at most
    d = sum_{a_i != 0} e_i under the errors e_i of Theta.  In double the
    real and imaginary parts of l are each summed by math.fsum with one
    rounding (the padding is -0.0, which leaves every sum as it is), so
    the computed L is within u |l| <= 2u |L| of l at the computed Theta,
    and the factor within d + 2u |L| of l at the true Theta.  In high
    precision each Theta_i enters a floating complex exactly, aligned to
    one exponent, and each face is their exact integer sum with error
    count 0: L = l and the factor is within d.  Summing the faces any
    other way, or multiplying them in numpy, would change the last bits
    of the value."""
    index, support = _face_plan(faces)
    if hiprec:
        mant, e = fc_align([fc_from_mpc(t.value) for t in thetas])
        parts, pad, total = [x for x, _ in mant] + [y for _, y in mant], 0, sum
    else:
        parts = [t.value.real for t in thetas] + [t.value.imag for t in thetas]
        pad, total = -0.0, math.fsum
    parts = np.array(parts + [-p for p in parts] + [pad], dtype=object if hiprec else float)
    re, im = (list(map(total, rows)) for rows in parts[index].tolist())
    errs = support @ [t.err for t in thetas]
    if hiprec:
        vals = [(x, y, e, 0) for x, y in zip(re, im)]
        mods = [fc_abs(v) for v in vals]
    else:
        vals = list(map(complex, re, im))
        mods = np.hypot(re, im)
        errs += 2 * _U * mods
    return certified_product(vals, mods, errs, hiprec)


# --- the classical product forms -----------------------------------------


def chi5_product(tau, eps=1e-12, hiprec=False):
    """Product of the ten even theta constants (weight 5; odd under the
    full group's theta multiplier, squaring to the cusp form below)."""
    v, err, _ = _signed_sum_eval(((1, mono_key((m, 1) for m in EVEN_CHARS)),),
                                 tau, eps, hiprec)
    return ThetaValue(v, err)


def chi10(tau, eps=1e-12, hiprec=False):
    """The weight-10 cusp form: square of the even-theta product, the
    one-term signed sum of the squares of the ten even constants."""
    v, err, _ = _signed_sum_eval(((1, mono_key((m, 2) for m in EVEN_CHARS)),),
                                 tau, eps, hiprec)
    return ThetaValue(v, err)


def p2(tau, eps=1e-12, hiprec=False):
    """Product of the four second-order theta constants: the defining form
    of the coordinate tetrahedron, weight 2 with sign character on the
    group fixing it."""
    return face_product(_COORDINATE_FACES, theta_second_vector(tau, eps, hiprec), hiprec)


def _det3(a):
    return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))


def _det4(a):
    out = None
    for j in range(4):
        minor = [[a[r][c] for c in range(4) if c != j] for r in (1, 2, 3)]
        term = a[0][j] * _det3(minor)
        out = term if j == 0 else out + term if j % 2 == 0 else out - term
    return out


def chi5_determinant(tau, eps=1e-12, hiprec=False):
    """4 x 4 determinant whose rows are the second-order constants and
    their three tau-derivatives (columns in MPRIME_ORDER).  Proportional
    to chi5_product with a tau-independent constant; see mu_ratio."""
    vec = theta_second_vector(tau, eps, hiprec)
    grads = theta_gradient_vector(tau, eps, hiprec)
    rows = [[vec[j].value for j in range(4)],
            [grads[j][0] for j in range(4)],
            [grads[j][1] for j in range(4)],
            [grads[j][2] for j in range(4)]]
    with value_prec(hiprec):
        return _det4(rows)


def mu_ratio(tau, eps=1e-12, hiprec=False):
    """chi5_product / chi5_determinant at tau; constant on the upper
    half-space.  Raises ArithmeticError where the determinant comes out
    exactly 0, as it does deep in the cusp at either precision."""
    num = chi5_product(tau, eps, hiprec).value
    den = chi5_determinant(tau, eps, hiprec)
    if den == 0:
        raise ArithmeticError("the chi5 determinant is 0 at the working precision, "
                              "so mu = chi5 / det is undefined")
    with value_prec(hiprec):
        return num / den


# --- exact symmetrization over level-2 cosets ----------------------------


def slash_unit(key, gamma):
    """Exact reduction of (f |_k gamma)(tau) for the monomial f given by
    `key`: returns (image_key, K) with

        (f |_k gamma)(tau) = e^{pi i K / 4} * prod theta over image_key,

    valid when the total degree is divisible by 4 (so the kappa power is
    the exact sign kappa^4 = e^{pi i Tr(b^T c)} raised to deg/4).  Each
    factor theta_n of f comes from theta_m with m = gamma^{-1}.n, the
    characteristic that gamma sends to n: its preimage in the image
    permutation of gamma's action table, whose unit at m is the phase."""
    deg = monomial_degree(key)
    if deg % 4:
        raise ValueError("total degree must be divisible by 4 to eliminate kappa")
    image, unit = char_action(gamma)
    K = (deg * trace_btc(gamma)) % 8
    img = []
    for n, e in key:
        m = image.index(n)
        img.append((m, e))
        K = (K + unit[m] * e) % 8
    return mono_key(img), K


def symmetrize_exact(key, character=None):
    """Collect sum_{cosets} character(gamma) (f |_k gamma) into monomials:
    a dict image_key -> (count, K) where every one of the `count` coset
    terms landing on image_key contributed the same unit e^{pi i K/4}.

    The images form one orbit under GENERATORS, closed here breadth-first
    from f with unit 0: since (f|gamma)|g = f|(gamma g) and the character
    is multiplicative, the image h' = h|g of a reached monomial h carries
    the unit of h, plus slash_unit's K, plus 4 when character(g) = -1.
    A monomial reached with two different units raises (the collected
    sum would then not be a single integer multiple of a unit; this also
    catches an f that is not invariant under the principal level-2
    subgroup, which fixes every characteristic).  Each image collects
    720 / (orbit size) of the 720 cosets."""
    key = mono_key(key)
    units = {key: 0}
    queue = [key]
    for h in queue:
        for g in GENERATORS:
            img, K = slash_unit(h, g)
            if character is not None and character(g) == -1:
                K += 4
            K = (K + units[h]) % 8
            if img not in units:
                units[img] = K
                queue.append(img)
            elif units[img] != K:
                raise ArithmeticError("coset terms disagree in phase on a common monomial")
    count = 720 // len(units)
    return {img: (count, K) for img, K in units.items()}


def _signed_terms(base_key, character, expect_classes):
    coll = symmetrize_exact(base_key, character)
    if len(coll) != expect_classes:
        raise ArithmeticError(f"expected {expect_classes} monomials, got {len(coll)}")
    terms = []
    for img, (_, K) in sorted(coll.items()):
        if K == 0:
            s = 1
        elif K == 4:
            s = -1
        else:
            raise ArithmeticError(f"non-real unit K = {K} on {img}")
        terms.append((s, img))
    base = mono_key(base_key)
    base_sign = dict((k, s) for s, k in terms)[base]
    if base_sign < 0:
        terms = [(-s, k) for s, k in terms]
    return tuple(terms)


@lru_cache(maxsize=None)
def azy_terms():
    """The 60 signed triple-product monomials of the weight-30 form, from
    symmetrizing (theta_0 theta_1 theta_4)^20 with the sign character and
    dividing out the multiplicity 12; normalized so the base triple has
    coefficient +1."""
    base = mono_key((m, AZY_EXPONENT) for m in AZY_BASE_TRIPLE)
    return _signed_terms(base, chi_p, 60)


@lru_cache(maxsize=None)
def chi12_terms():
    """The 15 signed six-fold monomials at fourth powers (weight 12), from
    symmetrizing the complement of the coordinate quadruple with trivial
    character, multiplicity 48; base six-plet normalized to +1."""
    base = mono_key((m, 4) for m in SIXPLET_BASE)
    return _signed_terms(base, None, 15)


# Bound on the absolute error a double complex multiplication can add
# when one of its real products underflows: at most 2^-1075, half the
# least subnormal, per rounding, three roundings per part.
_UNDERFLOW = 2.0 ** -1072


@_plan_cache
def _term_plan(terms):
    """(signs, powers, picks, expo) of a tuple of signed monomials: the
    distinct powers (c, k) of theta_{EVEN_CHARS[c]}, each term's powers as
    positions in that list (in key order), and expo[i, c], the exponent
    of theta_{EVEN_CHARS[c]} in term i."""
    col = {m: c for c, m in enumerate(EVEN_CHARS)}
    powers = sorted({(col[m], k) for _, key in terms for m, k in key})
    pos = {p: i for i, p in enumerate(powers)}
    expo = np.zeros((len(terms), len(EVEN_CHARS)))
    for i, (_, key) in enumerate(terms):
        for m, k in key:
            expo[i, col[m]] = k
    picks = tuple(tuple(pos[col[m], k] for m, k in key) for _, key in terms)
    return tuple(s for s, _ in terms), tuple(powers), picks, expo


def _signed_sum_eval(terms, tau, eps, hiprec):
    """(value, certified error, largest monomial modulus) of the signed
    sum of monomials `terms`, all of one degree d, at tau.

    Theta errors.  Each monomial v = prod theta_m^k carries the error
    that the certified errors of its constants propagate to it:
    _product_errs over the rows of _term_plan's exponent matrix, one
    array step for all monomials, which also gives each log |v|.

    Rounding in double.  theta ** k (CPython's binary powering) and the
    products of the powers form v in a tree of multiplications; unshared,
    a tree over d factors has d - 1 nodes.  Each complex multiplication
    is off by at most sqrt(5) u times its exact value (Brent, Percival
    and Zimmermann, Math. Comp. 76 (2007)), u = 2^-53, plus _UNDERFLOW
    should a real product underflow.  To first order a node's error is
    multiplied by the moduli of the factors outside it: to |v| for the
    relative part, and to at most max(1, max_m |theta_m|)^d for the
    absolute part.  So v is off by at most
    (d - 1) (sqrt 5 u |v| + _UNDERFLOW max(1, max |theta|)^d), doubled
    to cover second-order terms; fsum_complex rounds each part of the
    total once, adding 2 u |total|.  The powers and products are CPython
    complex arithmetic, term by term as reduce(mul) in key order, so the
    value does not depend on the plan.

    Rounding in high precision.  Each theta value enters a floating
    complex exactly (numeric.fc_from_mpc), the powers and products are
    fc_pow and fc_mul at wp = prec + GUARD_BITS bits, and v carries their
    error count c: v is off by at most 2 c 2^-wp |v|, the factor two
    covering second-order terms.  The signed monomials are added
    exactly (fc_sum) and the total rounded once to an mpc, adding
    2^(1 - prec) |total|."""
    signs, powers, picks, expo = _term_plan(terms)
    th = theta_all_even(tau, eps, hiprec)
    thetas = [th[m] for m in EVEN_CHARS]
    with value_prec(hiprec):
        if hiprec:
            import mpmath as mp
            wp = mp.mp.prec + GUARD_BITS
            fcs = [fc_from_mpc(t.value) for t in thetas]
            mods = [fc_abs(z) for z in fcs]
            pw = [fc_pow(fcs[c], k, wp) for c, k in powers]
            mul = partial(fc_mul, wp=wp)
        else:
            mods = [abs(t.value) for t in thetas]
            pw = [thetas[c].value ** k for c, k in powers]
            mul = operator.mul
        monos = [reduce(mul, map(pw.__getitem__, p)) for p in picks]
        errs, logs = _product_errs(np.array(mods), np.array([t.err for t in thetas]), expo)
        with np.errstate(over="ignore"):
            sizes = np.exp(logs)
        err = float(errs.sum())
        if hiprec:
            total = fc_sum(zip(signs, monos))
            value = fc_to_mpc(total)
            rel = float(np.dot([v[3] for v in monos], sizes))  # |v| weighted by its error count
            err += 2 * rel * 2.0 ** -wp + 2.0 ** (1 - mp.mp.prec) * fc_abs(total)
        else:
            d = monomial_degree(terms[0][1])
            big = _exp(d * math.log(max(1.0, max(mods))))
            value = fsum_complex([s * v for s, v in zip(signs, monos)])
            err += (2 * (d - 1) * (math.sqrt(5) * _U * float(sizes.sum())
                                   + len(terms) * _UNDERFLOW * big)
                    + 2 * _U * abs(value))
    return value, err, float(sizes.max())


def azy_eval(tau, eps=1e-12, hiprec=False):
    """(value, certified error, largest single monomial modulus) of the
    weight-30 signed sum; the last entry scales the cancellation guard."""
    return _signed_sum_eval(azy_terms(), tau, eps, hiprec)


def azy(tau, eps=1e-12, hiprec=False):
    """Signed sum over the 60 odd-sum triples of (theta^3-product)^20:
    weight 30 with the sign character, the comparison target of the
    tetrahedral product."""
    v, err, _ = azy_eval(tau, eps, hiprec)
    return ThetaValue(v, err)


def chi12(tau, eps=1e-12, hiprec=False):
    """Signed sum over the 15 six-term monomials at fourth powers."""
    v, err, _ = _signed_sum_eval(chi12_terms(), tau, eps, hiprec)
    return ThetaValue(v, err)
