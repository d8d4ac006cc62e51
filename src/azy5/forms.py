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
the resulting short signed sums with certified error bounds.  The bounds
propagate each theta constant's certified error, which covers both the
truncation and the rounding of its series, through the products; the
rounding of the products and signed sums themselves (a few units of
roundoff relative to the largest monomial: about 1e-16 in double,
negligible at high precision) is not included.

Forms provided:
  * chi5_product: the weight-5 product of the ten even constants, and its
    expression chi5_determinant as a constant multiple of the 4 x 4
    determinant of second-order constants and their tau-derivatives;
  * chi10 = chi5^2;
  * p2: the product of the four second-order constants (weight 2);
  * the weight-30 signed sum over the 60 odd-sum triples of even
    characteristics, each entering as (theta_a theta_b theta_c)^20, built
    by symmetrizing the base triple (every sign comes out in {+1, -1});
  * the weight-12 signed sum over the 15 six-term complements of the
    plus-quadruples, each entering at fourth powers.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp

from .chars import EVEN_CHARS, M0, act_char, chi_p, parity
from .numeric import fsum_complex, value_prec
from .symplectic import (GENERATORS, PRINCIPAL2, act_tau, automorphy_factor,
                         coset_reps, lower_translation, translation)
from .theta import (MPRIME_ORDER, ThetaValue, theta_all_even,
                    theta_gradient, theta_second_vector, trace_btc,
                    transform_unit)

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


def product_err(factors):
    """Certified absolute error of a product from per-factor certified
    errors: prod(|v_i| + err_i)^{e_i} - prod |v_i|^{e_i}, evaluated in log
    space so that errors far below one ulp of the values still register.
    `factors` iterates (value, err, exp)."""
    lo_log = 0.0
    delta = 0.0
    hi_log = 0.0
    lo_zero = False
    for v, err, e in factors:
        a = float(abs(v))
        hi = a + err
        if hi == 0.0:
            return 0.0
        hi_log += e * math.log(hi)
        if a == 0.0:
            lo_zero = True
        else:
            lo_log += e * math.log(a)
            delta += e * math.log1p(err / a)
    if lo_zero:
        return math.inf if hi_log > 709.0 else math.exp(hi_log)
    if delta > 1.0:
        # a factor is dominated by its own error (theta numerically zero);
        # expm1 would overflow and its one-ulp precision is irrelevant here,
        # so fall back to the slightly larger pure log-space bound
        s = lo_log + delta
        return math.inf if s > 709.0 else math.exp(s) * (1 + 1e-12) + 5e-324
    # one-ulp slop of the float evaluation absorbed by a small inflation
    return math.exp(lo_log) * math.expm1(delta) * (1 + 1e-12) + 5e-324


# --- the classical product forms -----------------------------------------


def chi5_product(tau, eps=1e-12, hiprec=False):
    """Product of the ten even theta constants (weight 5; odd under the
    full group's theta multiplier, squaring to the cusp form below)."""
    v, err, _ = _signed_sum_eval(((1, mono_key((m, 1) for m in EVEN_CHARS)),),
                                 tau, eps, hiprec)
    return ThetaValue(v, err)


def chi10(tau, eps=1e-12, hiprec=False):
    """The weight-10 cusp form: square of the even-theta product."""
    p = chi5_product(tau, eps, hiprec)
    with value_prec(hiprec):
        v = p.value * p.value
    return ThetaValue(v, product_err([(p.value, p.err, 2)]))


def p2(tau, eps=1e-12, hiprec=False):
    """Product of the four second-order theta constants: the defining form
    of the coordinate tetrahedron, weight 2 with sign character on the
    group fixing it."""
    vec = theta_second_vector(tau, eps, hiprec)
    with value_prec(hiprec):
        v = vec[0].value * vec[1].value * vec[2].value * vec[3].value
    return ThetaValue(v, product_err((t.value, t.err, 1) for t in vec))


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
    grads = [theta_gradient(mpv, tau, eps, hiprec) for mpv in MPRIME_ORDER]
    rows = [[vec[j].value for j in range(4)],
            [grads[j][0] for j in range(4)],
            [grads[j][1] for j in range(4)],
            [grads[j][2] for j in range(4)]]
    with value_prec(hiprec):
        return _det4(rows)


def mu_ratio(tau, eps=1e-12, hiprec=False):
    """chi5_product / chi5_determinant at tau; constant on the upper
    half-space."""
    num = chi5_product(tau, eps, hiprec).value
    den = chi5_determinant(tau, eps, hiprec)
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
    characteristic that gamma sends to n."""
    deg = monomial_degree(key)
    if deg % 4:
        raise ValueError("total degree must be divisible by 4 to eliminate kappa")
    inverse = gamma.inverse()
    K = (deg * trace_btc(gamma)) % 8
    img = []
    for n, e in key:
        m = act_char(inverse, n)
        n_back, k = transform_unit(m, gamma)
        if n_back != n:
            raise AssertionError("characteristic action failed to invert")
        img.append((m, e))
        K = (K + k * e) % 8
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


def _signed_terms(base_key, character, expect_count, expect_classes):
    coll = symmetrize_exact(base_key, character)
    if len(coll) != expect_classes:
        raise ArithmeticError(f"expected {expect_classes} monomials, got {len(coll)}")
    terms = []
    for img, (count, K) in sorted(coll.items()):
        if count != expect_count:
            raise ArithmeticError(f"multiplicity {count} != {expect_count} on {img}")
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
    return _signed_terms(base, chi_p, 720 // 60, 60)


@lru_cache(maxsize=None)
def chi12_terms():
    """The 15 signed six-fold monomials at fourth powers (weight 12), from
    symmetrizing the complement of the coordinate quadruple with trivial
    character, multiplicity 48; base six-plet normalized to +1."""
    base = mono_key((m, 4) for m in SIXPLET_BASE)
    return _signed_terms(base, None, 720 // 15, 15)


def _signed_sum_eval(terms, tau, eps, hiprec):
    th = theta_all_even(tau, eps, hiprec)
    with value_prec(hiprec):
        # each theta_m ** e and |theta_m| once, shared by every monomial
        powers = {(m, e): th[m].value ** e for m, e in {me for _, key in terms for me in key}}
        mods = {m: float(abs(t.value)) for m, t in th.items()}
        vals = []
        err = 0.0
        max_abs = 0.0
        for s, key in terms:
            v = None
            for me in key:
                v = powers[me] if v is None else v * powers[me]
            e = product_err((mods[m], th[m].err, k) for m, k in key)
            vals.append(s * v)
            err += e
            max_abs = max(max_abs, float(abs(v)))
        if hiprec:
            total = mp.mpc(mp.fsum(v.real for v in vals), mp.fsum(v.imag for v in vals))
        else:
            total = fsum_complex(vals)
    return total, err, max_abs


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


# --- numeric symmetrization (slow independent cross-check) ---------------


def monomial_at(key, tau, eps=1e-12, hiprec=False):
    """The monomial `key` at tau, as a one-term signed sum."""
    return _signed_sum_eval(((1, key),), tau, eps, hiprec)[0]


def slash_numeric(key, weight, gamma, tau, eps=1e-12, hiprec=False):
    """(f |_weight gamma)(tau) by direct evaluation at gamma tau."""
    scale = automorphy_factor(gamma, tau, -weight, hiprec)
    mv = monomial_at(key, act_tau(gamma, tau, hiprec), eps, hiprec)
    with value_prec(hiprec):
        return scale * mv


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
