"""The weight-30 form as a product of 60 face forms, and its certification.

Each of the fifteen plus-quadruples carries a tetrahedron in the
projective space of the second-order constants (azy5.geometry), whose
four faces are linear forms with coefficients in {0, +-1, +-i}.  The
production form is one evaluation of Theta(tau) and 60 linear forms:

    phi(tau) = PHI_CONSTANT * prod_{60 faces l} l(Theta(tau)).

The independent definition, phi_transversal, multiplies fifteen coset
factors over a transversal of the index-15 subgroup fixing M0,

    phi_gamma(tau) = chi_P(gamma) det(c tau + d)^{-2} P2(gamma tau).

Left multiplication of gamma by a stabilizer element eta scales the
factor by pair_sign(eta): the weight-2 multiplier of P2 on the stabilizer
differs from chi_P by the sign of the permutation eta induces on the
three matched pairs of odd characteristics (chi_P restricts to the
in-pair flip parity, the P2 multiplier to flips times pair moves).  The
product is therefore independent of the transversal under the index-two
kernel of pair_sign, from which alternate_system draws its words: that is
what representative independence means here.  For the canonical
transversal, phi_transversal(gamma tau) / det(c tau+d)^30
phi_transversal(tau) is a character of the full group (a fixed function
over a cocycle), measured to be chi_P on the four generators.

Each phi_gamma is a constant multiple of the quartic F of the tetrahedron
over gamma^{-1} M0 at Theta(tau) (geometric_crosscheck), so the product of
the 60 faces is a constant multiple of phi_transversal: PHI_CONSTANT =
-2^-44 under the face normalization of azy5.geometry, measured in high
precision and pinned by the tests.  estimate_lambda compares phi with the
60-monomial signed sum, which is computed from the first-order constants
and so independently of Theta.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from functools import reduce

import mpmath as mp
from mpmath.libmp import mpf_neg, mpf_pos, mpf_sum, round_nearest

from .chars import M0, act_set, chi_p, pair_sign
from .forms import azy_eval, p2, product_err
from .geometry import all_faces, tetrahedron
from .numeric import HIPREC_DPS, value_prec
from .siegel import sample_tau
from .symplectic import (E11, E22, ESYM, THETA0_2, CosetSystem, act_tau,
                         automorphy_factor, coset_reps, gl_rotation,
                         lower_translation, translation)
from .theta import ThetaValue, theta_second_vector

AZY_NORMALIZATION = (
    "weight-30 signed triple sum normalized so the monomial "
    "(theta_[00;00] theta_[00;01] theta_[01;00])^20 has coefficient +1; "
    "phi is the product of the fifteen factors "
    "chi_P(gamma) det(c tau + d)^-2 P2(gamma tau)."
)

# phi_transversal / (product of the 60 faces at Theta), a power of two.
PHI_CONSTANT = -(2.0 ** -44)

# Bounds on sum log|L| over the faces below and above 1 in modulus that
# keep every partial product of the double product, and phi, normal:
# 2^-969 leaves 53 bits after the scaling by 2^-44, 2^1000 room to round.
_LOG_TINY = -969 * math.log(2)
_LOG_HUGE = 1000 * math.log(2)


def _face_values(x, hiprec):
    """The 60 faces of all_faces() at the length-4 vector x.  A unit
    times x_k is exact, and the real and imaginary part of each face are
    rounded once: math.fsum in double, an exact mpf_sum rounded to the
    working precision in mpmath."""
    if hiprec:
        prec, neg = mp.mp.prec, mpf_neg
        parts = [(v.real._mpf_, v.imag._mpf_) for v in x]

        def total(terms):
            return mpf_pos(mpf_sum(terms), prec, round_nearest)

        def make(re, im):
            return mp.make_mpc((re, im))
    else:
        neg, total, make = operator.neg, math.fsum, complex
        parts = [(v.real, v.imag) for v in x]
    # (Re, Im) of a * x_k for the four units a
    rot = [{1: (r, i), -1: (neg(r), neg(i)), 1j: (neg(i), r), -1j: (i, neg(r))}
           for r, i in parts]
    out = []
    for face in all_faces():
        terms = [rot[k][a] for k, a in enumerate(face) if a]
        out.append(make(total(t[0] for t in terms), total(t[1] for t in terms)))
    return out


def _pairwise_product(vals):
    """Product of a list as a balanced tree of n - 1 multiplications."""
    while len(vals) > 1:
        nxt = [a * b for a, b in zip(vals[::2], vals[1::2])]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def phi(tau, eps=1e-12, hiprec=False, dps=None):
    """The weight-30 form PHI_CONSTANT * prod of the 60 faces of
    all_faces() at Theta(tau).

    Error bound.  Let Theta_i carry the certified error e_i and let u be
    the unit roundoff (2^-53 in double, 2^(1-prec) in mpmath).  A face l
    has coefficients a_i in {0, +-1, +-i}, so every a_i Theta_i is exact
    and l(Theta) moves by at most d = sum_{a_i != 0} e_i under the errors
    of Theta.  The real and imaginary parts of l are each summed with one
    rounding (_face_values), so the computed value L is within
    u |l| <= 2u |L| of l at the computed Theta; each factor is thus
    within E = d + 2u |L| of l at the true Theta, and product_err bounds
    the effect on the product by prod(|L| + E) - prod |L|.  Each of the
    59 complex multiplications of the pairwise product has relative
    error at most sqrt(5) u (Brent, Percival and Zimmermann, Math. Comp.
    76 (2007)), so the computed product P is within
    ((1 + sqrt(5) u)^59 - 1) prod |L| <= 2 * 59 sqrt(5) u |P| of prod L.
    The scaling by a power of two is exact.  In double, all this needs
    every partial product in the normal range; a point where the faces
    could leave it raises instead of returning a false bound."""
    vec = theta_second_vector(tau, eps, hiprec, dps)
    with value_prec(hiprec, dps):
        u = 2.0 ** (1 - mp.mp.prec) if hiprec else 2.0 ** -53
        vals = _face_values([t.value for t in vec], hiprec)
        mods = [abs(complex(L)) for L in vals]
        if not hiprec:
            logs = [math.log(m) for m in mods if m]
            if (sum(t for t in logs if t < 0) < _LOG_TINY
                    or sum(t for t in logs if t > 0) > _LOG_HUGE):
                raise ArithmeticError("the face product leaves the double range; use hiprec")
        factors = [(m, sum(t.err for a, t in zip(face, vec) if a) + 2 * u * m, 1)
                   for m, face in zip(mods, all_faces())]
        P = _pairwise_product(vals)
        err = product_err(factors) + 2 * 59 * math.sqrt(5) * u * abs(complex(P))
        return ThetaValue(PHI_CONSTANT * P, -PHI_CONSTANT * err)


def phi_gamma(gamma, tau, eps=1e-12, hiprec=False, dps=None):
    """One coset factor chi_P(gamma) det(c tau+d)^{-2} P2(gamma tau)."""
    scale = automorphy_factor(gamma, tau, -2, hiprec, dps)
    pv = p2(act_tau(gamma, tau, hiprec, dps), eps, hiprec, dps)
    with value_prec(hiprec, dps):
        v = chi_p(gamma) * scale * pv.value
    return ThetaValue(v, float(abs(scale)) * pv.err)


def phi_transversal(tau, eps=1e-12, hiprec=False, dps=None, system=None):
    """The weight-30 product over a 15-element transversal (the canonical
    one unless `system` provides another): the independent definition
    that the cross-checks compare phi with."""
    reps = (system or coset_reps(THETA0_2)).reps
    if len(reps) != 15:
        raise ValueError("phi_transversal needs a 15-element coset transversal")
    factors = [phi_gamma(g, tau, eps, hiprec, dps) for g in reps]
    with value_prec(hiprec, dps):
        v = None
        for f in factors:
            v = f.value if v is None else v * f.value
    return ThetaValue(v, product_err((f.value, f.err, 1) for f in factors))


# Generators of the kernel of pair_sign inside the stabilizer: the three
# upper translations and ESYM flip pairs in place, the even lower
# translations and the reflection rotation act trivially on the odd
# characteristics, and the order-3 rotation cycles the three pairs.
_INVARIANCE_GENERATORS = (
    translation(E11), translation(E22), translation(ESYM),
    lower_translation(((2, 0), (0, 0))), lower_translation(((0, 0), (0, 2))),
    lower_translation(((0, 2), (2, 0))),
    gl_rotation(((-1, 0), (0, 1))), gl_rotation(((0, -1), (1, -1))),
)


def invariance_word(rng, length=6):
    """Seeded random word in the stabilizer subgroup under which the
    factors phi_gamma are exactly coset-invariant (pair_sign = +1)."""
    w = None
    for _ in range(length):
        g = rng.choice(_INVARIANCE_GENERATORS)
        if rng.randrange(2):
            g = g.inverse()
        w = g if w is None else w @ g
    if pair_sign(w) != 1:
        raise AssertionError("invariance word escaped the pair_sign kernel")
    return w


def alternate_system(seed=0, word_length=6):
    """A second transversal: each canonical representative multiplied on
    the left by a seeded random element of the invariance kernel, then
    shuffled.  phi over this system must agree with the canonical one
    exactly (up to numerics): the acid test of representative
    independence.  Stabilizer elements with pair_sign -1 would flip the
    corresponding factor, so they are excluded; longer words do not make
    the test stronger but do push gamma tau toward the boundary, where
    the series need far larger truncation."""
    rng = random.Random(seed)
    base = coset_reps(THETA0_2)
    reps = [invariance_word(rng, word_length) @ g for g in base.reps]
    rng.shuffle(reps)
    return CosetSystem(THETA0_2, tuple(reps), None)


def rep_independence_error(tau, seed=0, eps=1e-12, hiprec=False, dps=None):
    """Relative difference of phi_transversal across the two transversals
    at tau."""
    a = phi_transversal(tau, eps, hiprec, dps)
    b = phi_transversal(tau, eps, hiprec, dps, system=alternate_system(seed))
    with value_prec(hiprec, dps):
        return float(abs(a.value - b.value) / abs(a.value))


def phi_modularity_error(gamma, tau, eps=1e-12, hiprec=False, dps=None):
    """|phi(gamma tau) / (chi_P(gamma) det(c tau+d)^30 phi(tau)) - 1|."""
    det30 = automorphy_factor(gamma, tau, 30, hiprec, dps)
    lhs = phi(act_tau(gamma, tau, hiprec, dps), eps, hiprec, dps).value
    base = phi(tau, eps, hiprec, dps).value
    with value_prec(hiprec, dps):
        return float(abs(lhs / (chi_p(gamma) * det30 * base) - 1))


@dataclass(frozen=True)
class LambdaEstimate:
    """Proportionality constant phi = lambda * (signed triple sum), with
    the per-sample ratios, their relative spread, and the normalization
    convention the number refers to."""
    value: complex
    ratios: tuple
    spread: float
    normalization: str = AZY_NORMALIZATION


def _median(xs):
    s = sorted(xs)
    n = len(s)
    if n % 2:
        return s[n // 2]
    return (s[n // 2 - 1] + s[n // 2]) / 2


def estimate_lambda(seed=0, samples=5, eps=1e-12, hiprec=False, dps=None,
                    cancellation_guard=1e-6):
    """Measure lambda = phi/azy at seeded sample points.  Points where the
    signed sum suffers catastrophic cancellation (|value| below
    cancellation_guard times the largest monomial) are redrawn."""
    import numpy as np
    rng = np.random.default_rng(seed)
    ratios = []
    attempts = 0
    while len(ratios) < samples:
        attempts += 1
        if attempts > 20 * samples:
            raise RuntimeError("sampling keeps hitting azy cancellation; widen the guard")
        tau = sample_tau(rng)
        av, _, amax = azy_eval(tau, eps, hiprec, dps)
        if abs(av) < cancellation_guard * amax:
            continue
        pv = phi(tau, eps, hiprec, dps)
        with value_prec(hiprec, dps):
            ratios.append(pv.value / av)
    med = complex(_median([float(r.real) for r in ratios]),
                  _median([float(r.imag) for r in ratios]))
    scale = abs(med)
    spread = max(float(abs(a - b)) for a in ratios for b in ratios) / scale
    if hiprec:
        with mp.workdps(dps or HIPREC_DPS):
            med = mp.mpc(_median([r.real for r in ratios]),
                         _median([r.imag for r in ratios]))
    return LambdaEstimate(med, tuple(ratios), spread)


def geometric_crosscheck(taus, eps=1e-12, hiprec=False, dps=None):
    """Per-representative constancy of F_{gamma^{-1} M0} / phi_gamma over
    the sample points, plus the spread of (prod of all fifteen F) /
    (prod of all fifteen phi_gamma), the latter being phi_transversal.
    Theta(tau) and each phi_gamma are evaluated once per point.
    Returns (per_rep, product_spread) where per_rep maps each
    representative index to (sorted quadruple, relative spread)."""
    reps = coset_reps(THETA0_2).reps
    quads = [frozenset(act_set(g.inverse(), M0)) for g in reps]
    if len(set(quads)) != 15:
        raise RuntimeError("transversal does not hit all fifteen quadruples")
    tets = [tetrahedron(q) for q in quads]
    rep_ratios = []
    prod_ratios = []
    for tau in taus:
        x = [t.value for t in theta_second_vector(tau, eps, hiprec, dps)]
        fvs = [T.form_value(x) for T in tets]
        pgs = [phi_gamma(g, tau, eps, hiprec, dps).value for g in reps]
        rep_ratios.append([complex(f / p) for f, p in zip(fvs, pgs)])
        with value_prec(hiprec, dps):
            pv = reduce(operator.mul, pgs)
        prod_ratios.append(complex(reduce(operator.mul, fvs) / pv))
    per_rep = {i: (tuple(sorted(q)), _relative_spread([r[i] for r in rep_ratios]))
               for i, q in enumerate(quads)}
    return per_rep, _relative_spread(prod_ratios)


def _relative_spread(rs):
    """Largest pairwise distance of complex ratios over the modulus of
    their componentwise median."""
    med = complex(_median([r.real for r in rs]), _median([r.imag for r in rs]))
    return max(abs(a - b) for a in rs for b in rs) / abs(med)
