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
precision and pinned by the tests.  The checks therefore read each
quantity once: geometric_crosscheck is the only one that evaluates the
fifteen canonical factors, rep_independence_error compares the product
over the alternate transversal with phi, and phi_modularity_error
compares phi at the four generator images with one phi(tau).
estimate_lambda compares phi with the 60-monomial signed sum, which is
computed from the first-order constants and so independently of Theta.

Every product here is the certified product of azy5.forms: phi, P2 and
each F are forms.face_product at Theta, and phi_transversal multiplies
its factors by forms.value_product; each bound covers the input errors
and the rounding of its own multiplications.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from statistics import median

import mpmath as mp
import numpy as np

from .chars import M0, act_set, chi_p, pair_sign
from .forms import azy_eval, face_product, p2, value_product
from .geometry import all_faces, tetrahedron
from .numeric import value_prec
from .siegel import sample_tau
from .symplectic import (E11, E22, ESYM, GENERATORS, THETA0_2, act_tau,
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

# Letters of an invariance_word (see alternate_system), and the share of
# the largest monomial below which estimate_lambda redraws a point.
INVARIANCE_WORD_LENGTH = 6
CANCELLATION_GUARD = 1e-6

def phi(tau, eps=1e-12, hiprec=False):
    """The weight-30 form PHI_CONSTANT * prod of the 60 faces of
    all_faces() at Theta(tau), through forms.face_product, whose bound
    covers the theta errors and the rounding of the faces and of the
    59 multiplications.  The scaling by a power of two is exact."""
    P = face_product(all_faces(), theta_second_vector(tau, eps, hiprec), hiprec)
    with value_prec(hiprec):
        return ThetaValue(PHI_CONSTANT * P.value, -PHI_CONSTANT * P.err)


def phi_gamma(gamma, tau, eps=1e-12, hiprec=False):
    """One coset factor chi_P(gamma) det(c tau+d)^{-2} P2(gamma tau)."""
    scale = automorphy_factor(gamma, tau, -2, hiprec)
    pv = p2(act_tau(gamma, tau, hiprec), eps, hiprec)
    with value_prec(hiprec):
        v = chi_p(gamma) * scale * pv.value
    return ThetaValue(v, float(abs(scale)) * pv.err)


def phi_transversal(tau, eps=1e-12, hiprec=False, reps=None):
    """The weight-30 product over a 15-element transversal (the canonical
    one unless `reps` gives another): the independent definition that
    the cross-checks compare phi with."""
    if reps is None:
        reps = coset_reps(THETA0_2).reps
    if len(reps) != 15:
        raise ValueError("phi_transversal needs a 15-element coset transversal")
    return value_product([phi_gamma(g, tau, eps, hiprec) for g in reps], hiprec)


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


def invariance_word(rng):
    """Seeded random word in the stabilizer subgroup under which the
    factors phi_gamma are exactly coset-invariant (pair_sign = +1)."""
    w = None
    for _ in range(INVARIANCE_WORD_LENGTH):
        g = rng.choice(_INVARIANCE_GENERATORS)
        if rng.randrange(2):
            g = g.inverse()
        w = g if w is None else w @ g
    if pair_sign(w) != 1:
        raise AssertionError("invariance word escaped the pair_sign kernel")
    return w


def alternate_system(seed=0):
    """A second transversal, as a tuple of fifteen representatives: each
    canonical representative multiplied on the left by a seeded random
    element of the invariance kernel, then shuffled.  The product over
    it must equal phi exactly (up to numerics): the acid test of
    representative independence.  Stabilizer elements with pair_sign -1
    would flip the corresponding factor, so they are excluded; words
    longer than INVARIANCE_WORD_LENGTH do not make the test stronger but
    do push gamma tau toward the boundary, where the series need far
    larger truncation."""
    rng = random.Random(seed)
    reps = [invariance_word(rng) @ g for g in coset_reps(THETA0_2).reps]
    rng.shuffle(reps)
    return tuple(reps)


def rep_independence_error(tau, seed=0, eps=1e-12, hiprec=False):
    """|phi_transversal over alternate_system(seed) - phi| / |phi| at tau.
    phi equals the product over the canonical transversal, so this
    catches a factor that depends on its representative as well as a
    wrong PHI_CONSTANT."""
    a = phi(tau, eps, hiprec)
    b = phi_transversal(tau, eps, hiprec, reps=alternate_system(seed))
    with value_prec(hiprec):
        return float(abs(a.value - b.value) / abs(a.value))


def phi_modularity_error(tau, eps=1e-12, hiprec=False):
    """|phi(g tau) / (chi_P(g) det(c tau+d)^30 phi(tau)) - 1| for each g
    in GENERATORS, in that order, from one evaluation of phi(tau).
    Modularity on the generators gives it on the whole group, since the
    slash action composes and chi_P is a character."""
    base = phi(tau, eps, hiprec).value
    errs = []
    for g in GENERATORS:
        det30 = automorphy_factor(g, tau, 30, hiprec)
        lhs = phi(act_tau(g, tau, hiprec), eps, hiprec).value
        with value_prec(hiprec):
            errs.append(float(abs(lhs / (chi_p(g) * det30 * base) - 1)))
    return tuple(errs)


@dataclass(frozen=True)
class LambdaEstimate:
    """Proportionality constant phi = lambda * (signed triple sum), with
    the per-sample ratios, their relative spread, and the normalization
    convention the number refers to."""
    value: complex
    ratios: tuple
    spread: float
    normalization: str = AZY_NORMALIZATION


def estimate_lambda(seed=0, samples=5, eps=1e-12, hiprec=False):
    """Measure lambda = phi/azy at seeded sample points.  Points where the
    signed sum suffers catastrophic cancellation (|value| below
    CANCELLATION_GUARD times the largest monomial) are redrawn."""
    rng = np.random.default_rng(seed)
    ratios = []
    attempts = 0
    while len(ratios) < samples:
        attempts += 1
        if attempts > 20 * samples:
            raise RuntimeError("sampling keeps hitting azy cancellation; widen the guard")
        tau = sample_tau(rng)
        av, _, amax = azy_eval(tau, eps, hiprec)
        if abs(av) < CANCELLATION_GUARD * amax:
            continue
        pv = phi(tau, eps, hiprec)
        with value_prec(hiprec):
            ratios.append(pv.value / av)
    with value_prec(hiprec):
        med, spread = _median_spread(ratios)
    return LambdaEstimate(med, tuple(ratios), spread)


def geometric_crosscheck(taus, eps=1e-12, hiprec=False):
    """Per-representative constancy of F_{gamma^{-1} M0} / phi_gamma over
    the sample points, plus the spread of (prod of all fifteen F) /
    (prod of all fifteen phi_gamma), the latter being phi_transversal.
    Theta(tau) and each phi_gamma are evaluated once per point; each F
    is a face product at Theta, and the ratios and their spreads are
    formed at the working precision.  Returns (per_rep, product_spread)
    where per_rep maps each representative index to (sorted quadruple,
    relative spread)."""
    reps = coset_reps(THETA0_2).reps
    quads = [frozenset(act_set(g.inverse(), M0)) for g in reps]
    if len(set(quads)) != 15:
        raise RuntimeError("transversal does not hit all fifteen quadruples")
    tets = [tetrahedron(q) for q in quads]
    rep_ratios = []
    prod_ratios = []
    for tau in taus:
        x = theta_second_vector(tau, eps, hiprec)
        pgs = [phi_gamma(g, tau, eps, hiprec) for g in reps]
        fvs = [face_product(T.faces, x, hiprec) for T in tets]
        with value_prec(hiprec):
            rep_ratios.append([f.value / p.value for f, p in zip(fvs, pgs)])
            prod_ratios.append(value_product(fvs, hiprec).value
                               / value_product(pgs, hiprec).value)
    with value_prec(hiprec):
        per_rep = {i: (tuple(sorted(q)), _median_spread([r[i] for r in rep_ratios])[1])
                   for i, q in enumerate(quads)}
        return per_rep, _median_spread(prod_ratios)[1]


def _median_spread(rs):
    """The componentwise median of the ratios, and their largest pairwise
    distance over its modulus as a float; mpc ratios are compared at the
    ambient precision."""
    re, im = median([r.real for r in rs]), median([r.imag for r in rs])
    med = mp.mpc(re, im) if isinstance(re, mp.mpf) else complex(re, im)
    return med, float(max(abs(a - b) for a in rs for b in rs) / abs(med))
