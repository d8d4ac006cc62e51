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
law holds on every word in a set of stabilizer elements once it holds on
each of them, so rep_independence_error checks it on the nine letters of
subgroup_generators(THETA0_2), whose rotations generate GL2(Z): that is
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
fifteen canonical factors, and it compares PHI_CONSTANT times the
product of the fifteen F with their product, each gamma^{-1} M0 the
preimage of M0 in gamma's action table.  One loop, _law_errors, checks
both laws: rep_independence_error compares P2 at the nine generator
images with one P2(tau), phi_modularity_error phi at the four generator
images with one phi(tau), each image and its det(c tau + d) from one
symplectic.transform.  estimate_lambda compares phi with the 60-monomial
signed sum at the seeded points of siegel.sample_stream; the sum comes
from the first-order constants and so independently of Theta.

Every product here is the certified product of azy5.forms: phi, P2 and
each F are forms.face_product at Theta, and phi_transversal multiplies
its factors by forms.value_product; each bound covers the input errors
and the rounding of its own multiplications.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from statistics import median

from .chars import M0, char_action, chi_p, pair_sign
from .forms import azy_eval, face_product, p2, value_product
from .geometry import all_faces, tetrahedron
from .numeric import value_prec
from .siegel import sample_stream
from .symplectic import (GENERATORS, THETA0_2, coset_reps, subgroup_generators,
                         transform)
from .theta import ThetaValue, theta_second_vector

AZY_NORMALIZATION = (
    "weight-30 signed triple sum normalized so the monomial "
    "(theta_[00;00] theta_[00;01] theta_[01;00])^20 has coefficient +1; "
    "phi is the product of the fifteen factors "
    "chi_P(gamma) det(c tau + d)^-2 P2(gamma tau)."
)

# phi_transversal / (product of the 60 faces at Theta), a power of two.
PHI_CONSTANT = -(2.0 ** -44)

# The share of the largest monomial below which estimate_lambda redraws a
# point.
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
    point, det = transform(gamma, tau, hiprec)
    pv = p2(point, eps, hiprec)
    with value_prec(hiprec):
        scale = det ** -2
        v = chi_p(gamma) * scale * pv.value
    return ThetaValue(v, float(abs(scale)) * pv.err)


def phi_transversal(tau, eps=1e-12, hiprec=False):
    """The weight-30 product over the canonical 15-element transversal:
    the independent definition that the cross-checks compare phi with."""
    reps = coset_reps(THETA0_2).reps
    return value_product([phi_gamma(g, tau, eps, hiprec) for g in reps], hiprec)


def _law_errors(form, weight, unit, letters, tau, eps, hiprec):
    """|form(g tau) / (unit(g) det(c tau+d)^weight form(tau)) - 1| for each
    g in letters, in order: one evaluation of form(tau), and one transform
    and one evaluation of form per letter."""
    base = form(tau, eps, hiprec).value
    if not base:
        raise ArithmeticError(f"{form.__name__} is 0 at {tau!r}: its law has no ratio")
    errs = []
    for g in letters:
        point, det = transform(g, tau, hiprec)
        lhs = form(point, eps, hiprec).value
        with value_prec(hiprec):
            errs.append(float(abs(lhs / (unit(g) * det**weight * base) - 1)))
    return errs


def rep_independence_error(tau, eps=1e-12, hiprec=False):
    """max |P2(eta tau) / (chi_P(eta) pair_sign(eta) det(c tau+d)^2 P2(tau))
    - 1| over eta in subgroup_generators(THETA0_2).  The factor
    phi_gamma(eta gamma) is pair_sign(eta) phi_gamma(gamma) exactly when
    P2 has this multiplier at eta, and the multiplier law passes from the
    letters to every word in them."""
    return max(_law_errors(p2, 2, lambda eta: chi_p(eta) * pair_sign(eta),
                           subgroup_generators(THETA0_2), tau, eps, hiprec))


def phi_modularity_error(tau, eps=1e-12, hiprec=False):
    """|phi(g tau) / (chi_P(g) det(c tau+d)^30 phi(tau)) - 1| for each g
    in GENERATORS, in that order.  Modularity on the generators gives it
    on the whole group, since the slash action composes and chi_P is a
    character."""
    return tuple(_law_errors(phi, 30, chi_p, GENERATORS, tau, eps, hiprec))


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
    """Measure lambda = phi/azy at the points of sample_stream(seed).  A
    point where the signed sum cancels below CANCELLATION_GUARD times its
    largest monomial is skipped; 20 * samples draws at most."""
    ratios = []
    for tau in islice(sample_stream(seed), 20 * samples):
        av, _, amax = azy_eval(tau, eps, hiprec)
        if abs(av) < CANCELLATION_GUARD * amax:
            continue
        pv = phi(tau, eps, hiprec)
        with value_prec(hiprec):
            ratios.append(pv.value / av)
        if len(ratios) == samples:
            break
    else:
        raise RuntimeError("sampling keeps hitting azy cancellation below "
                           "CANCELLATION_GUARD times the largest monomial")
    with value_prec(hiprec):
        med, spread = _median_spread(ratios)
    return LambdaEstimate(med, tuple(ratios), spread)


def geometric_crosscheck(taus, eps=1e-12, hiprec=False):
    """Per-representative constancy of F_{gamma^{-1} M0} / phi_gamma over
    the sample points, plus the largest |PHI_CONSTANT (prod of all fifteen
    F) / (prod of all fifteen phi_gamma) - 1|, the latter product being
    phi_transversal, so that a wrong PHI_CONSTANT shows.  Theta(tau) and
    each phi_gamma are evaluated once per point; each F is a face product
    at Theta, and the ratios and their spreads are formed at the working
    precision.  Returns (per_rep, product_error) where per_rep maps each
    representative index to (sorted quadruple, relative spread)."""
    reps = coset_reps(THETA0_2).reps
    quads = [frozenset(m for m, n in enumerate(char_action(g).image) if n in M0)
             for g in reps]
    if len(set(quads)) != 15:
        raise RuntimeError("transversal does not hit all fifteen quadruples")
    tets = [tetrahedron(q) for q in quads]
    rep_ratios = []
    product_error = 0.0
    for tau in taus:
        x = theta_second_vector(tau, eps, hiprec)
        pgs = [phi_gamma(g, tau, eps, hiprec) for g in reps]
        fvs = [face_product(T.faces, x, hiprec) for T in tets]
        with value_prec(hiprec):
            rep_ratios.append([f.value / p.value for f, p in zip(fvs, pgs)])
            ratio = (PHI_CONSTANT * value_product(fvs, hiprec).value
                     / value_product(pgs, hiprec).value)
            product_error = max(product_error, float(abs(ratio - 1)))
    with value_prec(hiprec):
        per_rep = {i: (tuple(sorted(q)), _median_spread([r[i] for r in rep_ratios])[1])
                   for i, q in enumerate(quads)}
    return per_rep, product_error


def _median_spread(rs):
    """The componentwise median of the ratios, of their own complex type
    (complex, or mpc formed at the ambient precision), and their largest
    pairwise distance over its modulus as a float."""
    re, im = median([r.real for r in rs]), median([r.imag for r in rs])
    med = type(rs[0])(re, im)
    if not med:
        raise ArithmeticError("the median ratio is 0: its spread has no scale")
    return med, float(max(abs(a - b) for a in rs for b in rs) / abs(med))
