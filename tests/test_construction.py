"""The weight-30 form: the 60-face product against the fifteen-factor
transversal product, coset invariance, representative independence,
modularity, the proportionality constant, and the tetrahedral
cross-check."""

import mpmath as mp
import pytest

from azy5.chars import M0, chi_p, pair_sign
from azy5.construction import (AZY_NORMALIZATION, PHI_CONSTANT,
                               estimate_lambda, geometric_crosscheck, phi,
                               phi_gamma, phi_modularity_error,
                               phi_transversal, rep_independence_error)
from azy5.forms import p2
from azy5.siegel import sample_taus
from azy5.symplectic import (E11, GENERATORS, IDENTITY, THETA0_2,
                             SymplecticMatrix, act_tau, coset_reps,
                             gl_rotation, subgroup_generators, translation)
from azy5.theta import ThetaValue

# phi / (signed triple sum) under the +1 base-monomial normalization
LAMBDA_EXACT = -(2.0 ** -57) / 1000.0


def test_phi_gamma_at_identity(taus):
    tau = taus[0]
    a = phi_gamma(IDENTITY, tau)
    b = p2(tau)
    assert a.value == b.value
    assert a.err == b.err


def test_p2_sign_flip_under_eta0(taus):
    for tau in taus[:3]:
        lhs = p2(act_tau(translation(E11), tau)).value
        rhs = -p2(tau).value
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_factor_ratio_under_stabilizer(taus):
    """Left multiplication by a stabilizer element eta scales a factor by
    exactly pair_sign(eta): +1 on the invariance kernel, -1 on elements
    that transpose the matched pairs."""
    tau = taus[0]
    g = coset_reps(THETA0_2).reps[3]
    cases = ((translation(E11), 1),
             (gl_rotation(((0, -1), (1, -1))), 1),
             (gl_rotation(((0, 1), (1, 0))), -1),
             (gl_rotation(((1, 1), (0, 1))), -1))
    base = phi_gamma(g, tau).value
    for eta, sign in cases:
        assert pair_sign(eta) == sign
        moved = phi_gamma(eta @ g, tau).value
        assert abs(moved - sign * base) < 1e-9 * abs(base)


def test_rep_independence(taus):
    assert rep_independence_error(taus[0]) < 1e-9


def test_rep_independence_hiprec(taus):
    assert rep_independence_error(taus[0], eps=1e-30, hiprec=True) < 1e-25


def test_rep_independence_catches_a_pair_blind_multiplier(taus, monkeypatch):
    """Without the pair sign the multiplier is wrong on the two rotations
    that transpose matched pairs, where P2(eta tau) has the opposite sign:
    the residual is then about 2."""
    import azy5.construction as construction
    monkeypatch.setattr(construction, "pair_sign", lambda gamma: 1)
    assert rep_independence_error(taus[0]) >= 1


def test_phi_modularity_catches_a_wrong_multiplier(taus, monkeypatch):
    """With chi_P taken as 1, phi(g tau) has the opposite sign to the
    claimed law on A, B and C, where chi_P = -1: residuals about 2.  And
    the same loop at weight 28 fails on J, where det(c tau + d) = det(-tau)
    is not a root of unity."""
    import azy5.construction as construction
    tau = taus[0]
    assert [chi_p(g) for g in GENERATORS] == [1, -1, -1, -1]
    errs = construction._law_errors(phi, 28, chi_p, GENERATORS, tau, 1e-12, False)
    assert errs[0] >= 1e-1
    assert max(errs[1:]) < 1e-6
    monkeypatch.setattr(construction, "chi_p", lambda gamma: 1)
    errs = phi_modularity_error(tau)
    assert errs[0] < 1e-6
    assert min(errs[1:]) >= 1


def test_crosscheck_reads_no_inverse():
    """geometric_crosscheck takes each gamma^{-1}.M0 from gamma's own
    action table; the package forms no inverse matrix."""
    assert not hasattr(SymplecticMatrix, "inverse")
    per_rep, product_error = geometric_crosscheck(sample_taus(seed=11, count=2))
    assert product_error < 1e-5
    assert max(s for _, s in per_rep.values()) < 1e-5
    quads = [q for q, _ in per_rep.values()]
    assert len(set(quads)) == 15
    assert quads[0] == tuple(sorted(M0))


def test_generator_rotations_give_the_order_three_rotation():
    """The rotations of subgroup_generators(THETA0_2) are S, T and R, so
    the order-3 rotation that cycles the three pairs is a word in them."""
    rot_s, rot_t, rot_r = subgroup_generators(THETA0_2)[6:]
    assert rot_s == gl_rotation(((0, 1), (1, 0)))
    assert rot_t == gl_rotation(((1, 1), (0, 1)))
    assert rot_r == gl_rotation(((-1, 0), (0, 1)))
    word = rot_s @ rot_t @ rot_s @ rot_r @ rot_s
    assert word == gl_rotation(((0, -1), (1, -1)))


def test_crosscheck_catches_a_wrong_phi_constant(monkeypatch):
    import azy5.construction as construction
    monkeypatch.setattr(construction, "PHI_CONSTANT", 2 * PHI_CONSTANT)
    _, product_error = geometric_crosscheck(sample_taus(seed=11, count=1))
    assert abs(product_error - 1) < 1e-8


def test_phi_modularity(taus):
    assert max(phi_modularity_error(taus[1])) < 1e-6


def test_lambda_estimate_double():
    est = estimate_lambda(seed=0, samples=3)
    assert est.spread < 1e-5
    assert abs(est.value - LAMBDA_EXACT) < 1e-8 * abs(LAMBDA_EXACT)
    assert abs(est.value.imag) < 1e-8 * abs(LAMBDA_EXACT)
    assert est.normalization == AZY_NORMALIZATION
    assert len(est.ratios) == 3


def test_lambda_estimate_hiprec():
    est = estimate_lambda(seed=0, samples=2, eps=1e-30, hiprec=True)
    assert est.spread < 1e-20
    assert abs(complex(est.value) - LAMBDA_EXACT) < 1e-12 * abs(LAMBDA_EXACT)


def test_lambda_guard_raises(monkeypatch):
    import azy5.construction as construction
    monkeypatch.setattr(construction, "CANCELLATION_GUARD", 1e9)
    with pytest.raises(RuntimeError, match="CANCELLATION_GUARD"):
        estimate_lambda(seed=0, samples=1)


def test_geometric_crosscheck():
    taus = sample_taus(seed=11, count=2)
    per_rep, product_error = geometric_crosscheck(taus)
    assert len(per_rep) == 15
    quads = {q for q, _ in per_rep.values()}
    assert len(quads) == 15
    for q, spread in per_rep.values():
        assert spread < 1e-5
    assert product_error < 1e-5


def test_hiprec_geometric_crosscheck_resolves_beyond_double():
    """The F values and their ratios to phi_gamma stay at working
    precision, so the spreads and the product residual show the 1e-30
    constants, far below the 2^-53 that F products rounded at double
    precision leave."""
    per_rep, product_error = geometric_crosscheck(sample_taus(seed=0, count=3),
                                                  1e-30, hiprec=True)
    assert max(s for _, s in per_rep.values()) < 1e-25
    assert product_error < 1e-25


def test_phi_hiprec_agrees_with_double(taus):
    tau = taus[0]
    a = phi(tau).value
    b = phi(tau, eps=1e-30, hiprec=True).value
    assert abs(a - complex(b)) < 1e-10 * abs(a)


def _mp_diff(a, b, dps=70):
    with mp.workdps(dps):
        return float(abs(mp.mpmathify(a) - mp.mpmathify(b)))


def test_phi_constant_against_transversal(taus, near_point):
    """phi = -2^-44 * (product of the 60 faces) equals the fifteen-factor
    transversal product in high precision, within the sum of both
    bounds, at generic points and at one whose worst gamma tau has
    lam_min about 0.15."""
    assert PHI_CONSTANT == -(2.0 ** -44)
    hard = near_point(0.8, 0.3, 0.5, 0.1, 0.2, -0.1)
    worst = min(act_tau(g, hard).lam_min for g in coset_reps(THETA0_2).reps)
    assert 0.14 < worst < 0.16
    for tau in list(taus) + [hard]:
        a = phi(tau, eps=1e-30, hiprec=True)
        b = phi_transversal(tau, eps=1e-30, hiprec=True)
        assert _mp_diff(a.value, b.value, 50) <= a.err + b.err
        assert a.err < 1e-25 * float(abs(b.value))


def test_double_phi_bound_covers_rounding(near_taus, monkeypatch):
    """Double phi against a 70-digit phi at lam_min 0.12, 0.2 and 0.35:
    the double err covers the difference.  Then, with the double Theta
    taken as exact (err 0), the err of phi is its rounding bound alone,
    and it still covers the distance to the 70-digit product of the
    same inputs."""
    import azy5.construction as construction
    import azy5.numeric as numeric
    monkeypatch.setattr(numeric, "HIPREC_DPS", 70)
    for tau in near_taus:
        d = phi(tau)
        ref = phi(tau, eps=1e-60, hiprec=True)
        assert _mp_diff(d.value, ref.value) <= d.err
        assert d.err < 1e-8 * abs(d.value)
    for tau in near_taus:
        x = [t.value for t in construction.theta_second_vector(tau)]
        with monkeypatch.context() as m:
            m.setattr(construction, "theta_second_vector",
                      lambda tau, eps, hiprec: tuple(
                          ThetaValue(mp.mpc(v) if hiprec else v, 0.0) for v in x))
            d = phi(tau)
            ref = phi(tau, hiprec=True)
        assert 0 < _mp_diff(d.value, ref.value) <= d.err < 1e-12 * abs(d.value)


def test_phi_evaluates_theta_at_tau_only(taus, monkeypatch):
    """phi needs the four second-order constants at tau and nothing
    else: no transformed point, no first-order constant."""
    import azy5.construction as construction
    seen = []
    real = construction.theta_second_vector

    def spy(tau, *args):
        seen.append(tau)
        return real(tau, *args)

    monkeypatch.setattr(construction, "theta_second_vector", spy)
    monkeypatch.setattr(construction, "p2", None)
    monkeypatch.setattr(construction, "transform", None)
    phi(taus[0])
    assert seen == [taus[0]]
