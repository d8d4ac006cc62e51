"""The weight-30 form: the 60-face product against the fifteen-factor
transversal product, coset invariance, representative independence,
modularity, the proportionality constant, and the tetrahedral
cross-check."""

import random

import mpmath as mp
import pytest

from azy5.chars import M0, act_set, pair_sign
from azy5.construction import (AZY_NORMALIZATION, PHI_CONSTANT,
                               alternate_system, estimate_lambda,
                               geometric_crosscheck, invariance_word, phi,
                               phi_gamma, phi_modularity_error,
                               phi_transversal, rep_independence_error)
from azy5.forms import p2
from azy5.siegel import sample_taus
from azy5.symplectic import (E11, ETA0, IDENTITY, THETA0_2, act_tau,
                             coset_reps, gl_rotation, in_subgroup,
                             translation)
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
        lhs = p2(act_tau(ETA0, tau)).value
        rhs = -p2(tau).value
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_invariance_word_properties():
    rng = random.Random(5)
    words = [invariance_word(rng) for _ in range(10)]
    for w in words:
        assert pair_sign(w) == 1
        assert in_subgroup(w, THETA0_2)
    again = [invariance_word(random.Random(5)) for _ in range(10)]
    assert words[0] == again[0]  # seeded draws are reproducible


def test_alternate_system_is_a_transversal():
    alt = alternate_system(seed=3)
    assert len(alt) == 15
    canon = {frozenset(act_set(g.inverse(), M0)): g for g in coset_reps(THETA0_2).reps}
    seen = set()
    for g in alt:
        key = frozenset(act_set(g.inverse(), M0))
        seen.add(key)
        # same coset as the canonical representative with the same key
        assert in_subgroup(g @ canon[key].inverse(), THETA0_2)
    assert len(seen) == 15


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
    for seed in (0, 1):
        assert rep_independence_error(taus[0], seed=seed) < 1e-8


def test_rep_independence_catches_a_wrong_phi_constant(taus, monkeypatch):
    import azy5.construction as construction
    monkeypatch.setattr(construction, "PHI_CONSTANT", 2 * PHI_CONSTANT)
    assert abs(rep_independence_error(taus[0]) - 0.5) < 1e-8


def test_phi_rejects_short_system(taus):
    with pytest.raises(ValueError):
        phi_transversal(taus[0], reps=(IDENTITY,))


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
    with pytest.raises(RuntimeError):
        estimate_lambda(seed=0, samples=1)


def test_geometric_crosscheck():
    taus = sample_taus(seed=11, count=2)
    per_rep, product_spread = geometric_crosscheck(taus)
    assert len(per_rep) == 15
    quads = {q for q, _ in per_rep.values()}
    assert len(quads) == 15
    for q, spread in per_rep.values():
        assert spread < 1e-5
    assert product_spread < 1e-5


def test_hiprec_geometric_crosscheck_resolves_beyond_double():
    """The F values and their ratios to phi_gamma stay at working
    precision, so the spreads show the 1e-30 constants, far below the
    2^-53 that F products rounded at double precision leave."""
    per_rep, product_spread = geometric_crosscheck(sample_taus(seed=0, count=3),
                                                   1e-30, hiprec=True)
    assert max(s for _, s in per_rep.values()) < 1e-25
    assert product_spread < 1e-25


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
    monkeypatch.setattr(construction, "act_tau", None)
    phi(taus[0])
    assert seen == [taus[0]]
