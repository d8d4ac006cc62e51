"""Theta monomials, certified product errors, the exact level-2 coset
symmetrization, and the classical product forms with their constants."""

import hashlib
import math
import random

import mpmath as mp
import numpy as np
import pytest

from azy5.chars import EVEN_CHARS, chi_p, even_quadruples, even_triples
from azy5.forms import (AZY_BASE_TRIPLE, AZY_EXPONENT, SIXPLET_BASE,
                        _product_errs, azy, azy_eval, azy_terms,
                        chi5_determinant, chi5_product, chi10, chi12,
                        chi12_terms, mono_key, monomial_degree, mu_ratio, p2,
                        slash_unit, symmetrize_exact)
from azy5.siegel import SiegelPoint
from azy5.symplectic import FULL, GENERATORS, coset_reps, random_word
from azy5.theta import _CHI8
from reference import (monomial_at, slash_numeric, slash_unit_by_inverse,
                       symmetrize_numeric)

MU_EXACT = -32j / math.pi ** 3


def product_err(factors):
    """prod(|v| + err)^e - prod |v|^e over the (value, err, e) factors,
    as _product_errs bounds it."""
    rows = np.array([(float(abs(v)), err, e) for v, err, e in factors]).reshape(-1, 3)
    return float(_product_errs(rows[:, 0], rows[:, 1], rows[None, :, 2])[0][0])


def test_mono_key_canonicalization():
    assert mono_key([(4, 1), (0, 2), (4, 3)]) == ((0, 2), (4, 4))
    assert mono_key({1: 5}) == ((1, 5),)
    assert mono_key([(0, 0), (2, 1)]) == ((2, 1),)
    assert monomial_degree(mono_key((m, 1) for m in EVEN_CHARS)) == 10


def test_mono_key_rejects_bad_input():
    with pytest.raises(ValueError):
        mono_key([(5, 2)])  # odd characteristic
    with pytest.raises(ValueError):
        mono_key([(0, 2), (0, -3)])


def test_product_err_registers_subulp():
    e = product_err([(1.0, 1e-30, 1)])
    assert 0.9e-30 < e < 1.1e-30


def test_product_err_matches_direct_difference():
    e = product_err([(2.0, 1e-12, 3)])
    # (2 + d)^3 - 8 expanded exactly; the naive float subtraction would
    # lose four digits to cancellation at the ulp of 8
    exact = 3 * 4 * 1e-12 + 3 * 2 * 1e-24 + 1e-36
    assert exact * (1 - 1e-9) <= e < exact * (1 + 1e-9)


def test_product_err_survives_vanishing_factor():
    # a factor whose modulus is far below its own error must not overflow
    e = product_err([(1e-17, 1e-13, 20), (1.0, 1e-16, 40)])
    assert math.isfinite(e) and e > 0
    assert product_err([(0.0, 1e-10, 2)]) == pytest.approx(1e-20)
    assert product_err([(0.0, 0.0, 1), (3.0, 1e-12, 2)]) == 0.0


@pytest.mark.parametrize("factors", [
    [(1e298, 1e286, 30), (1e-304, 1e-310, 30)],
    [(0.0, 1e-150, 2), (1e298, 1e286, 30), (1e-304, 1e-310, 29)]], ids=["nonzero", "zero"])
def test_product_err_covers_large_log_sums(factors):
    """Rows with sum |e_j log|v_j|| near 4e4 and nonzero errs, one with a
    zero factor, are covered by the same formula evaluated at 50 digits:
    prod(|v_j| + err_j)^e_j - prod |v_j|^e_j.  The rounding of their log
    sums is charged in full; a flat relative allowance of 1e-12 would fall
    short on the first by about 1.8e-12."""
    assert sum(abs(e * math.log(v)) for v, _, e in factors if v) > 1000
    with mp.workdps(50):
        hi = lo = mp.mpf(1)
        for v, err, e in factors:
            hi *= (mp.mpf(v) + mp.mpf(err)) ** e
            lo *= mp.mpf(v) ** e
        exact = hi - lo
    assert 0 < exact <= product_err(factors)


def test_azy_terms_structure():
    terms = azy_terms()
    assert len(terms) == 60
    signs = [s for s, _ in terms]
    assert signs.count(1) == 30 and signs.count(-1) == 30
    triples = {frozenset(m for m, _ in key) for _, key in terms}
    assert triples == {frozenset(t) for t in even_triples("minus")}
    assert all(e == AZY_EXPONENT for _, key in terms for _, e in key)
    base = mono_key((m, AZY_EXPONENT) for m in AZY_BASE_TRIPLE)
    assert dict((k, s) for s, k in terms)[base] == 1


def test_chi12_terms_structure():
    terms = chi12_terms()
    assert len(terms) == 15
    assert all(s == 1 for s, _ in terms)
    sixes = {frozenset(m for m, _ in key) for _, key in terms}
    assert sixes == {frozenset(set(EVEN_CHARS) - set(q))
                     for q in even_quadruples("plus")}
    assert all(e == 4 for _, key in terms for _, e in key)


def test_signed_term_tables_are_pinned():
    for terms, digest in (
            (azy_terms(), "3bd97757ae74486a06dce8b23784bec9721d32155c99c28ce18abb6e4917c978"),
            (chi12_terms(), "03fd3dd95f6742fc24e88309604dd2b079c45678d73763d71bcc4c9389441e4f")):
        assert hashlib.sha256(repr(terms).encode()).hexdigest() == digest


def test_signed_terms_enumerate_no_cosets():
    """Both tables come from closing an orbit under the four generators,
    not from the 720 coset representatives."""
    for cached in (coset_reps, azy_terms, chi12_terms):
        cached.cache_clear()
    azy_terms()
    chi12_terms()
    info = coset_reps.cache_info()
    assert info.hits + info.misses == 0


def test_symmetrize_exact_rejects_sign_flip_in_principal2():
    # theta_[10;00]^2 theta_[00;00]^2 changes sign under tau -> tau + 2 E11,
    # an element of principal(2), so its coset sum is ill-defined
    with pytest.raises(ArithmeticError):
        symmetrize_exact(mono_key([(8, 2), (0, 2)]))


def test_symmetrize_exact_on_invariant_monomial():
    key = mono_key((m, 2) for m in EVEN_CHARS)
    out = symmetrize_exact(key)
    assert out == {key: (720, 0)}


def test_symmetrize_exact_multiplicities():
    base = mono_key((m, 4) for m in SIXPLET_BASE)
    out = symmetrize_exact(base)
    assert len(out) == 15
    assert all(count == 48 and K in (0, 4) for count, K in out.values())


def test_slash_unit_against_numeric(taus):
    """The exact (image, eighth-root) reduction of f |_k gamma must match
    direct evaluation at gamma tau for arbitrary group elements."""
    tau = taus[0]
    key = mono_key([(0, 2), (9, 1), (12, 1)])  # degree 4, weight 2
    rng = random.Random(71)
    for _ in range(10):
        g = random_word(FULL, rng, 5)
        img, K = slash_unit(key, g)
        lhs = slash_numeric(key, 2, g, tau)
        rhs = _CHI8[K] * monomial_at(img, tau)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_slash_unit_matches_the_inverse_formula():
    """Inverting the image permutation of gamma's action table gives what
    acting with gamma^{-1} gives, for every monomial of the weight-30 and
    weight-12 signed sums under each generator."""
    for _, key in azy_terms() + chi12_terms():
        for g in GENERATORS:
            assert slash_unit(key, g) == slash_unit_by_inverse(key, g)


def test_slash_unit_identity_and_degree_guard():
    key = mono_key([(0, 4)])
    from azy5.symplectic import IDENTITY
    assert slash_unit(key, IDENTITY) == (key, 0)
    with pytest.raises(ValueError):
        slash_unit(mono_key([(0, 2)]), IDENTITY)


def test_symmetrize_numeric_matches_exact_sum(tau_i):
    tau = SiegelPoint([[1.1j, 0.2 + 0.1j], [0.2 + 0.1j, 1.3j]])
    base = mono_key((m, 4) for m in SIXPLET_BASE)
    num = symmetrize_numeric(base, 12, tau, multiplicity=48)
    ref = chi12(tau).value
    assert abs(num - ref) < 1e-8 * max(1.0, abs(ref))


def test_symmetrize_numeric_with_sign_character_matches_azy():
    """The signs of azy_terms: the chi_P-twisted coset sum of the base
    triple's (theta_0 theta_1 theta_4)^20, at gamma tau by direct
    evaluation, over the 720 cosets counts each signed triple 12 times."""
    tau = SiegelPoint([[1.1j, 0.2 + 0.1j], [0.2 + 0.1j, 1.3j]])
    base = mono_key((m, AZY_EXPONENT) for m in AZY_BASE_TRIPLE)
    num = symmetrize_numeric(base, 30, tau, character=chi_p, multiplicity=12)
    ref = azy(tau).value
    assert abs(num - ref) < 1e-8 * max(1.0, abs(ref))


def test_symmetrize_numeric_pretest_rejects_noninvariant(taus):
    # theta_[10;00]^2 picks up -1 under tau -> tau + 2 E11
    with pytest.raises(ValueError):
        symmetrize_numeric(mono_key([(8, 2)]), 1, taus[0])


def test_azy_eval_consistency(taus):
    tau = taus[0]
    v, err, max_abs = azy_eval(tau)
    assert azy(tau).value == v
    assert azy(tau).err == err
    assert max_abs >= abs(v) / 60


def test_chi10_is_square_of_product(taus):
    tau = taus[1]
    p = chi5_product(tau)
    q = chi10(tau)
    assert abs(q.value - p.value ** 2) < 1e-15 * abs(q.value) + q.err
    assert abs(q.value) > 0


def test_chi5_product_vanishes_on_diagonal(tau_i):
    # theta_[11;11] factors through the vanishing genus-1 odd constant
    tv = chi5_product(tau_i)
    assert abs(tv.value) <= tv.err


def test_mu_ratio_closed_form(taus):
    """chi5_product / chi5_determinant is the constant -32 i / pi^3."""
    for tau in taus[:2]:
        mu = mu_ratio(tau)
        assert abs(mu - MU_EXACT) < 1e-10 * abs(MU_EXACT)
    third = mu_ratio(taus[2])
    assert abs(third - mu_ratio(taus[3])) < 1e-9


def test_chi5_determinant_nonzero(taus):
    assert abs(chi5_determinant(taus[0])) > 1e-12


def test_hiprec_agrees_with_double(taus):
    tau = taus[2]
    for f in (azy, p2, chi10):
        a = f(tau).value
        b = f(tau, eps=1e-20, hiprec=True).value
        assert abs(a - complex(b)) < 1e-10 * max(1e-30, abs(a))
    ma = mu_ratio(tau)
    mb = mu_ratio(tau, eps=1e-20, hiprec=True)
    assert abs(ma - complex(mb)) < 1e-10 * abs(ma)
