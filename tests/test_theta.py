"""Theta numerics: frozen reference values, brute-force cross-checks,
certified truncation, the exact transformation factors, and the measured
multiplier kappa."""

import cmath
import math
import random
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest

from azy5.chars import EVEN_CHARS, ODD_CHARS, mdbl_of, mprime_of, xi_numerator
from azy5.numeric import m2_det, mobius
from azy5.siegel import TAU_I, SiegelPoint
from azy5.symplectic import (E11, E22, ESYM, FULL, IDENTITY, J, act_tau,
                             random_word, translation)
from azy5.theta import (_CHI8, MPRIME_ORDER, _tail, kappa4, kappa_numeric,
                        kappa_probes, theta_constant, theta_gradient_vector,
                        theta_second_order, trace_btc, truncation_radius)
from reference import theta_raw, transform_unit

# Reference values computed once by an independent one-dimensional product
# formula (at tau = i*identity every lattice sum splits): e.g.
# theta_[00;00](i 1) = (sum_n e^{-pi n^2})^2.
THETA_00_AT_I = 1.18034059901609622604533794056
THETA2_00_AT_I = 1.00748372034508470616338383668
THETA2_11_AT_I = 0.17285687867101151988195410388
THETA_G1_00_AT_2I = 1.00373488548773909104767959507


def test_frozen_values_double(tau_i):
    v = theta_constant(0, tau_i).value
    assert abs(v - THETA_00_AT_I) < 1e-13
    assert abs(v.imag) < 1e-13
    w = theta_second_order((0, 0), tau_i).value
    assert abs(w - THETA2_00_AT_I) < 1e-13
    u = theta_second_order((1, 1), tau_i).value
    assert abs(u - THETA2_11_AT_I) < 1e-13
    # at 2i I the genus-2 series is the square of the genus-1 one
    v2 = theta_constant(0, SiegelPoint(2j * np.eye(2))).value
    assert abs(v2 - THETA_G1_00_AT_2I ** 2) < 1e-13


def test_frozen_values_hiprec(tau_i):
    v = theta_constant(0, tau_i, eps=1e-30, hiprec=True).value
    with mp.workdps(40):
        assert abs(v - mp.mpf("1.18034059901609622604533794056")) < 1e-28


def test_odd_characteristics_vanish(tau_i, taus):
    for m in ODD_CHARS:
        tv = theta_constant(m, taus[0])
        assert tv.value == 0
        assert tv.err == 0.0


def test_against_brute_force(taus, brute):
    for tau in taus[:3]:
        ent = tau.entries()
        for m in EVEN_CHARS:
            lib = theta_constant(m, tau).value
            ref = brute(mprime_of(m), mdbl_of(m), ent)
            assert abs(lib - ref) < 1e-11 * max(1.0, abs(ref))


def test_second_order_is_doubled_theta(taus):
    tau = taus[1]
    doubled = SiegelPoint(2 * tau.mat)
    for mpv in MPRIME_ORDER:
        a = theta_second_order(mpv, tau).value
        b = theta_raw(mpv, (0, 0), doubled).value
        assert abs(a - b) < 1e-13


def test_certified_error_bound(taus):
    """eps 1e-6 leaves rho to the double resolution; eps 1e-20, below it,
    sets a larger rho and a smaller err."""
    tau = taus[2]
    for m in EVEN_CHARS:
        coarse = theta_constant(m, tau, eps=1e-6)
        fine = theta_constant(m, tau, eps=1e-20)
        assert abs(coarse.value - fine.value) <= coarse.err + fine.err
        assert fine.err < coarse.err


def test_double_error_bound_covers_rounding(taus, near_taus, direct_mp):
    """The reported err of a double-precision constant bounds its distance
    from a 30-digit direct sum over a box three shells wider, at generic
    points and at points with lam_min in [0.12, 0.35]."""
    assert all(0.12 <= t.lam_min <= 0.35 for t in near_taus)
    for tau in list(taus[:3]) + near_taus:
        R = truncation_radius(tau, 1e-12) + 3
        for m in EVEN_CHARS:
            tv = theta_constant(m, tau)
            ref = direct_mp(mprime_of(m), mdbl_of(m), tau.entries(), R, 30)
            with mp.workdps(30):
                diff = float(abs(mp.mpmathify(tv.value) - ref))
            assert diff <= tv.err, (tau, m, diff, tv.err)


def test_truncation_radius_monotone(taus):
    tau = taus[0]
    assert truncation_radius(tau, 1e-6) <= truncation_radius(tau, 1e-12)
    with pytest.raises(ValueError):
        truncation_radius(tau, 0.0)


def test_truncation_radius_is_least():
    """truncation_radius gives the least certified R, tail(R) < eps <=
    tail(R - 1), for lam_min in [0.01, 5] and eps down to 1e-60."""
    for eps in (1e-12, 1e-30, 1e-60):
        for lam in np.geomspace(0.01, 5, 120):
            R = truncation_radius(SimpleNamespace(lam_min=lam), eps)
            assert _tail(lam, R) < eps, (lam, eps)
            assert R == 1 or _tail(lam, R - 1) >= eps, (lam, eps)


def _log_bound(lam, x, moments):
    """log P(rho), or log W(rho) with moments, at rho^2 = x for the least
    eigenvalue lam of Im T, from the closed forms of the module docstring
    at 40 digits, as an independent reference for _ellipse."""
    with mp.workdps(40):
        r, s = mp.sqrt(x), 2 * mp.sqrt(mp.pi * lam)
        i = [mp.sqrt(mp.pi) * mp.erfc(r), mp.exp(-x)]
        for j in range(2, 6):
            i.append(r ** (j - 1) * mp.exp(-x) + mp.mpf(j - 1) / 2 * i[j - 2])
        if moments:
            return float(mp.log((i[3] + 4 / s * i[4] + 4 / s ** 2 * i[5]) / (2 * lam)))
        return float(mp.log(i[1] + 4 / s * i[2] + 4 / s ** 2 * i[3]))


@pytest.mark.parametrize("poly,scale", [(0, 1.0), (2, 4 * math.pi)])
def test_radius_is_least_and_needs_two_tails(poly, scale, monkeypatch):
    """A term on the shell ||n||_inf = r of a translate k = 2n + m' is
    charged a weight of at most scale (r + 1/2)^poly: 1 in a constant,
    from the run at tau/4, and (pi/2) |w| <= 4 pi (r + 1/2)^2,
    w = k0^2, 2 k0 k1 or k1^2, in a gradient entry, from the moment run
    at tau/2.  For lam_min in [0.01, 5] and eps down to 1e-60, _ellipse
    takes the least rho^2, to within 1/10, whose bound (P, or W with
    moments) meets its target; it evaluates that bound at most twice
    past its three fixed-point steps; and the omitted terms of each
    translate, at those weights, sum to at most its cut."""
    import azy5.theta as theta
    moments = poly > 0
    calls = []
    erfc = math.erfc
    monkeypatch.setattr(math, "erfc", lambda z: calls.append(z) or erfc(z))
    for eps in (1e-12, 1e-30, 1e-60):
        for lam in np.geomspace(0.01, 5, 24):
            run = lam / (2 if moments else 4)
            calls.clear()
            x, _, cut, _ = theta._ellipse((run, 0.0, run), 53, eps, moments)
            assert len(calls) <= 5, (lam, eps)
            # Y = run I, so q* = 2 pi run
            target = math.log(eps) if moments else min(math.log(eps), -53 * math.log(2)
                                                       - 2 * math.pi * run)
            assert _log_bound(run, x, moments) <= target < _log_bound(run, x - 0.1, moments)
            K = math.isqrt(int((x + 80) / (math.pi * run))) + 2
            k0, k1 = np.meshgrid(np.arange(-K, K + 1), np.arange(-K, K + 1), indexing="ij")
            q = math.pi * run * (k0 ** 2 + k1 ** 2)
            for m0, m1 in MPRIME_ORDER:
                out = (k0 % 2 == m0) & (k1 % 2 == m1) & (q > x)
                r = np.maximum(abs(k0 - m0) // 2, abs(k1 - m1) // 2)[out]
                omitted = math.fsum(scale * (r + 0.5) ** poly * np.exp(-q[out]))
                assert 0 < omitted <= cut, (lam, eps, m0, m1)


@pytest.mark.parametrize("hiprec", [False, True])
def test_eps_must_be_positive_and_finite(taus, hiprec):
    for eps in (math.nan, math.inf, -1.0, 0.0):
        with pytest.raises(ValueError, match="positive and finite"):
            theta_constant(0, taus[0], eps, hiprec=hiprec)


def test_hiprec_matches_double(taus):
    tau = taus[3]
    for m in EVEN_CHARS[:4]:
        a = theta_constant(m, tau, eps=1e-13).value
        b = theta_constant(m, tau, eps=1e-13, hiprec=True).value
        assert abs(a - complex(b)) < 1e-12


def test_shift_sign_in_series(taus):
    """theta at an unreduced characteristic (m', m'' + 2r) equals the
    reduced theta up to (-1)^{m'.r}; the series itself must produce it."""
    tau = taus[0]
    for m in EVEN_CHARS:
        mpv, mdv = mprime_of(m), mdbl_of(m)
        base = theta_raw(mpv, mdv, tau).value
        for r in ((2, 0), (0, 2), (2, 2)):
            shifted = theta_raw(mpv, (mdv[0] + r[0], mdv[1] + r[1]), tau).value
            sign = -1 if (mpv[0] * r[0] + mpv[1] * r[1]) // 2 % 2 else 1
            assert abs(shifted - sign * base) < 1e-12


def test_diagonal_factorization(brute_g1):
    """At block-diagonal tau every genus-2 constant splits into a product
    of genus-1 constants."""
    t1, t2 = 2j, 0.3 + 1.1j
    tau = SiegelPoint([[t1, 0], [0, t2]])
    for m in EVEN_CHARS:
        (a1, a2), (b1, b2) = mprime_of(m), mdbl_of(m)
        lib = theta_constant(m, tau).value
        ref = brute_g1(a1, b1, t1) * brute_g1(a2, b2, t2)
        assert abs(lib - ref) < 1e-10


def test_gradient_against_finite_differences(taus):
    """Derivatives with respect to (tau11, tau12, tau22), the symmetric
    off-diagonal entry counted once, checked by central differences."""
    tau = taus[1]
    h = 1e-5
    basis = (np.array([[1, 0], [0, 0]]), np.array([[0, 1], [1, 0]]),
             np.array([[0, 0], [0, 1]]))
    for mpv, grad in zip(MPRIME_ORDER, theta_gradient_vector(tau, 1e-12, False)):
        for k, B in enumerate(basis):
            up = SiegelPoint(tau.mat + h * B)
            dn = SiegelPoint(tau.mat - h * B)
            fd = (theta_second_order(mpv, up, eps=1e-14).value
                  - theta_second_order(mpv, dn, eps=1e-14).value) / (2 * h)
            assert abs(grad[k] - fd) < 1e-6 * max(1.0, abs(fd))


def test_xi_chi_is_eighth_root():
    rng = random.Random(3)
    for _ in range(20):
        g = random_word(FULL, rng, 4)
        for m in EVEN_CHARS:
            num = xi_numerator(m, g)  # xi_m(g) = num/8, chi_m(g) = e^{2 pi i xi}
            assert isinstance(num, int)
            assert abs(_CHI8[num % 8] - cmath.exp(2j * math.pi * num / 8)) < 1e-12


def test_transform_unit_pins_translation_law(taus):
    """theta_n(tau + B) = e^{pi i k/4} theta_m(tau) with (n, k) from the
    exact factor table; upper translations have kappa = 1."""
    tau = taus[2]
    for B in (E11, E22, ESYM):
        g = translation(B)
        moved = act_tau(g, tau)
        for m in EVEN_CHARS:
            n, k = transform_unit(m, g)
            lhs = theta_constant(n, moved).value
            rhs = _CHI8[k] * theta_constant(m, tau).value
            assert abs(lhs - rhs) < 1e-11


def test_specific_translation_phase():
    # theta_[10;00] gains e^{pi i/4} under tau -> tau + E11
    m = 8
    g = translation(E11)
    n, k = transform_unit(m, g)
    assert n == m
    assert k == 1


def test_kappa_probe_agreement(full_words):
    for g in full_words(12, 5):
        probes = kappa_probes(g)
        vals = list(probes.values())
        spread = max(abs(a - b) for a in vals for b in vals)
        assert spread < 1e-8


def test_kappa_probes_match_single_constants(full_words):
    """kappa_probes takes its constants from theta_all_even; one series per
    constant gives the same bits."""
    tau0 = TAU_I
    for g in full_words(6, 5):
        tau_g = act_tau(g, tau0)
        sqrt_det = cmath.sqrt(m2_det(mobius(g, tau0.entries())[1]))
        want = {}
        for m in EVEN_CHARS:
            th = theta_constant(m, tau0).value
            if abs(th) > 1e-3:
                n, k = transform_unit(m, g)
                want[m] = theta_constant(n, tau_g).value / (_CHI8[k] * sqrt_det * th)
        assert kappa_probes(g) == want


def test_kappa_probe_point_constants_are_computed_once(full_words, monkeypatch):
    """At the default probe point the ten even constants are computed
    once per eps, not once per gamma: ten words take eleven
    theta_all_even calls."""
    from azy5 import theta
    real = theta.theta_all_even
    calls = []
    monkeypatch.setattr(theta, "theta_all_even",
                        lambda tau, eps: calls.append(tau) or real(tau, eps))
    theta._probe_thetas.cache_clear()
    for g in full_words(10, 5):
        kappa_probes(g)
    assert len(calls) == 11


def test_kappa_fourth_power(full_words):
    for g in full_words(20, 5):
        kap = kappa_numeric(g)
        assert abs(abs(kap) - 1) < 1e-8
        assert abs(kap ** 4 - kappa4(g)) < 1e-8


def test_kappa4_exact_values():
    assert kappa4(IDENTITY) == 1
    assert kappa4(J) == 1
    assert trace_btc(J) == -2
    g = J @ translation(E11) @ J
    assert kappa4(g) == (-1 if trace_btc(g) % 2 else 1)


def test_full_transformation_law(taus, full_words):
    """theta_n(gamma tau) = kappa e^{pi i k/4} det(c tau + d)^{1/2} theta_m
    with one kappa shared by every characteristic."""
    tau = taus[0]
    for g in full_words(6, 4):
        moved = act_tau(g, tau)
        kap = kappa_numeric(g, tau)
        _, den = mobius(g, tau.entries())
        root = cmath.sqrt(m2_det(den))
        for m in EVEN_CHARS:
            n, k = transform_unit(m, g)
            lhs = theta_constant(n, moved).value
            rhs = kap * _CHI8[k] * root * theta_constant(m, tau).value
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))
