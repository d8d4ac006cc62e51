"""Certified evaluation of theta constants with reduced characteristics.

Series convention (all exponentials are in units of pi*i, i.e. exp(w) here
means e^{pi i w}):

    theta_m(tau) = sum_{n in Z^g} e^{pi i [ (n+m'/2)^T tau (n+m'/2)
                                            + (n+m'/2)^T m'' ]},

the z = 0 value of the classical series; it vanishes identically for odd m.
Second-order constants are Theta_{m'}(tau) = theta_{[m';0]}(2 tau), indexed
by m' in {00, 01, 10, 11} (this order fixes all matrix and vector layouts).

Truncation is over the box of max-norm shells ||n||_inf <= R.  A term on
shell r has modulus e^{-pi (n+a)^T Y (n+a)} <= e^{-pi lam (r-1/2)^2} with
lam the least eigenvalue of Y = Im tau and a in [-1/2,1/2]^g, and genus-2
shells hold 8r points (2 at genus 1), giving the certified tail majorant

    tail(R) <= C(g) * sum_{r > R} r^{g-1} e^{-pi lam (r-1/2)^2},  C(2) = 8,

evaluated numerically with a geometric remainder.  Derivative series carry
an extra polynomial majorant (r+1/2)^2 and prefactor 4 pi.  The reported
err of a value is this tail plus a rounding bound for the summation.

Every series runs through one kernel contract.  A kernel sums the terms
e^{pi i v^T T v}, v = n + a2/2, over a box of n, with T = 2^s tau for a
power of two that the series fixes and a2 in {0, 1}^2.  It returns the
four sums S_pq over the classes n = (p, q) mod 2, optionally the three
sums weighted by k1^2, 2 k1 k2 and k2^2 (k = 2v), and a rounding bound
that covers every signed combination of the S_pq.  Characteristics that
share m' differ only in the factor e^{pi i m''.v} = i^{a2.m''}
(-1)^{p m''_1 + q m''_2}, so one kernel run serves every m''
(_character_sum): theta_all_even makes four runs for its ten constants.  The second-order
constants Theta_{m'}(tau) = sum_n e^{pi i (2n+m')^T (tau/2) (2n+m')} are
the classes k = m' mod 2 of one run over k in [-2R, 2R+1]^2 at tau/2: the
same terms as four separate series, in one box.  The gradient is one run
with the moments.  The precision only chooses the kernel and how the
combined sums are rounded once, to an mpc or to a complex.

Double precision runs _grid: numpy terms over the whole box, each class
summed by math.fsum, so each S_pq is exactly rounded and the result does
not depend on summation order; _grid's docstring derives its bound.

High precision runs _walk, a fixed-point row recurrence.  Each row fixes
n2 and walks n1 outward, both ways, from the row's largest term at
n1 = nint(-Y12 v2 / Y11 - a1), clipped to the box.  A step costs two
multiplications, t <- t u and u <- u e^{2 pi i T11}, where u is the ratio
of neighbouring terms (the downward walk has its own ratio w), so a row
needs three full-precision exponentials, for t, u and w at its centre,
plus one per walk for e^{2 pi i T11}; their arguments are formed exactly
from the binary entries of T.  Every quantity has modulus at most 1, since
the walk moves away from the row's minimum of the real quadratic form, so
the arithmetic is Python-integer fixed point with the working precision
plus GUARD_BITS fractional bits, and its error is absolute.  Counted in
units of 2^-wp, each exponential is off by at most 5 (mpmath's result at
wp bits, then truncated) and each product by at most 1.5, so a term k
steps from its row centre is off by at most 5 + 4k + 4k^2; the walk's
bound is twice the sum of that over the box, the factor two covering
second-order terms.  The integer sums are exact, so the result does not
depend on summation order and is deterministic.

Either way the combined sum is rounded once to the working precision
(53 bits in double), which adds 2^(1-prec) |value| to the bound.

The transformation factors under gamma in Sp(4,Z) are

    theta_{gamma.m}(gamma.tau) = kappa(gamma) chi_m(gamma)
                                 det(c tau + d)^{1/2} theta_m(tau),

where chi_m(gamma) = e^{2 pi i xi_m(gamma)} is an eighth root of unity
computed exactly from integer data, and kappa(gamma) is independent of m
with kappa^4 = e^{pi i Tr(b^T c)}.  kappa is never produced by a closed
formula here: kappa_numeric measures it against the principal branch of
det(c tau0 + d)^{1/2} at a probe point, and every downstream identity is
checked at fourth-power or modulus level where the branch cancels.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import NamedTuple

import mpmath as mp
import numpy as np
from mpmath.libmp import (from_man_exp, fzero, mpc_expjpi, mpf_shift,
                          to_fixed)

from .chars import (EVEN_CHARS, act_char_vectors, char_index, mdbl_of,
                    mprime_of, parity, reduction_sign)
from .numeric import HIPREC_DPS, fsum_complex, m2_det, mobius, value_prec
from .siegel import SiegelPoint
from .symplectic import act_tau

MPRIME_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))


class ThetaValue(NamedTuple):
    """Value together with the analytic tail bound of the truncation used."""
    value: complex
    err: float


def _tail(lam, R, g=2, poly=0, scale=1.0):
    """Certified tail majorant for truncation radius R (see module docstring)."""
    if lam <= 0:
        raise ValueError("lambda_min must be positive")
    total = 0.0
    prev = math.inf
    r = R + 1
    while True:
        cnt = 8.0 * r if g == 2 else 2.0
        t = scale * cnt * (r + 0.5) ** poly * math.exp(-math.pi * lam * (r - 0.5) ** 2)
        total += t
        if t <= prev / 2 and (t <= total * 2.0 ** -60 or t < 1e-320):
            return total + t  # geometric remainder at ratio <= 1/2
        prev = t
        r += 1
        if r > R + 200000:
            raise RuntimeError("tail bound fails to certify; lambda_min too small")


def _radius(lam, eps, g=2, poly=0, scale=1.0):
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    # analytic first guess: first-term majorant ~ scale*8r (r+1/2)^p
    # e^{-pi lam (r-1/2)^2} < eps, then walk to the minimal certified R
    guess = math.sqrt(max(1.0, math.log(max(8.0 * scale, 2.0) / eps)) / (math.pi * lam))
    R = max(1, int(guess) - 2)
    if R > 4000:
        raise RuntimeError(
            "truncation radius exceeds sanity cap; Im(tau) is too close to "
            "singular for direct summation")
    while _tail(lam, R, g, poly, scale) >= eps:
        R += 1
        if R > 4096:
            raise RuntimeError("truncation radius exceeds sanity cap")
    while R > 1 and _tail(lam, R - 1, g, poly, scale) < eps:
        R -= 1
    return R


def truncation_radius(tau, eps):
    """Smallest shell radius whose certified tail bound is below eps for a
    first-order theta constant at tau."""
    return _radius(tau.lam_min, eps, g=tau.g)


# Unit roundoff of IEEE double.
_U = 2.0 ** -53


def _grid(t, a2, box, moments=False):
    """The numpy kernel behind every double-precision series, with the
    contract of _walk: t = (T11, T12, T22) as Python complex, a2 and box
    as there.  sums[p][q] and the moment sums are (re, im) pairs, each
    component an exactly rounded math.fsum over its terms; bound covers
    every signed combination of the four class sums.

    With v = k/2, the lattice values v and v_i v_j are exact, so forming
    q = v^T T v costs one rounding per monomial and one per addition: at
    most 3 u Q, u the unit roundoff and Q = |T11| v1^2 + 2 |T12| |v1 v2|
    + |T22| v2^2 the sum of the moduli of its monomials.  The factor
    pi i, with pi rounded, adds 2 u |q| <= 2 u Q, and the complex
    exponential at most 5 u (exp, cos and sin within one ulp each, and
    one product).  Each term is therefore off by at most
    8 u |t| (1 + pi Q), the slack covering second-order terms, and
    rounding a class sum adds u |S_pq| per component, counted as
    2 u |S_pq|."""
    (lo0, hi0), (lo1, hi1) = box
    k0 = np.arange(2 * lo0 + a2[0], 2 * hi0 + a2[0] + 1, 2, dtype=float)[:, None]
    k1 = np.arange(2 * lo1 + a2[1], 2 * hi1 + a2[1] + 1, 2, dtype=float)[None, :]
    v0, v1 = k0 / 2, k1 / 2
    t11, t12, t22 = t
    form = t11 * (v0 * v0) + 2 * t12 * (v0 * v1) + t22 * (v1 * v1)
    form_abs = abs(t11) * (v0 * v0) + 2 * abs(t12) * np.abs(v0 * v1) + abs(t22) * (v1 * v1)
    terms = np.exp(1j * np.pi * form)

    def pair(x):
        z = fsum_complex(x.ravel())
        return z.real, z.imag

    sums = [[pair(terms[(p - lo0) % 2::2, (q - lo1) % 2::2]) for q in (0, 1)]
            for p in (0, 1)]
    mom = [pair(terms * w) for w in (k0 * k0, 2 * k0 * k1, k1 * k1)] if moments else None
    bound = 8 * _U * float(np.sum(np.abs(terms) * (1 + np.pi * form_abs)))
    bound += 2 * _U * sum(abs(complex(*s)) for row in sums for s in row)
    return sums, mom, bound


# Fractional bits the fixed-point walk carries beyond the working precision.
GUARD_BITS = 32


def _raw_entries(tau, shift=0):
    """(tau11, tau12, tau22) of 2^shift tau as raw mpmath (re, im) pairs,
    scaled exactly; a genus-1 point is padded with zeros."""
    T = tau.entries_mp()
    ents = (T[0][0],) if tau.g == 1 else (T[0][0], T[0][1], T[1][1])
    raw = [tuple(mpf_shift(x, shift) for x in z._mpc_) for z in ents]
    return tuple(raw + [(fzero, fzero)] * (3 - len(raw)))


def _ray(xr, xi, ur, ui, er, ei, count, wp):
    """`count` further terms of a row: x <- x u, then u <- u e, in fixed
    point with wp fractional bits (floor rounding)."""
    re, im = [], []
    for _ in range(count):
        xr, xi = (xr * ur - xi * ui) >> wp, (xr * ui + xi * ur) >> wp
        ur, ui = (ur * er - ui * ei) >> wp, (ur * ei + ui * er) >> wp
        re.append(xr)
        im.append(xi)
    return re, im


def _walk(t, a2, box, wp, moments=False):
    """The row-recurrence kernel behind every high-precision series.

    Sums e^{pi i v^T T v} over v = n + a2/2, n in the box
    ((lo1, hi1), (lo2, hi2)), T given by _raw_entries, a2 in {0, 1}^2.
    Returns (sums, mom, bound): sums[p][q] is the (re, im) fixed-point
    integer sum, wp fractional bits, over n = (p, q) mod 2; with moments,
    mom is the three sums weighted by k1^2, 2 k1 k2 and k2^2, k = 2v
    (else None); bound is the rounding bound of one sum (module docstring).
    """
    (lo0, hi0), (lo1, hi1) = box
    parts = [x for z in t for x in z]
    e = min((x[2] for x in parts if x[1]), default=0)
    r00, i00, r01, i01, r11, i11 = [
        (-x[1] if x[0] else x[1]) << (x[2] - e) if x[1] else 0 for x in parts]

    def seed(c00, c01, c11):
        # e^{pi i (c00 T11 + c01 T12 + c11 T22) / 4}: exact argument,
        # exponential at wp bits, truncated to wp fractional bits
        q = (from_man_exp(c00 * r00 + c01 * r01 + c11 * r11, e - 2),
             from_man_exp(c00 * i00 + c01 * i01 + c11 * i11, e - 2))
        xr, xi = mpc_expjpi(q, wp)
        return to_fixed(xr, wp), to_fixed(xi, wp)

    slope = -i01 / i00 if i00 else 0.0
    er, ei = seed(8, 0, 0)
    sums = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    mom = [[0, 0], [0, 0], [0, 0]]
    ks = range(2 * lo0 + a2[0], 2 * hi0 + a2[0] + 1, 2)
    for n1 in range(lo1, hi1 + 1):
        k1 = 2 * n1 + a2[1]
        # the row's largest term sits at the nearest lattice point to the
        # minimum of Y11 v1^2 + 2 Y12 v1 v2 in v1
        c = min(hi0, max(lo0, round((slope * k1 - a2[0]) / 2)))
        k0 = 2 * c + a2[0]
        tr, ti = seed(k0 * k0, 2 * k0 * k1, k1 * k1)
        re, im = [tr], [ti]
        if c < hi0:
            ur, ui = seed(4 * (k0 + 1), 4 * k1, 0)
            up = _ray(tr, ti, ur, ui, er, ei, hi0 - c, wp)
            re += up[0]
            im += up[1]
        if c > lo0:
            wr, wi = seed(4 * (1 - k0), -4 * k1, 0)
            down = _ray(tr, ti, wr, wi, er, ei, c - lo0, wp)
            re = down[0][::-1] + re
            im = down[1][::-1] + im
        p, q = lo0 & 1, n1 & 1
        for cls, sl in ((p, slice(0, None, 2)), (1 - p, slice(1, None, 2))):
            sums[cls][q][0] += sum(re[sl])
            sums[cls][q][1] += sum(im[sl])
        if moments:
            for j, row in enumerate((re, im)):
                m1 = sum(k * x for k, x in zip(ks, row))
                mom[0][j] += sum(k * k * x for k, x in zip(ks, row))
                mom[1][j] += 2 * k1 * m1
                mom[2][j] += k1 * k1 * sum(row)
    count = (hi0 - lo0 + 1) * (hi1 - lo1 + 1)
    steps = hi0 - lo0
    bound = 2 * count * (5 + 4 * steps + 4 * steps * steps) * 2.0 ** -wp
    return sums, (mom if moments else None), bound


def _to_mpc(z, wp):
    """Fixed-point pair (re, im) with wp fractional bits as an mpc,
    rounded once to the ambient precision."""
    return mp.mpc(mp.mpf((z[0], -wp)), mp.mpf((z[1], -wp)))


class _Sums(NamedTuple):
    """One kernel run, and the arithmetic of its precision: `add`
    combines class sums (exactly for the walk's integers, exactly rounded
    for the grid's floats), `round` turns a combined (re, im) pair into a
    value, rounded once, `ulp` = 2^(1-prec) bounds that rounding
    relative to the value, and `pi` is pi at the working precision."""
    sums: list
    mom: list
    bound: float
    add: object
    round: object
    ulp: float
    pi: object


def _run_kernel(tau, shift, a2, box, hiprec, moments=False):
    """The kernel of the precision over the box at 2^shift tau (genus 1
    padded to genus 2).  High precision must run under the working
    precision, as value_prec provides."""
    if hiprec:
        wp = mp.mp.prec + GUARD_BITS
        run = _walk(_raw_entries(tau, shift), a2, box, wp, moments)
        return _Sums(*run, sum, lambda z: _to_mpc(z, wp), 2.0 ** (1 - mp.mp.prec), mp.pi)
    T = tau.entries()
    ents = [T[0][0]] if tau.g == 1 else [T[0][0], T[0][1], T[1][1]]
    t = [z * 2.0 ** shift for z in ents] + [0j] * (3 - len(ents))
    return _Sums(*_grid(t, a2, box, moments), math.fsum, lambda z: complex(*z),
                 2 * _U, math.pi)


def _theta_value(k, z, tail):
    """ThetaValue of the combined pair z of kernel run k: the tail, the
    kernel's bound and the final rounding."""
    val = k.round(z)
    return ThetaValue(val, tail + (k.bound + k.ulp * float(abs(val))))


def _character_sum(sums, a2, mdbl, add):
    """theta[m'; m''] from the parity sums of its m' class, as an (re, im)
    pair: i^{a2.m''} sum_pq (-1)^{p m''_1 + q m''_2} S_pq, each component
    combined by `add`."""
    signed = [s if (p * mdbl[0] + q * mdbl[1]) % 2 == 0 else (-s[0], -s[1])
              for p, row in enumerate(sums) for q, s in enumerate(row)]
    re, im = add(s[0] for s in signed), add(s[1] for s in signed)
    for _ in range((a2[0] * mdbl[0] + a2[1] * mdbl[1]) % 4):
        re, im = -im, re
    return re, im


def _theta_class(mprime, mdbls, tau, eps, hiprec, dps):
    """theta[m'; m''] for each m'' in mdbls, all from one kernel run over
    the parity classes of m'."""
    g = tau.g
    pad = (0,) * (2 - g)
    a2 = tuple(int(x) % 2 for x in mprime) + pad
    lam = tau.lam_min
    R = _radius(lam, eps, g=g)
    tail = _tail(lam, R, g=g)
    box = ((-R, R), (-R, R) if g == 2 else (0, 0))
    bs = [tuple(int(x) for x in mdbl) + pad for mdbl in mdbls]
    with value_prec(hiprec, dps):
        k = _run_kernel(tau, 0, a2, box, hiprec)
        return [_theta_value(k, _character_sum(k.sums, a2, b, k.add), tail) for b in bs]


def theta_raw(mprime, mdbl, tau, eps=1e-12, hiprec=False, dps=None):
    """Theta constant for integer (possibly unreduced) characteristic
    vectors.  The m' part is reduced internally by an exact lattice shift;
    the m'' part is kept as given, so the classical shift sign
    theta_{m+2n} = (-1)^{m'.n''} theta_m comes out of the series itself."""
    return _theta_class(mprime, [mdbl], tau, eps, hiprec, dps)[0]


def theta_constant(m, tau, eps=1e-12, hiprec=False, dps=None):
    """First-order theta constant for the reduced characteristic with 4-bit
    index m; exactly zero (with zero error) for odd m."""
    if parity(m) == -1:
        return ThetaValue(mp.mpc(0) if hiprec else 0j, 0.0)
    return theta_raw(mprime_of(m), mdbl_of(m), tau, eps, hiprec, dps)


def theta_constant_g1(a_bit, b_bit, tau1, eps=1e-12, hiprec=False, dps=None):
    """Genus-1 theta constant theta_[a;b](tau1) for a scalar point."""
    pt = tau1 if isinstance(tau1, SiegelPoint) else SiegelPoint([[tau1]])
    if (a_bit * b_bit) % 2:
        return ThetaValue(mp.mpc(0) if hiprec else 0j, 0.0)
    return theta_raw((a_bit,), (b_bit,), pt, eps, hiprec, dps)


def _doubled(tau, dps=None):
    # mpmath rounds every operation, mpc construction included, to the
    # ambient precision, so the payload must be doubled under an explicit
    # working precision at least as high as the one it was built with.
    mp_ent = tau._mp
    if mp_ent is not None:
        with mp.workdps(dps or HIPREC_DPS):
            mp_ent = tuple(tuple(z + z for z in row) for row in mp_ent)
    return SiegelPoint(2 * tau.mat, mp_entries=mp_ent)


def theta_second_order(mprime, tau, eps=1e-12, hiprec=False, dps=None):
    """Second-order constant Theta_{m'}(tau) = theta_{[m';0]}(2 tau)."""
    return theta_raw(mprime, (0, 0), _doubled(tau, dps), eps, hiprec, dps)


def theta_second_vector(tau, eps=1e-12, hiprec=False, dps=None):
    """The four second-order constants in MPRIME_ORDER, from one kernel
    run: Theta_{m'}(tau) sums e^{pi i k^T (tau/2) k} over k = 2n + m', so
    the box k in [-2R, 2R+1]^2 at tau/2, split by k mod 2, holds exactly
    the terms of the four separate series."""
    lam = 2 * tau.lam_min  # least eigenvalue of Im 2 tau, exactly
    R = _radius(lam, eps)
    tail = _tail(lam, R)
    with value_prec(hiprec, dps):
        k = _run_kernel(tau, -1, (0, 0), ((-2 * R, 2 * R + 1),) * 2, hiprec)
        return tuple(_theta_value(k, k.sums[p][q], tail) for p, q in MPRIME_ORDER)


def theta_all_even(tau, eps=1e-12, hiprec=False, dps=None):
    """All ten even first-order constants, keyed by 4-bit index; the
    constants sharing m' come from one kernel run."""
    out = {}
    for mpv in MPRIME_ORDER:
        ms = [m for m in EVEN_CHARS if mprime_of(m) == mpv]
        out.update(zip(ms, _theta_class(mpv, [mdbl_of(m) for m in ms], tau, eps, hiprec, dps)))
    return {m: out[m] for m in EVEN_CHARS}


def theta_gradient(mprime, tau, eps=1e-12, hiprec=False, dps=None):
    """(d/dtau11, d/dtau12, d/dtau22) of Theta_{m'} at tau, the off-diagonal
    derivative counting the symmetric entry once.  Differentiating the
    2 tau series termwise gives weights 2 pi i v1^2, 4 pi i v1 v2,
    2 pi i v2^2 on the shifted lattice points v = n + m'/2; the kernel's
    moments carry the integer weights k1^2, 2 k1 k2, k2^2 of k = 2v, so
    the prefactor becomes pi i / 2."""
    lam2 = 2 * tau.lam_min
    R = _radius(lam2, eps, g=2, poly=2, scale=4 * math.pi)
    a2 = tuple(int(x) % 2 for x in mprime)
    with value_prec(hiprec, dps):
        k = _run_kernel(tau, 1, a2, ((-R, R), (-R, R)), hiprec, moments=True)
        half_pi_i = 1j * (k.pi / 2)
        return tuple(half_pi_i * k.round(z) for z in k.mom)


# --- exact transformation factors ---------------------------------------


def xi_numerator(m, gamma):
    """Integer num with xi_m(gamma) = num/8, from
    xi = -(1/8)(m'^T b^T d m' + m''^T a^T c m'' - 2 m'^T b^T c m'')
        + (1/4) diag(a b^T)^T (d m' - c m'').
    The sign of the diag term is pinned by theta_{[10;00]}(tau + E11)
    = e^{pi i/4} theta_{[10;00]}(tau) together with probe agreement
    across all even characteristics."""
    mp1, mp2 = mprime_of(m)
    md1, md2 = mdbl_of(m)
    a, b, c, d = gamma.a, gamma.b, gamma.c, gamma.d

    def quad(u1, u2, M, w1, w2):
        return (u1 * (M[0][0] * w1 + M[0][1] * w2) + u2 * (M[1][0] * w1 + M[1][1] * w2))

    btd = ((b[0][0] * d[0][0] + b[1][0] * d[1][0], b[0][0] * d[0][1] + b[1][0] * d[1][1]),
           (b[0][1] * d[0][0] + b[1][1] * d[1][0], b[0][1] * d[0][1] + b[1][1] * d[1][1]))
    atc = ((a[0][0] * c[0][0] + a[1][0] * c[1][0], a[0][0] * c[0][1] + a[1][0] * c[1][1]),
           (a[0][1] * c[0][0] + a[1][1] * c[1][0], a[0][1] * c[0][1] + a[1][1] * c[1][1]))
    btc = ((b[0][0] * c[0][0] + b[1][0] * c[1][0], b[0][0] * c[0][1] + b[1][0] * c[1][1]),
           (b[0][1] * c[0][0] + b[1][1] * c[1][0], b[0][1] * c[0][1] + b[1][1] * c[1][1]))
    q = (quad(mp1, mp2, btd, mp1, mp2) + quad(md1, md2, atc, md1, md2)
         - 2 * quad(mp1, mp2, btc, md1, md2))
    dab = (a[0][0] * b[0][0] + a[0][1] * b[0][1], a[1][0] * b[1][0] + a[1][1] * b[1][1])
    v = (d[0][0] * mp1 + d[0][1] * mp2 - c[0][0] * md1 - c[0][1] * md2,
         d[1][0] * mp1 + d[1][1] * mp2 - c[1][0] * md1 - c[1][1] * md2)
    return -q + 2 * (dab[0] * v[0] + dab[1] * v[1])


_SQ2 = math.sqrt(0.5)
_CHI8 = (1 + 0j, _SQ2 + 1j * _SQ2, 1j, -_SQ2 + 1j * _SQ2,
         -1 + 0j, -_SQ2 - 1j * _SQ2, -1j, _SQ2 - 1j * _SQ2)


def xi_chi(m, gamma):
    """(xi_m(gamma) as a Fraction mod 1, chi_m(gamma) = e^{2 pi i xi}).
    chi is always an eighth root of unity."""
    num = xi_numerator(m, gamma)
    return Fraction(num % 8, 8), _CHI8[num % 8]


def transform_unit(m, gamma):
    """(n, k) with theta_n(gamma tau) = kappa(gamma) e^{pi i k/4}
    det(c tau + d)^{1/2} theta_m(tau), n the mod-2 reduction of the image
    characteristic and k in Z/8 folding chi_m together with the sign of
    that reduction.  Everything here is exact integer arithmetic."""
    mpv, mdv = act_char_vectors(gamma, m)
    k = xi_numerator(m, gamma) % 8
    if reduction_sign(mpv, mdv) < 0:
        k = (k + 4) % 8
    n = char_index((mpv[0] % 2, mpv[1] % 2), (mdv[0] % 2, mdv[1] % 2))
    return n, k


def trace_btc(gamma):
    """Tr(b^T c) = entrywise contraction of the b and c blocks."""
    b, c = gamma.b, gamma.c
    return (b[0][0] * c[0][0] + b[0][1] * c[0][1]
            + b[1][0] * c[1][0] + b[1][1] * c[1][1])


def kappa4(gamma):
    """Exact kappa(gamma)^4 = e^{pi i Tr(b^T c)} = +-1."""
    return -1 if trace_btc(gamma) % 2 else 1


_DEFAULT_PROBE_TAU = None


def _default_probe_tau():
    global _DEFAULT_PROBE_TAU
    if _DEFAULT_PROBE_TAU is None:
        _DEFAULT_PROBE_TAU = SiegelPoint.scaled_identity(1j)
    return _DEFAULT_PROBE_TAU


def kappa_probes(gamma, tau0=None, eps=1e-12, min_abs=1e-3):
    """kappa measured from every even probe characteristic with
    |theta_m(tau0)| > min_abs, as a dict m -> kappa.  All probes of a given
    gamma must agree; the spread is a correctness check on chi."""
    tau0 = tau0 or _default_probe_tau()
    tau_g = act_tau(gamma, tau0)
    _, den = mobius(gamma, tau0.entries())
    sqrt_det = cmath.sqrt(m2_det(den))
    out = {}
    for m in EVEN_CHARS:
        th = theta_constant(m, tau0, eps).value
        if abs(th) <= min_abs:
            continue
        n, k = transform_unit(m, gamma)
        th_g = theta_constant(n, tau_g, eps).value
        out[m] = th_g / (_CHI8[k] * sqrt_det * th)
    if not out:
        raise RuntimeError("all probe thetas too small at tau0; pick another probe point")
    return out


def kappa_numeric(gamma, tau0=None, eps=1e-12):
    """Theta multiplier kappa(gamma) measured numerically against the
    principal branch of det(c tau0 + d)^{1/2}.  Unimodular, and
    kappa^4 = e^{pi i Tr(b^T c)}; only branch-insensitive powers of the
    result are meaningful."""
    probes = kappa_probes(gamma, tau0, eps)
    return next(iter(probes.values()))
