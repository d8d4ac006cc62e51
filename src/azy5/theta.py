"""Certified evaluation of theta constants with reduced characteristics.

Series convention (all exponentials are in units of pi*i, i.e. exp(w) here
means e^{pi i w}):

    theta_m(tau) = sum_{n in Z^2} e^{pi i [ (n+m'/2)^T tau (n+m'/2)
                                            + (n+m'/2)^T m'' ]},

the z = 0 value of the classical series; it vanishes identically for odd m.
Second-order constants are Theta_{m'}(tau) = theta_{[m';0]}(2 tau), indexed
by m' in {00, 01, 10, 11} (this order fixes all matrix and vector layouts).

Truncation is over the box of max-norm shells ||n||_inf <= R.  A term on
shell r has modulus e^{-pi (n+a)^T Y (n+a)} <= e^{-pi lam (r-1/2)^2} with
lam the least eigenvalue of Y = Im tau and a in [-1/2,1/2]^2, and shell r
holds 8r points, giving the certified tail majorant

    tail(R) <= 8 * sum_{r > R} r e^{-pi lam (r-1/2)^2},

evaluated numerically with a geometric remainder.  Derivative series carry
an extra polynomial majorant (r+1/2)^2 and prefactor 4 pi.  The reported
err of a value is this tail plus a rounding bound for the summation.

Every series runs through one kernel contract.  A kernel sums the terms
e^{pi i v^T T v}, v = n + a2/2, over a box of n, with T = 2^s tau for a
power of two that the series fixes and a2 in {0, 1}^2.  It returns the
four sums S_pq over the classes n = (p, q) mod 2, optionally the three
sums weighted by k0^2, 2 k0 k1 and k1^2 (k = (k0, k1) = 2v), and a
rounding bound per class; the sum of the four covers every signed
combination of the S_pq.  Characteristics that share m' differ only in
the factor e^{pi i m''.v} = i^{a2.m''} (-1)^{p m''_1 + q m''_2}, so one
kernel run serves every m'' (_character_sum): theta_all_even makes four
runs for its ten constants.  The second-order constants
Theta_{m'}(tau) = sum_n e^{pi i (2n+m')^T (tau/2) (2n+m')} are the
classes k = m' mod 2 of one run over k in [-2R, 2R+1]^2 at tau/2: the
same terms as four separate series, in one box, each charged the bound of
its own class.  The gradient is one run with the moments.  The precision
only chooses the kernel and how the combined sums are rounded once, to an
mpc or to a complex.

Double precision runs _grid: numpy terms over the whole box, each class
summed by math.fsum, so each S_pq is exactly rounded and the result does
not depend on summation order; _grid's docstring derives its bound.

High precision runs _walk, a row recurrence in Python integers.  With
k = (k0, k1) = 2v, each row fixes k1 and walks k0 outward, both ways,
from the row's largest term, at n0 = nint(-Y12 v1 / Y11 - a2_0/2)
clipped to the box.  A step costs two multiplications, t <- t u and
u <- u E with E = e^{2 pi i T11}, where t is the term and u the ratio
of neighbouring terms, u = e^{pi i ((k0 + 1) T11 + k1 T12)} (the downward
walk has its own ratio w = e^{pi i ((1 - k0) T11 - k1 T12)}).  Every
quantity of a walk has modulus at most 1, since it moves away from the
row's minimum of the real quadratic form, so the walk is fixed point
with the working precision plus GUARD_BITS fractional bits, and its
error is absolute.

The seeds t, u, w of every row and E come from three full-precision
exponentials per run, A, B, C = e^{pi i T11/4}, e^{pi i T12/4},
e^{pi i T22/4}, whose arguments are formed exactly from the binary
entries of T; everything else is a product.  E, F, G = A^8, B^8, C^8.
The start row, the one nearest k1 = 0, takes its seeds as powers:
t = A^{k0^2} B^{2 k0 k1} C^{k1^2}, u = A^{4(k0+1)} B^{4 k1},
w = A^{4(1-k0)} B^{-4 k1}.  From there each way d = +-1 is walked row by
row: one vertical step at the old centre, t <- t V with
V = e^{pi i (d k0 T12 + (d k1 + 1) T22)} the ratio of the terms at
k1 + 2d and k1, then V <- V G, u <- u F^d, w <- w F^-d; then one
horizontal step per unit the centre moves, k0 <- k0 + 2: t <- t u,
u <- u E, w <- w E^-1, V <- V F^d (and the mirror image for k0 - 2).
Ratios such as V, F^-1 and E^-1 can exceed 1 in modulus, so these seeds
are floating complexes (numeric.fc_*): a wp-bit mantissa pair with one
shared binary exponent, cut (floor) to wp bits after each operation.

Each floating seed carries a count of its error in units of 2^-wp
relative to its exact value, which adds up along products to first
order.  mpmath's floor-rounded exponential at wp bits counts 3 (under 2
per part, plus its internal roundings at wp + 10 bits); cutting a
mantissa pair to wp bits counts 3 (2 sqrt 2, relative to a modulus of at
least 2^(wp-1)); so a product adds 3 to the sum of its factors' counts,
an exponential counts at most 6, and an inverse adds 1 for its quotients, which
carry at least wp + 1 bits, plus 3 for the cut.  In fixed point, where
moduli are at most 1, a seed with count n is off by at most s = n + 1.5,
the 1.5 covering its truncation, and each product of _ray by at most
1.5 more.  So a term k steps from its row's centre is off by at most
s_t + k (s_u + 1.5) + (s_E + 1.5) k (k - 1)/2, with s_t, s_u and s_E
those of the row's t, of the larger of its u and w, and of E.  A row
charges each of its points twice that at k = hi0 - lo0, the most steps a
walk takes, the factor two covering second-order terms (_point_charge);
a class's bound is the sum of those charges over its points.  The
integer sums are exact, so the result does not depend on summation order
and is deterministic.

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
from functools import lru_cache
from typing import NamedTuple

import mpmath as mp
import numpy as np
from mpmath.libmp import from_man_exp, mpc_expjpi, mpf_shift

from .chars import (EVEN_CHARS, act_char_vectors, char_index, mdbl_of,
                    mprime_of, parity, reduction_sign)
from .numeric import (fc_cut, fc_fixed, fc_from_mpc, fc_inv, fc_mul, fc_pow,
                      fsum_complex, m2_det, mobius, value_prec)
from .siegel import TAU_I, SiegelPoint
from .symplectic import act_tau

MPRIME_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))


class ThetaValue(NamedTuple):
    """Value together with the analytic tail bound of the truncation used."""
    value: complex
    err: float


def _tail(lam, R, poly=0, scale=1.0):
    """Certified tail majorant for truncation radius R (see module docstring)."""
    if lam <= 0:
        raise ValueError("lambda_min must be positive")
    total = 0.0
    prev = math.inf
    r = R + 1
    while True:
        t = scale * 8.0 * r * (r + 0.5) ** poly * math.exp(-math.pi * lam * (r - 0.5) ** 2)
        total += t
        if t <= prev / 2 and (t <= total * 2.0 ** -60 or t < 1e-320):
            return total + t  # geometric remainder at ratio <= 1/2
        prev = t
        r += 1
        if r > R + 200000:
            raise RuntimeError("tail bound fails to certify; lambda_min too small")


def _radius(lam, eps, poly=0, scale=1.0):
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
    while _tail(lam, R, poly, scale) >= eps:
        R += 1
        if R > 4096:
            raise RuntimeError("truncation radius exceeds sanity cap")
    while R > 1 and _tail(lam, R - 1, poly, scale) < eps:
        R -= 1
    return R


def truncation_radius(tau, eps):
    """Smallest shell radius whose certified tail bound is below eps for a
    first-order theta constant at tau."""
    return _radius(tau.lam_min, eps)


# Unit roundoff of IEEE double.
_U = 2.0 ** -53


@lru_cache(maxsize=None)
def _parity_rows(lo, n):
    """2 x n matrix of 0/1 whose row p marks the indices i with lo + i = p
    mod 2: P0 W P1^T sums an array W over the parity classes of a box."""
    i = (lo + np.arange(n)) % 2
    return np.stack([i == 0, i == 1]).astype(float)


def _grid(t, a2, box, moments=False):
    """The numpy kernel behind every double-precision series, with the
    contract of _walk: t = (T11, T12, T22) as Python complex, a2 and box
    as there.  sums[p][q] and the moment sums are (re, im) pairs, each
    component an exactly rounded math.fsum over its terms, and
    bounds[p][q] is the rounding bound of S_pq.

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
    weight = np.abs(terms) * (1 + np.pi * form_abs)
    wsum = _parity_rows(lo0, hi0 - lo0 + 1) @ weight @ _parity_rows(lo1, hi1 - lo1 + 1).T
    bounds = [[8 * _U * w + 2 * _U * abs(complex(*s)) for w, s in zip(*rows)]
              for rows in zip(wsum.tolist(), sums)]
    mom = [pair(terms * w) for w in (k0 * k0, 2 * k0 * k1, k1 * k1)] if moments else None
    return sums, mom, bounds


# Fractional bits the fixed-point walk carries beyond the working precision.
GUARD_BITS = 32


def _raw_entries(tau, shift=0):
    """(tau11, tau12, tau22) of 2^shift tau as raw mpmath (re, im) pairs,
    scaled exactly."""
    T = tau.entries_mp()
    return tuple(tuple(mpf_shift(x, shift) for x in z._mpc_)
                 for z in (T[0][0], T[0][1], T[1][1]))


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


# Error count of mpmath's floor-rounded exponential at wp bits, in units
# of 2^-wp relative to the exact value (module docstring).
_EXP_ERR = 3


def _point_charge(term, ratio, mult, steps):
    """Rounding bound, in units of 2^-wp, of each term of a row walked at
    most `steps` steps from its centre, whose seeds carry the error counts
    `term` (the centre term), `ratio` (the larger of u and w) and `mult`
    (E): twice s_t + k (s_u + 1.5) + (s_E + 1.5) k (k - 1)/2 at k = steps,
    s = count + 1.5 (module docstring)."""
    return 2 * term + 3 + 2 * steps * (ratio + 3) + (mult + 3) * steps * (steps - 1)


def _walk(t, a2, box, wp, moments=False):
    """The row-recurrence kernel behind every high-precision series.

    Sums e^{pi i v^T T v} over v = n + a2/2, n in the box
    ((lo0, hi0), (lo1, hi1)), T given by _raw_entries, a2 in {0, 1}^2.
    Returns (sums, mom, bounds): sums[p][q] is the (re, im) fixed-point
    integer sum, wp fractional bits, over n = (p, q) mod 2; with moments,
    mom is the three sums weighted by k0^2, 2 k0 k1 and k1^2,
    k = (k0, k1) = 2v (else None); bounds[p][q] is the rounding bound
    of sums[p][q].

    Each row k1 is walked from its centre k0 by _ray, with the seeds
    t, u, w and E (module docstring), all floating complexes derived
    from the three exponentials A, B, C: the start row's by powers, each
    later row's from the row before it.  Each seed counts its error, and
    a row charges each of its points _point_charge of its seeds' counts.
    """
    (lo0, hi0), (lo1, hi1) = box
    parts = [x for z in t for x in z]
    e = min((x[2] for x in parts if x[1]), default=0)
    r00, i00, r01, i01, r11, i11 = [
        (-x[1] if x[0] else x[1]) << (x[2] - e) if x[1] else 0 for x in parts]

    def exp4(re, im):
        # e^{pi i T/4} for one entry T: exact argument, exponential at wp
        # bits, its two parts aligned to one binary exponent
        z = mpc_expjpi((from_man_exp(re, e - 2), from_man_exp(im, e - 2)), wp)
        return fc_cut(*fc_from_mpc(z, _EXP_ERR), wp)

    def mul(*zs):
        out = zs[0]
        for z in zs[1:]:
            out = fc_mul(out, z, wp)
        return out

    A, B, C = exp4(r00, i00), exp4(r01, i01), exp4(r11, i11)
    E, F, G = (fc_pow(z, 8, wp) for z in (A, B, C))
    Einv, Finv = fc_inv(E, wp), fc_inv(F, wp)
    er, ei = fc_fixed(E, wp)
    slope = -i01 / i00 if i00 else 0.0
    steps = hi0 - lo0
    sums = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    mom = [[0, 0], [0, 0], [0, 0]]
    charge = [0, 0]
    ks = range(2 * lo0 + a2[0], 2 * hi0 + a2[0] + 1, 2)

    def centre(n1):
        # the row's largest term sits at the nearest lattice point to the
        # minimum of Y11 v0^2 + 2 Y12 v0 v1 in v0
        return min(hi0, max(lo0, round((slope * (2 * n1 + a2[1]) - a2[0]) / 2)))

    def row(n1, c, x, u, w):
        k1 = 2 * n1 + a2[1]
        xr, xi = fc_fixed(x, wp)
        re, im = [xr], [xi]
        ratio = 0
        if c < hi0:
            up = _ray(xr, xi, *fc_fixed(u, wp), er, ei, hi0 - c, wp)
            re += up[0]
            im += up[1]
            ratio = u[3]
        if c > lo0:
            down = _ray(xr, xi, *fc_fixed(w, wp), er, ei, c - lo0, wp)
            re = down[0][::-1] + re
            im = down[1][::-1] + im
            ratio = max(ratio, w[3])
        p, q = lo0 & 1, n1 & 1
        charge[q] += _point_charge(x[3], ratio, E[3], steps)
        for cls, sl in ((p, slice(0, None, 2)), (1 - p, slice(1, None, 2))):
            sums[cls][q][0] += sum(re[sl])
            sums[cls][q][1] += sum(im[sl])
        if moments:
            for j, vals in enumerate((re, im)):
                m1 = sum(k * v for k, v in zip(ks, vals))
                mom[0][j] += sum(k * k * v for k, v in zip(ks, vals))
                mom[1][j] += 2 * k1 * m1
                mom[2][j] += k1 * k1 * sum(vals)

    # the start row, nearest k1 = 0, takes its seeds from powers
    n_start = min(range(lo1, hi1 + 1), key=lambda n: abs(2 * n + a2[1]))
    c_start = centre(n_start)
    k0, k1 = 2 * c_start + a2[0], 2 * n_start + a2[1]
    seeds = (mul(fc_pow(A, k0 * k0, wp), fc_pow(B, 2 * k0 * k1, wp), fc_pow(C, k1 * k1, wp)),
             mul(fc_pow(A, 4 * (k0 + 1), wp), fc_pow(B, 4 * k1, wp)),
             mul(fc_pow(A, 4 * (1 - k0), wp), fc_pow(B, -4 * k1, wp)))
    row(n_start, c_start, *seeds)
    # each way d = +-1 out: one vertical step at the old centre, by the
    # ratio V of the terms at k1 + 2d and k1, then |new - old| horizontal
    # steps to the new centre
    for d, end, Fd, Fback in ((1, hi1, F, Finv), (-1, lo1, Finv, F)):
        x, u, w = seeds
        c = c_start
        V = mul(fc_pow(B, 4 * d * k0, wp), fc_pow(C, 4 * (d * k1 + 1), wp))
        for n1 in range(n_start + d, end + d, d):
            x, V, u, w = mul(x, V), mul(V, G), mul(u, Fd), mul(w, Fback)
            new = centre(n1)
            while c < new:
                x, u, w, V, c = mul(x, u), mul(u, E), mul(w, Einv), mul(V, Fd), c + 1
            while c > new:
                x, w, u, V, c = mul(x, w), mul(w, E), mul(u, Einv), mul(V, Fback), c - 1
            row(n1, c, x, u, w)
    bounds = [[charge[q] * len(range(lo0 + (p - lo0) % 2, hi0 + 1, 2)) * 2.0 ** -wp
               for q in (0, 1)] for p in (0, 1)]
    return sums, (mom if moments else None), bounds


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
    bounds: list
    add: object
    round: object
    ulp: float
    pi: object


def _run_kernel(tau, shift, a2, box, hiprec, moments=False):
    """The kernel of the precision over the box at 2^shift tau.  High
    precision must run under the working precision, as value_prec
    provides."""
    if hiprec:
        wp = mp.mp.prec + GUARD_BITS
        run = _walk(_raw_entries(tau, shift), a2, box, wp, moments)
        return _Sums(*run, sum, lambda z: _to_mpc(z, wp), 2.0 ** (1 - mp.mp.prec), mp.pi)
    T = tau.entries()
    t = [z * 2.0 ** shift for z in (T[0][0], T[0][1], T[1][1])]
    return _Sums(*_grid(t, a2, box, moments), math.fsum, lambda z: complex(*z),
                 2 * _U, math.pi)


def _theta_value(k, z, tail, bound):
    """ThetaValue of the combined pair z of kernel run k: the tail, the
    kernel's rounding bound of the classes combined in z and the final
    rounding."""
    val = k.round(z)
    return ThetaValue(val, tail + (bound + k.ulp * float(abs(val))))


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


def _truncation(lam, eps):
    """(R, tail(R)) of a series whose Im T has least eigenvalue lam."""
    R = _radius(lam, eps)
    return R, _tail(lam, R)


def _theta_class(mprime, mdbls, tau, R, tail, hiprec):
    """theta[m'; m''] for each m'' in mdbls, all from one kernel run over
    the parity classes of m' in the box of radius R."""
    a2 = tuple(int(x) % 2 for x in mprime)
    with value_prec(hiprec):
        k = _run_kernel(tau, 0, a2, ((-R, R), (-R, R)), hiprec)
        bound = sum(x for row in k.bounds for x in row)
        return [_theta_value(k, _character_sum(k.sums, a2, b, k.add), tail, bound)
                for b in mdbls]


def theta_raw(mprime, mdbl, tau, eps=1e-12, hiprec=False):
    """Theta constant for integer (possibly unreduced) characteristic
    vectors.  The m' part is reduced internally by an exact lattice shift;
    the m'' part is kept as given, so the classical shift sign
    theta_{m+2n} = (-1)^{m'.n''} theta_m comes out of the series itself."""
    return _theta_class(mprime, [mdbl], tau, *_truncation(tau.lam_min, eps), hiprec)[0]


def theta_constant(m, tau, eps=1e-12, hiprec=False):
    """First-order theta constant for the reduced characteristic with 4-bit
    index m; exactly zero (with zero error) for odd m."""
    if parity(m) == -1:
        return ThetaValue(mp.mpc(0) if hiprec else 0j, 0.0)
    return theta_raw(mprime_of(m), mdbl_of(m), tau, eps, hiprec)


def _doubled(tau):
    # mpmath rounds every operation, mpc construction included, to the
    # ambient precision, so the payload is doubled at the working
    # precision it was built with.
    mp_ent = tau._mp
    if mp_ent is not None:
        with value_prec(True):
            mp_ent = tuple(tuple(z + z for z in row) for row in mp_ent)
    return SiegelPoint(2 * tau.mat, mp_entries=mp_ent)


def theta_second_order(mprime, tau, eps=1e-12, hiprec=False):
    """Second-order constant Theta_{m'}(tau) = theta_{[m';0]}(2 tau)."""
    return theta_raw(mprime, (0, 0), _doubled(tau), eps, hiprec)


def theta_second_vector(tau, eps=1e-12, hiprec=False):
    """The four second-order constants in MPRIME_ORDER, from one kernel
    run: Theta_{m'}(tau) sums e^{pi i k^T (tau/2) k} over k = 2n + m', so
    the box k in [-2R, 2R+1]^2 at tau/2, split by k mod 2, holds exactly
    the terms of the four separate series."""
    # 2 lam_min is the least eigenvalue of Im 2 tau, exactly
    R, tail = _truncation(2 * tau.lam_min, eps)
    with value_prec(hiprec):
        k = _run_kernel(tau, -1, (0, 0), ((-2 * R, 2 * R + 1),) * 2, hiprec)
        return tuple(_theta_value(k, k.sums[p][q], tail, k.bounds[p][q])
                     for p, q in MPRIME_ORDER)


def theta_all_even(tau, eps=1e-12, hiprec=False):
    """All ten even first-order constants, keyed by 4-bit index; the
    constants sharing m' come from one kernel run, all four runs over the
    same box."""
    R, tail = _truncation(tau.lam_min, eps)
    out = {}
    for mpv in MPRIME_ORDER:
        ms = [m for m in EVEN_CHARS if mprime_of(m) == mpv]
        out.update(zip(ms, _theta_class(mpv, [mdbl_of(m) for m in ms], tau, R, tail, hiprec)))
    return {m: out[m] for m in EVEN_CHARS}


def theta_gradient(mprime, tau, eps=1e-12, hiprec=False):
    """(d/dtau11, d/dtau12, d/dtau22) of Theta_{m'} at tau, the off-diagonal
    derivative counting the symmetric entry once.  Differentiating the
    2 tau series termwise gives weights 2 pi i v1^2, 4 pi i v1 v2,
    2 pi i v2^2 on the shifted lattice points v = n + m'/2; the kernel's
    moments carry the integer weights k1^2, 2 k1 k2, k2^2 of k = 2v, so
    the prefactor becomes pi i / 2."""
    lam2 = 2 * tau.lam_min
    R = _radius(lam2, eps, poly=2, scale=4 * math.pi)
    a2 = tuple(int(x) % 2 for x in mprime)
    with value_prec(hiprec):
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

    def mul(M, w1, w2):
        return (M[0][0] * w1 + M[0][1] * w2, M[1][0] * w1 + M[1][1] * w2)

    # m'^T b^T d m' = (b m').(d m'), and likewise for the other two forms
    bm, dm, am, cm = mul(b, mp1, mp2), mul(d, mp1, mp2), mul(a, md1, md2), mul(c, md1, md2)
    q = (bm[0] * dm[0] + bm[1] * dm[1] + am[0] * cm[0] + am[1] * cm[1]
         - 2 * (bm[0] * cm[0] + bm[1] * cm[1]))
    dab = (a[0][0] * b[0][0] + a[0][1] * b[0][1], a[1][0] * b[1][0] + a[1][1] * b[1][1])
    return -q + 2 * (dab[0] * (dm[0] - cm[0]) + dab[1] * (dm[1] - cm[1]))


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


_PROBE_MIN_ABS = 1e-3


@lru_cache(maxsize=None)
def _probe_thetas(eps):
    """The even constants at i*I, once per eps: one shared dict, read only."""
    return theta_all_even(TAU_I, eps)


def kappa_probes(gamma, tau0=None, eps=1e-12):
    """kappa measured from every even probe characteristic with
    |theta_m(tau0)| > _PROBE_MIN_ABS, as a dict m -> kappa.  All probes of
    a given gamma must agree; the spread is a correctness check on chi.
    One theta_all_even at gamma tau0, one at tau0 (once per eps at i*I)."""
    th0 = _probe_thetas(eps) if tau0 is None else theta_all_even(tau0, eps)
    tau0 = tau0 or TAU_I
    _, den = mobius(gamma, tau0.entries())
    sqrt_det = cmath.sqrt(m2_det(den))
    probes = [m for m in EVEN_CHARS if abs(th0[m].value) > _PROBE_MIN_ABS]
    if not probes:
        raise RuntimeError("all probe thetas too small at tau0; pick another probe point")
    th_g = theta_all_even(act_tau(gamma, tau0), eps)
    out = {}
    for m in probes:
        n, k = transform_unit(m, gamma)
        out[m] = th_g[n].value / (_CHI8[k] * sqrt_det * th0[m].value)
    return out


def kappa_numeric(gamma, tau0=None):
    """Theta multiplier kappa(gamma) measured numerically against the
    principal branch of det(c tau0 + d)^{1/2}.  Unimodular, and
    kappa^4 = e^{pi i Tr(b^T c)}; only branch-insensitive powers of the
    result are meaningful."""
    return next(iter(kappa_probes(gamma, tau0).values()))
