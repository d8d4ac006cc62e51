"""Certified evaluation of theta constants with reduced characteristics.

Series convention (all exponentials are in units of pi*i, i.e. exp(w) here
means e^{pi i w}):

    theta_m(tau) = sum_{n in Z^2} e^{pi i [ (n+m'/2)^T tau (n+m'/2)
                                            + (n+m'/2)^T m'' ]},

the z = 0 value of the classical series; it vanishes identically for odd m.
Second-order constants are Theta_{m'}(tau) = theta_{[m';0]}(2 tau), indexed
by m' in {00, 01, 10, 11} (this order fixes all matrix and vector layouts).

One kernel contract serves every series.  With k = 2n + m', the term of
theta[m'; m''] is e^{pi i k^T (tau/4) k} i^{k.m''}, and that of Theta_{m'}
is e^{pi i k^T (tau/2) k}.  A kernel run sums e^{pi i k^T T k} at
T = 2^s tau over the ellipse

    E(rho) = {k : q(k) <= rho^2},   q(k) = pi k^T Im(T) k,

and returns the 16 class sums S_r, r = k mod 4, a rounding bound per
class, and the bound P(rho) below; with moments, also the three sums
weighted by k0^2, 2 k0 k1 and k1^2, split by class.  Since i^{k.m''}
depends on k mod 4 only, and exactly for any integer m'', theta[m'; m'']
= sum over r = m' mod 2 of i^{r.m''} S_r, charged the bounds of its four
classes and P(rho) once: theta_all_even is one run at tau/4 for its ten
constants, theta_second_vector one run at tau/2 for its four, and the
four gradients one run at tau/2 with moments.  The reported err of a
value is P(rho), its classes' rounding bounds and the final rounding.
The precision only chooses the kernel and how the combined sums are
rounded once, to an mpc or to a complex.

The ellipse.  Each constant sums a translate k = m' + 2Z^2; under
x = sqrt(pi) Im(T)^{1/2} k, with q(k) = |x|^2, its points lie at least
s = 2 sqrt(pi lam) apart, lam the least eigenvalue of Im T, so disks of
radius s/2 about them are disjoint and at most N(r) <= (2r/s + 1)^2 lie
within |x| <= r.  Summing by parts (the counting argument of Deconinck
et al., "Computing Riemann theta functions", Math. Comp. 73 (2004), in
closed form for g = 2), the terms of one translate outside E are at most

    sum_{|x| > rho} e^{-|x|^2} <= int_rho^inf 2r e^{-r^2} N(r) dr = P(rho),
    P(rho) = I_1 + (4/s) I_2 + (4/s^2) I_3,

with I_j = int_rho^inf 2 r^j e^{-r^2} dr: I_0 = sqrt(pi) erfc(rho),
I_1 = e^{-rho^2} and I_j = rho^(j-1) e^{-rho^2} + (j-1)/2 I_(j-2).
Each run takes the least rho with P(rho) <= min(eps, 2^-b e^{-q*}), where
b is the kernel's own resolution, 53 bits in _grid and the fixed-point
wp bits in _walk, and q* = max(q(1, 0), q(0, 1), min(q(1, 1), q(1, -1)))
bounds the least exponent of the weakest translate, so the cut sits b
bits below the largest term of every constant and the truncation part
of each err is at most eps (_ellipse).  At the default eps the
resolution sets rho.  A point is kept when its computed k^T Im(T) k is
at most rho^2/pi widened by that form's rounding, so every point of E
is kept; E lies in the square |k_i| <= K_E,
K_E = floor(sqrt(keep max(Y11, Y22)/det Y)), which a run too close to
the boundary, K_E > 8192, refuses before any work.

A moment run sums E(rho) with rho from eps alone, since the gradients
carry no err of their own.  Its weights are at most
|k|^2 <= q(k)/(pi lam) in modulus, and f(r) = r^2 e^{-r^2} falls for
r >= 1, so for rho >= 1 the same count, summed by parts against
-f'(r) <= 2r^3 e^{-r^2}, bounds the terms of each gradient entry
outside E, with the factor |pi i/2| of the derivative, by

    W(rho) = (1/(2 lam)) (I_3 + (4/s) I_4 + (4/s^2) I_5) <= eps.

Double precision runs _grid: numpy terms over the points of E with
k1 > 0 or k1 = 0 <= k0, since the term at -k is the term at k, and one
exactly rounded math.fsum per component and group {r, -r} of classes,
S_r = S_{-r}; _grid's docstring says how and derives its bound.

High precision runs _walk, a row recurrence in Python integers.  The
term at -k equals the term at k, so the walk visits only the rows
k1 >= 0: row k1 = 0 is counted once, and each term of a row k1 > 0 is
also credited to the class of -k and charged in the bound of both
classes.  Each row k1 = 0, 1, ... up to E's last row is walked over its
chord of E (_chords), from its largest term, at k0 = nint(-Y12 k1 / Y11)
clipped to the chord, by unit steps out to the chord's ends.  A step
costs two multiplications, t <- t u and u <- u E with E = e^{2 pi i T11},
where t is the term and u the ratio of neighbouring terms,
u = e^{pi i ((2 k0 + 1) T11 + 2 k1 T12)} (the downward walk has its own
ratio w = e^{pi i ((1 - 2 k0) T11 - 2 k1 T12)}).
Every quantity of a walk has modulus at most 1, since it moves away from
the row's minimum of the real quadratic form, so the walk is fixed point
with the working precision plus GUARD_BITS fractional bits, and its
error is absolute.

The seeds t, u, w of every row and E come from three full-precision
exponentials per run, A, B, C = e^{pi i T11}, e^{pi i T12}, e^{pi i T22};
everything else is a product.  E, F, G = A^2, B^2, C^2.  Row 0 starts at
k0 = 0 with t = 1, u = w = A and V = C, the ratio of the terms at
(k0, k1 + 1) and (k0, k1), V = e^{pi i (2 k0 T12 + (2 k1 + 1) T22)}.
Each later row takes one vertical step at the old centre, t <- t V, then
V <- V G, u <- u F, w <- w F^-1; then one horizontal step per unit the
centre moves, k0 <- k0 + 1: t <- t u, u <- u E, w <- w E^-1, V <- V F
(and the mirror image for k0 - 1); a row whose chord holds no point
keeps the old centre.  Ratios such as V, F^-1 and E^-1 can
exceed 1 in modulus, so these seeds are floating complexes (numeric.fc_*):
a wp-bit mantissa pair with one shared binary exponent, cut (floor) to wp
bits after each operation.

Each floating seed carries a count of its error in units of 2^-wp
relative to its exact value, which adds up along products to first
order.  mpmath's floor-rounded exponential at wp bits counts 3 (under 2
per part, plus its internal roundings at wp + 10 bits); cutting a
mantissa pair to wp bits counts 3 (2 sqrt 2, relative to a modulus of at
least 2^(wp-1)); so a product adds 3 to the sum of its factors' counts,
and an inverse adds 1 for its quotients, which carry at least wp + 1
bits, plus 3 for the cut.  In fixed point, where moduli are at most 1, a
seed with count n is off by at most s = n + 1.5, the 1.5 covering its
truncation, and each product of _ray by at most 1.5 more.  So a term j
steps from its row's centre is off by at most
s_t + j (s_u + 1.5) + (s_E + 1.5) j (j - 1)/2, with s_t, s_u and s_E
those of the row's t, of the ratio its way walks by (u or w), and of E.
Each point is charged twice that at its own j, the factor two covering
second-order terms (_point_charge); a row sums those charges over the
points of each class in closed form (_row_steps), and a class's bound
is the sum over the rows.  The integer sums are exact, so the result
does not depend on summation order and is deterministic.

Either way the combined sum is rounded once to the working precision
(53 bits in double), which adds 2^(1-prec) |value| to the bound.

The transformation factors under gamma in Sp(4,Z) are

    theta_{gamma.m}(gamma.tau) = kappa(gamma) chi_m(gamma)
                                 det(c tau + d)^{1/2} theta_m(tau),

where chi_m(gamma) = e^{2 pi i xi_m(gamma)} is an eighth root of unity
computed exactly from integer data (chars.char_action), and kappa(gamma)
is independent of m with kappa^4 = e^{pi i Tr(b^T c)}.  kappa is never
produced by a closed formula here: kappa_numeric measures it against the
principal branch of det(c tau0 + d)^{1/2} at a probe point, and every
downstream identity is checked at fourth-power or modulus level where
the branch cancels.
"""

from __future__ import annotations

import cmath
import itertools
import math
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

from .chars import EVEN_CHARS, char_action, mdbl_of, mprime_of, parity
from .numeric import (fc_cut, fc_fixed, fc_from_mpc, fc_inv, fc_mul, fc_to_mpc,
                      sym2_eig_bounds, value_prec)
from .siegel import TAU_I
from .symplectic import transform

MPRIME_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))


class ThetaValue(NamedTuple):
    """Value together with its certified error bound, truncation and
    rounding."""
    value: complex
    err: float


def _check_eps(eps):
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")


def _tail(lam, R):
    """8 sum_{r > R} r e^{-pi lam (r - 1/2)^2}, with a geometric remainder
    (truncation_radius)."""
    total, prev = 0.0, math.inf
    for r in range(R + 1, R + 200001):
        t = 8.0 * r * math.exp(-math.pi * lam * (r - 0.5) ** 2)
        total += t
        if t <= prev / 2 and (t <= total * 2.0 ** -60 or t < 1e-320):
            return total + t  # geometric remainder at ratio <= 1/2
        prev = t
    raise RuntimeError("tail bound fails to certify; lambda_min too small")


def truncation_radius(tau, eps):
    """The least R >= 1 for which the box ||n||_inf <= R leaves out terms
    of a first-order theta constant at tau of total modulus below eps.  A
    term on shell r = ||n||_inf has modulus e^{-pi (n+a)^T Y (n+a)}
    <= e^{-pi lam (r-1/2)^2}, lam = tau.lam_min and a in [-1/2,1/2]^2, and
    shell r holds 8r points, so _tail(lam, R) bounds the terms beyond R.
    The kernels do not use it; it sizes direct reference sums."""
    _check_eps(eps)
    for R in range(1, 4097):
        if _tail(tau.lam_min, R) < eps:
            return R
    raise RuntimeError("truncation radius exceeds sanity cap")


# Unit roundoff of IEEE double, log 2 and sqrt(pi).
_U = 2.0 ** -53
_LN2 = math.log(2)
_SQRT_PI = math.sqrt(math.pi)

# The largest half-width of E's bounding square: the int16 entries of
# _class_points hold it, and _chords walks at most that many rows.
_MAX_EXTENT = 8192
_SINGULAR = ("the ellipse exceeds its cap; Im(tau) is too close to singular "
             "for direct summation")


def _ellipse(y, b, eps, moments=False):
    """(rho2, keep, cut, extent) of the ellipse E = {k : pi k^T Y k <= rho2}
    of a kernel of b bits at Y = Im T = (Y11, Y12, Y22) (module
    docstring): rho2 = rho^2 for the least rho whose bound on the
    terms outside E, cut (P(rho), or W(rho) with moments), meets the
    target, found by three fixed-point steps and steps past them; keep,
    the bound on the computed k^T Y k up to which a kernel keeps a point,
    rho2 / pi widened by the rounding of the form, so that every point
    of E is kept; and extent, the half-width of the square that holds E.
    Raises before any kernel work when E is too large to sum."""
    y11, y12, y22 = y
    lam = sym2_eig_bounds(((y11, y12), (y12, y22)))[0]
    if not lam > 128 * _U * (y11 + y22):
        raise RuntimeError(_SINGULAR)
    # the computed k^T Y k is within 5 u (Y11 + Y22) |k|^2 of its value,
    # which is at least lam |k|^2; the slack covers that, the rounding of
    # Y's entries and of lam, and the chords of _chords
    slack = 2.0 ** -30 + 32 * _U * (y11 + y22) / lam
    lam *= 1 - slack
    c1 = 2 / math.sqrt(math.pi * lam)  # 4/s
    c2 = c1 * c1 / 4  # 4/s^2
    if moments:
        log_target, scale = math.log(eps), 1 / (2 * lam)
    else:
        log_target = min(math.log(eps),
                         -b * _LN2 - math.pi * max(y11, y22, y11 + y22 - 2 * abs(y12)))
        scale = 1.0

    def log_factor(x):
        # log of P(rho) e^x, or W(rho) e^x, at rho^2 = x, from e^x I_j
        # (module docstring); e^x erfc(rho) <= 1/(rho sqrt pi)
        r = math.sqrt(x)
        i0 = _SQRT_PI * math.erfc(r) * math.exp(x) if x < 700 else 1 / r
        i1, i2, i3 = 1.0, r + i0 / 2, x + 1
        if moments:
            i1, i2, i3 = i3, r * (x + 1.5) + 0.75 * i0, x * (x + 2) + 2
        return math.log(scale * (i1 + c1 * i2 + c2 * i3))

    x = max(1.0, -log_target)
    for _ in range(3):
        prev, x = x, max(1.0, log_factor(x) - log_target)
    # the map contracts by about 1/x (2/x with moments), so where that
    # is below 1/2 one more step of the last size passes the root
    step = max(x - prev, 2.0 ** -40 * x)
    while True:
        x += step
        log_p = log_factor(x) - x
        if log_p <= log_target:
            break
    keep = x / math.pi * (1 + slack)
    extent = math.floor(math.sqrt(keep * max(y11, y22) / (y11 * y22 - y12 * y12)))
    if extent > _MAX_EXTENT:
        raise RuntimeError(_SINGULAR)
    return x, keep, math.exp(log_p), extent


# The ten groups {r, -r} of the classes c = 4 r0 + r1, r = k mod 4, each
# by its least class, the four with r = -r first: class c is in _GROUP[c].
_GROUP = [(0, 2, 8, 10, 1, 4, 5, 6, 7, 9).index(min(c, 4 * (-(c // 4) % 4) + -c % 4))
          for c in range(16)]


@lru_cache(maxsize=64)
def _class_points(K):
    """(k0, k1, grp): the half square, the points of [-K, K]^2 with
    k1 > 0 or k1 = 0 <= k0, sorted by the group of their class
    (_GROUP), the origin first.  Cached per size, at most 64 sizes, as
    int16 (K <= _MAX_EXTENT, _ellipse's cap) and int8: 5 bytes a point."""
    import numpy as np
    k0, k1 = (x.ravel() for x in np.meshgrid(np.arange(-K, K + 1), np.arange(K + 1)))
    k0, k1 = k0[(k1 > 0) | (k0 >= 0)], k1[(k1 > 0) | (k0 >= 0)]
    grp = np.array(_GROUP)[4 * (k0 % 4) + k1 % 4]
    perm = np.argsort(grp, kind="stable")
    return k0[perm].astype(np.int16), k1[perm].astype(np.int16), grp[perm].astype(np.int8)


def _grid(t, eps, moments=False):
    """The numpy kernel behind every double-precision series, with the
    contract of _walk: t = (T11, T12, T22) as Python complex, b = 53.
    The term and the moment weights at -k are those at k, formed from
    the same k_i k_j, so S_r = S_{-r}: each group {r, -r} is one exactly
    rounded math.fsum per component over the points of the half square
    (_class_points) in E, tested before any exponential, a term of a
    self-mirror group doubled, exactly, for k and -k, the origin not.
    sums[r0][r1] and the moment sums are those (re, im) pairs, bounds the
    rounding bound of each S_r, and cut P(rho), or W(rho) with moments.

    The lattice values k and k_i k_j are exact, so forming q = k^T T k
    costs one rounding per monomial and one per addition: at most 3 u Q,
    u the unit roundoff and Q = |T11| k0^2 + 2 |T12| |k0 k1| + |T22| k1^2
    the sum of the moduli of its monomials.  The factor pi i, with pi
    rounded, adds 2 u |q| <= 2 u Q, and the complex exponential at most
    5 u (exp, cos and sin within one ulp each, and one product).  Each
    term is therefore off by at most 8 u |t| (1 + pi Q), the slack
    covering second-order terms; a doubled term by 8 u |2t| (1 + pi Q),
    the charges of k and -k, which share Q and the computed term.  Rounding
    a class sum adds u |S_r| per component, counted as 2 u |S_r|."""
    import numpy as np
    t11, t12, t22 = t
    _, keep, cut, extent = _ellipse((t11.imag, t12.imag, t22.imag), 53, eps, moments)
    k0, k1, grp = _class_points(extent)
    k0, k1 = k0.astype(float), k1.astype(float)
    aa, ab, bb = k0 * k0, k0 * k1, k1 * k1
    inside = t11.imag * aa + (2 * t12.imag) * ab + t22.imag * bb <= keep
    aa, ab, bb, grp = aa[inside], ab[inside], bb[inside], grp[inside]
    terms = np.exp(1j * np.pi * (t11 * aa + (2 * t12) * ab + t22 * bb))
    ends = np.cumsum(np.bincount(grp, minlength=10)).tolist()
    terms[1:ends[3]] *= 2  # the self-mirror groups after the origin
    form_abs = abs(t11) * aa + (2 * abs(t12)) * np.abs(ab) + abs(t22) * bb
    spans = list(zip([0] + ends, ends))

    def by_class(x):
        # the exactly rounded class sums of x, as a 4 x 4 list of pairs
        re, im = x.real.tolist(), x.imag.tolist()
        z = [(math.fsum(re[i:j]), math.fsum(im[i:j])) for i, j in spans]
        return [[z[g] for g in _GROUP[4 * r0:4 * r0 + 4]] for r0 in range(4)]

    sums = by_class(terms)
    weight = np.bincount(grp, np.abs(terms) * (1 + np.pi * form_abs), minlength=10).tolist()
    bounds = [[8 * _U * weight[_GROUP[4 * r0 + r1]] + 2 * _U * abs(complex(*sums[r0][r1]))
               for r1 in range(4)] for r0 in range(4)]
    if not moments:
        return sums, None, bounds, cut
    mom = [by_class(terms * w) for w in (aa, 2 * ab, bb)]
    return sums, [[[m[r0][r1] for m in mom] for r1 in range(4)] for r0 in range(4)], bounds, cut


# Fractional bits the fixed-point walk carries beyond the working precision.
GUARD_BITS = 32


def _raw_entries(tau, shift):
    """(tau11, tau12, tau22) of 2^shift tau as raw mpmath (re, im) pairs, exactly."""
    import mpmath as mp
    T = tau.entries_mp()
    return tuple(tuple(mp.libmp.mpf_shift(x, shift) for x in z._mpc_) for z in (*T[0], T[1][1]))


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


def _point_charge(term, ratio, mult):
    """(a, b, g): a point j steps from its row's centre, whose seeds carry
    the error counts `term` (the centre term), `ratio` (u or w, the ratio
    its way walks by) and `mult` (E), is charged a + b j + g j (j - 1) in
    units of 2^-wp: twice s_t + j (s_u + 1.5) + (s_E + 1.5) j (j - 1)/2,
    s = count + 1.5 (module docstring)."""
    return 2 * term + 3, 2 * ratio + 6, mult + 3


def _ray_steps(n):
    """For r = 0..3, (m, sum of j, sum of j (j - 1)) over the m steps
    j = 1..n of a ray with j = r mod 4, in closed form."""
    out = [None] * 4
    for j0 in (1, 2, 3, 4):
        m = (n - j0) // 4 + 1  # j = j0 + 4i, 0 <= i < m
        s1 = m * j0 + 2 * m * (m - 1)
        s2 = m * j0 * j0 + 4 * j0 * m * (m - 1) + 16 * ((m - 1) * m * (2 * m - 1) // 6)
        out[j0 % 4] = (m, s1, s2 - s1)
    return out


@lru_cache(maxsize=1024)
def _row_steps(c, up, down):
    """For each class r0 = k0 mod 4 of a row walked from k0 = c by `up`
    steps up and `down` steps down: its points, the sums of the steps j
    of its upward and of its downward points, and the sum of j (j - 1)
    over all of them.  Only c mod 4 matters."""
    out = [[0, 0, 0, 0] for _ in range(4)]
    out[c % 4][0] = 1  # the centre, j = 0
    for d, n, col in ((1, up, 1), (-1, down, 2)):
        for j, (m, s1, s2) in enumerate(_ray_steps(n)):
            cell = out[(c + d * j) % 4]
            cell[0] += m
            cell[col] += s1
            cell[3] += s2
    return out


def _chords(y, keep):
    """[(lo, hi)] of the rows k1 = 0, 1, ... up to the last row that
    meets k^T Y k <= keep: row k1 keeps k0 in [lo, hi] (empty when
    lo > hi), the chord of that ellipse, widened by 2^-40 of its size
    against rounding."""
    y11, y12, y22 = y
    det = y11 * y22 - y12 * y12
    out = []
    for k1 in itertools.count():
        # y11 (k0 - c)^2 + k1^2 det / y11 <= keep
        disc = (keep - k1 * k1 * det / y11) / y11
        if disc < 0:
            break
        c, h = -y12 * k1 / y11, math.sqrt(disc)
        slack = 2.0 ** -40 * (1 + abs(c) + h)
        out.append((math.ceil(c - h - slack), math.floor(c + h + slack)))
    return out


def _walk(t, wp, eps, moments=False):
    """The row-recurrence kernel behind every high-precision series.

    Sums e^{pi i k^T T k} over the k in E, b = wp, T given by
    _raw_entries.  Returns (sums, mom, bounds, cut), the first three
    indexed [r0][r1] by the class r = k mod 4: sums is the (re, im)
    fixed-point integer sum, wp fractional bits; with moments, mom holds
    the three (re, im) sums weighted by k0^2, 2 k0 k1 and k1^2 (else
    None); bounds is the rounding bound of sums; cut is P(rho), or W(rho)
    with moments.  Rows, seeds and charges as in the module docstring.
    """
    import mpmath as mp
    lib = mp.libmp

    def mul(a, b):
        return fc_mul(a, b, wp)

    y = tuple(lib.to_float(z[1]) for z in t)
    _, keep, cut, _ = _ellipse(y, wp, eps, moments)
    A, B, C = (fc_cut(*fc_from_mpc(lib.mpc_expjpi(z, wp), _EXP_ERR), wp) for z in t)
    E, F, G = (mul(z, z) for z in (A, B, C))
    Einv, Finv = fc_inv(E, wp), fc_inv(F, wp)
    er, ei = fc_fixed(E, wp)
    slope = -y[1] / y[0]
    width = 9 if moments else 3  # charge, sum, three moments; re, im each
    # cells [charge, re, im, (k0^2, 2 k0 k1, k1^2 moments)] of row 0, and
    # of the rows k1 > 0, each by class 4 r0 + r1
    row0, pos = ([[0] * width for _ in range(16)] for _ in range(2))

    def row(k1, c, x, u, w, lo, hi):
        xr, xi = fc_fixed(x, wp)
        up = _ray(xr, xi, *fc_fixed(u, wp), er, ei, hi - c, wp)
        down = _ray(xr, xi, *fc_fixed(w, wp), er, ei, c - lo, wp)
        parts = (down[0][::-1] + [xr] + up[0], down[1][::-1] + [xi] + up[1])
        scale = (1, 1)
        if moments:
            ks = range(lo, hi + 1)
            k0v = [[k * z for k, z in zip(ks, v)] for v in parts]
            parts += tuple([k * z for k, z in zip(ks, v)] for v in k0v) + tuple(k0v) + parts
            scale += (1, 1, 2 * k1, 2 * k1, k1 * k1, k1 * k1)
        a, bu, g = _point_charge(x[3], u[3], E[3])
        bw = _point_charge(x[3], w[3], E[3])[1]
        acc = pos if k1 else row0
        for r0, (m, s1u, s1w, s2) in enumerate(_row_steps(c % 4, hi - c, c - lo)):
            sl = slice((r0 - lo) % 4, None, 4)
            cell = acc[4 * r0 + k1 % 4]
            cell[0] += a * m + bu * s1u + bw * s1w + g * s2
            for i, (f, v) in enumerate(zip(scale, parts), 1):
                cell[i] += f * sum(v[sl])

    # row 0 from its centre k0 = 0; each later row by one vertical step at
    # the old centre, by the ratio V of the terms at k1 + 1 and k1, then
    # |new - old| horizontal steps to the new centre; a row that E's
    # chord leaves empty keeps the old centre
    x, u, w, V, c = fc_cut(1, 0, 0, 0, wp), A, A, C, 0
    for k1, (lo, hi) in enumerate(_chords(y, keep)):
        if k1:
            x, V, u, w = mul(x, V), mul(V, G), mul(u, F), mul(w, Finv)
        if lo > hi:
            continue
        new = min(hi, max(lo, round(slope * k1)))
        while c < new:
            x, u, w, V, c = mul(x, u), mul(u, E), mul(w, Einv), mul(V, F), c + 1
        while c > new:
            x, w, u, V, c = mul(x, w), mul(w, E), mul(u, Einv), mul(V, Finv), c - 1
        row(k1, c, x, u, w, lo, hi)
    # class r holds row 0's terms, those of the rows k1 > 0, and the terms
    # at -k, equal to those at k, of class -r in the rows k1 > 0
    tot = [[[p + q + s for p, q, s in zip(row0[4 * r0 + r1], pos[4 * r0 + r1],
                                         pos[4 * (-r0 % 4) + -r1 % 4])]
            for r1 in range(4)] for r0 in range(4)]
    sums = [[v[1:3] for v in cells] for cells in tot]
    mom = [[[v[3:5], v[5:7], v[7:9]] for v in cells] for cells in tot] if moments else None
    return sums, mom, [[v[0] * 2.0 ** -wp for v in cells] for cells in tot], cut


class _Sums(NamedTuple):
    """One kernel run, and the arithmetic of its precision: `parts` holds
    the class sums as signed parts (_signed), `mom` the three moment sums
    likewise (or None), `bounds` the rounding bound of each class by
    [r0][r1], `cut` bounds the terms of each translate of 2Z^2 that E
    leaves out (weighted, with moments), `add` combines class sums
    (exactly for the walk's integers, exactly rounded for the grid's
    floats), `round` turns a combined (re, im) pair into a value, rounded
    once, `ulp` = 2^(1-prec) bounds that rounding relative to the value,
    and `pi` is pi at the working precision."""
    parts: list
    mom: list
    bounds: list
    cut: float
    add: object
    round: object
    ulp: float
    pi: object


def _run_kernel(tau, shift, eps, hiprec, moments=False):
    """The kernel of the precision over E at 2^shift tau, whose cut is at
    most eps.  High precision must run under the working precision, as
    value_prec provides."""
    _check_eps(eps)
    if hiprec:
        import mpmath as mp
        wp = mp.mp.prec + GUARD_BITS
        run = _walk(_raw_entries(tau, shift), wp, eps, moments)
        arith = sum, lambda z: fc_to_mpc((*z, -wp)), 2.0 ** (1 - mp.mp.prec), mp.pi
    else:
        T = tau.mat
        run = _grid([z * 2.0 ** shift for z in (T[0][0], T[0][1], T[1][1])], eps, moments)
        arith = math.fsum, lambda z: complex(*z), 2 * _U, math.pi
    sums, mom, bounds, cut = run
    if mom is not None:
        mom = [_signed([[cell[j] for cell in cells] for cells in mom]) for j in range(3)]
    return _Sums(_signed(sums), mom, bounds, cut, *arith)


def _signed(cells):
    """The (re, im) pairs (x, y) of a 4 x 4 list of class cells as one
    flat list of signed parts: x, y, -x, -y of class 4 r0 + r1 at
    4 (4 r0 + r1), so that i^p (x + i y) = (part -p mod 4,
    part 1 - p mod 4) is a pick, with no arithmetic."""
    return [v for row in cells for x, y in row for v in (x, y, -x, -y)]


# The classes r = k mod 4 of the lattice points k = m' mod 2, by m'.
_CLASSES = {a: [(a[0] + 2 * p, a[1] + 2 * q) for p in (0, 1) for q in (0, 1)]
            for a in MPRIME_ORDER}


@lru_cache(maxsize=256)
def _plan(mprime, mdbl):
    """(re, im, classes) of theta[m'; m'']: its classes r, those of
    m' mod 2, and two picks of the real and of the imaginary parts of
    i^{r.m''} S_r over them, in class order, from _signed parts."""
    classes = _CLASSES[mprime[0] % 2, mprime[1] % 2]
    cells = [(4 * (4 * r0 + r1), (r0 * mdbl[0] + r1 * mdbl[1]) % 4) for r0, r1 in classes]
    return (itemgetter(*[c + (-p) % 4 for c, p in cells]),
            itemgetter(*[c + (1 - p) % 4 for c, p in cells]), classes)


def _class_sum(k, parts, plan):
    """sum over the classes r of `plan` of i^{r.m''} S_r, the S_r given as
    _signed parts of kernel run k, each component combined by k.add."""
    return k.add(plan[0](parts)), k.add(plan[1](parts))


def _theta(k, mprime, mdbl):
    """ThetaValue of theta[m'; m''] from kernel run k over its k = 2n + m'
    (module docstring): the rounding bounds of its four classes, the
    terms outside E of its translate of 2Z^2, and the final rounding."""
    plan = _plan(mprime, mdbl)
    val = k.round(_class_sum(k, k.parts, plan))
    bound = sum(k.bounds[r0][r1] for r0, r1 in plan[2])
    return ThetaValue(val, bound + k.cut + k.ulp * abs(complex(val)))


def theta_constant(m, tau, eps=1e-12, hiprec=False):
    """First-order theta constant for the reduced characteristic with 4-bit
    index m, from one kernel run at tau/4; exactly zero (with zero error)
    for odd m."""
    if parity(m) == -1:
        if not hiprec:
            return ThetaValue(0j, 0.0)
        import mpmath as mp
        return ThetaValue(mp.mpc(0), 0.0)
    with value_prec(hiprec):
        return _theta(_run_kernel(tau, -2, eps, hiprec), mprime_of(m), mdbl_of(m))


def theta_second_vector(tau, eps=1e-12, hiprec=False):
    """The four second-order constants in MPRIME_ORDER, from one kernel
    run at tau/2: Theta_{m'}(tau) sums e^{pi i k^T (tau/2) k} over
    k = 2n + m', the classes k = m' mod 2 of the run."""
    with value_prec(hiprec):
        k = _run_kernel(tau, -1, eps, hiprec)
        return tuple(_theta(k, mpv, (0, 0)) for mpv in MPRIME_ORDER)


def theta_second_order(mprime, tau, eps=1e-12, hiprec=False):
    """Second-order constant Theta_{m'}(tau) = theta_{[m';0]}(2 tau): the
    entry of theta_second_vector at m' mod 2."""
    return theta_second_vector(tau, eps, hiprec)[
        MPRIME_ORDER.index((mprime[0] % 2, mprime[1] % 2))]


def theta_all_even(tau, eps=1e-12, hiprec=False):
    """All ten even first-order constants, keyed by 4-bit index, from one
    kernel run."""
    with value_prec(hiprec):
        k = _run_kernel(tau, -2, eps, hiprec)
        return {m: _theta(k, mprime_of(m), mdbl_of(m)) for m in EVEN_CHARS}


def theta_gradient_vector(tau, eps, hiprec):
    """The gradients of the four Theta_{m'} in MPRIME_ORDER, each
    (d/dtau11, d/dtau12, d/dtau22) with the off-diagonal derivative
    counting the symmetric entry once, from one kernel run with moments.
    Differentiating the terms e^{pi i k^T (tau/2) k} of Theta_{m'} gives
    the weights pi i/2 times k0^2, 2 k0 k1 and k1^2, the moments' integer
    weights; the terms outside E change each entry by at most eps."""
    with value_prec(hiprec):
        k = _run_kernel(tau, -1, eps, hiprec, moments=True)
        half_pi_i = 1j * (k.pi / 2)
        plans = [_plan(mpv, (0, 0)) for mpv in MPRIME_ORDER]
        return tuple(tuple(half_pi_i * k.round(_class_sum(k, mom, plan)) for mom in k.mom)
                     for plan in plans)


# --- exact transformation factors ---------------------------------------


_SQ2 = math.sqrt(0.5)
_CHI8 = (1 + 0j, _SQ2 + 1j * _SQ2, 1j, -_SQ2 + 1j * _SQ2,
         -1 + 0j, -_SQ2 - 1j * _SQ2, -1j, _SQ2 - 1j * _SQ2)


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


def kappa_probes(gamma, eps=1e-12):
    """kappa measured at i*I from every even probe characteristic with
    |theta_m(i*I)| > _PROBE_MIN_ABS, as a dict m -> kappa.  All probes of
    a given gamma must agree; the spread is a correctness check on chi.
    One theta_all_even at gamma (i*I); the constants at i*I once per eps."""
    th0 = _probe_thetas(eps)
    point, det = transform(gamma, TAU_I)
    sqrt_det = cmath.sqrt(det)
    probes = [m for m in EVEN_CHARS if abs(th0[m].value) > _PROBE_MIN_ABS]
    th_g = theta_all_even(point, eps)
    image, unit = char_action(gamma)
    return {m: th_g[image[m]].value / (_CHI8[unit[m]] * sqrt_det * th0[m].value)
            for m in probes}


def kappa_numeric(gamma):
    """Theta multiplier kappa(gamma) measured numerically at i*I against
    the principal branch of det(c i + d)^{1/2}.  Unimodular, and
    kappa^4 = e^{pi i Tr(b^T c)}; only branch-insensitive powers of the
    result are meaningful."""
    return next(iter(kappa_probes(gamma).values()))
