"""Small numeric helpers shared by the double-precision and mpmath paths,
and the Python-integer floating complex of the high-precision theta walk
and of the products and signed sums formed from its results.

2x2 matrices are nested tuples so the same code runs on Python complex
and mpmath mpc entries.  All Siegel-point transforms in this package are
genus 2, where explicit 2x2 formulas beat general solvers and behave
identically in both precisions.

Every module imports a numeric library inside the functions that read
it, never at module level.  mpmath serves the high-precision path only
(value_prec, fc_to_mpc, SiegelPoint.entries_mp, the hiprec branches of
the theta kernel and of the products): a process that evaluates in
double never loads it.  numpy serves the double grid of theta, the
error bookkeeping of forms and the seeded sampler of siegel: `import
azy5` and the exact commands (orbits, cosets, geometry) load neither.
"""

from __future__ import annotations

import contextlib
import math

# Working decimal precision for all high-precision code paths.
HIPREC_DPS = 50


def value_prec(hiprec):
    """Context for arithmetic on computed values: mpmath at HIPREC_DPS
    digits when hiprec, otherwise a no-op.  The only code that sets the
    working precision; no call takes its own, since the two on offer
    serve every caller and a reference at more digits raises HIPREC_DPS,
    read here at call time.  Every multiplication or division of mpc
    values outside such a block rounds at the ambient mpmath precision."""
    if hiprec:
        import mpmath as mp
        return mp.workdps(HIPREC_DPS)
    return contextlib.nullcontext()


def fsum_complex(values):
    """Exactly rounded sum of a sequence of complex numbers, part by part."""
    return complex(math.fsum(z.real for z in values), math.fsum(z.imag for z in values))


def m2_add(A, B):
    return ((A[0][0] + B[0][0], A[0][1] + B[0][1]),
            (A[1][0] + B[1][0], A[1][1] + B[1][1]))


def m2_mul(A, B):
    return ((A[0][0] * B[0][0] + A[0][1] * B[1][0], A[0][0] * B[0][1] + A[0][1] * B[1][1]),
            (A[1][0] * B[0][0] + A[1][1] * B[1][0], A[1][0] * B[0][1] + A[1][1] * B[1][1]))


def m2_det(A):
    return A[0][0] * A[1][1] - A[0][1] * A[1][0]


def m2_inv(A):
    det = m2_det(A)
    return ((A[1][1] / det, -A[0][1] / det),
            (-A[1][0] / det, A[0][0] / det))


def m2_frob(A):
    return math.sqrt(sum(abs(A[i][j]) ** 2 for i in range(2) for j in range(2)))


def m2_cond(A):
    """Frobenius-norm condition estimate; inf for singular A."""
    if m2_det(A) == 0:
        return math.inf
    return m2_frob(A) * m2_frob(m2_inv(A))


def mobius(gamma, tau):
    """(a tau + b)(c tau + d)^{-1} for integer blocks and a 2x2 tau given as
    nested tuples; returns (tau', c tau + d) with tau' symmetrized.  The
    scalar type of tau (complex or mpc) is preserved."""
    a, b, c, d = gamma.a, gamma.b, gamma.c, gamma.d
    num = m2_add(m2_mul(a, tau), b)
    den = m2_add(m2_mul(c, tau), d)
    t = m2_mul(num, m2_inv(den))
    off = (t[0][1] + t[1][0]) / 2
    return ((t[0][0], off), (off, t[1][1])), den


def sym2_eig_bounds(y):
    """(lambda_min, lambda_max) of a real symmetric 2x2 given as nested
    tuples, by the closed form."""
    tr = float(y[0][0] + y[1][1])
    det = float(y[0][0] * y[1][1] - y[0][1] * y[1][0])
    disc = (tr * tr) / 4 - det
    root = math.sqrt(disc) if disc > 0 else 0.0
    return tr / 2 - root, tr / 2 + root


# --- floating complex ---------------------------------------------------
# A Python-integer floating complex is a tuple (x, y, e, count): the value
# (x + i y) 2^e with its mantissa pair cut to wp bits, the larger part
# exactly wp bits long, and `count`, a first-order bound on its error in
# units of 2^-wp relative to the exact value it stands for.  Operations
# add their own rounding to the counts of their operands.  An exact
# conversion (fc_from_mpc) or sum may carry a mantissa pair of any
# length; fc_mul accepts it and cuts its product.

# Error counts of the quotients of an inverse and of cutting a mantissa
# pair to wp bits: the floor of each part is off by under one unit of
# the last place, against a modulus of at least 2^(wp-1) units, so by
# under 2 sqrt 2 units of 2^-wp relative.
FC_QUOT_ERR, FC_CUT_ERR = 1, 3


def fc_cut(x, y, e, count, wp):
    """The floating complex (x + i y) 2^e with error count `count`, its
    mantissa pair scaled to wp bits (floor rounding)."""
    s = max(x.bit_length(), y.bit_length()) - wp
    if s <= 0:
        return x << -s, y << -s, e + s, count
    return x >> s, y >> s, e + s, count + FC_CUT_ERR


def fc_mul(a, b, wp):
    return fc_cut(a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0],
                  a[2] + b[2], a[3] + b[3], wp)


def fc_inv(a, wp):
    # 1/(x + i y) = (x - i y)/N, N = x^2 + y^2; the quotients carry at
    # least wp + 1 bits, since the mantissas carry wp
    x, y, e, count = a
    n, s = x * x + y * y, 2 * wp + 3
    return fc_cut((x << s) // n, (-y << s) // n, -e - s, count + FC_QUOT_ERR, wp)


def fc_pow(a, n, wp):
    """a^n for an integer n >= 0, by squaring."""
    out = None
    while True:
        if n & 1:
            out = a if out is None else fc_mul(out, a, wp)
        n >>= 1
        if not n:
            return fc_cut(1, 0, 0, 0, wp) if out is None else out
        a = fc_mul(a, a, wp)


def fc_fixed(a, wp):
    """Fixed-point pair of a floating complex, wp fractional bits (floor)."""
    x, y, e, _ = a
    s = e + wp
    return (x << s, y << s) if s >= 0 else (x >> -s, y >> -s)


def fc_from_mpc(z, count=0):
    """An mpc, or its raw (re, im) pair of mpf tuples, as the floating
    complex of its two mantissas aligned to the smaller exponent, with
    error count `count`.  Exact: the mantissa pair is not cut, so it may
    be shorter or longer than wp bits; fc_cut scales it."""
    parts = getattr(z, "_mpc_", z)
    e = min((p[2] for p in parts if p[1]), default=0)
    x, y = [(-m if sg else m) << (pe - e) if m else 0 for sg, m, pe, _ in parts]
    return x, y, e, count


def fc_align(zs):
    """The mantissa pairs of the floating complexes zs shifted exactly to
    one exponent, the least of the nonzero ones: ([(x, y), ...], e)."""
    e = min((z[2] for z in zs if z[0] or z[1]), default=0)
    return [(z[0] << (z[2] - e), z[1] << (z[2] - e)) if z[0] or z[1] else (0, 0)
            for z in zs], e


def fc_sum(terms):
    """Exact sum of s z over the pairs (s, z) of `terms`, s an integer and
    z a floating complex, as the unrounded (x, y, e).  The counts of the
    z do not carry over: relative to the sum, which may cancel, they mean
    nothing, so the caller bounds each term's error itself."""
    signs, zs = zip(*terms)
    parts, e = fc_align(zs)
    return (sum(s * p[0] for s, p in zip(signs, parts)),
            sum(s * p[1] for s, p in zip(signs, parts)), e)


def fc_to_mpc(a):
    """(x + i y) 2^e of a floating complex (or of fc_sum's (x, y, e)) as an
    mpc, each part rounded once to nearest at the ambient precision: off
    by at most 2^-prec times its modulus."""
    import mpmath as mp
    prec, lib = mp.mp.prec, mp.libmp
    return mp.make_mpc((lib.from_man_exp(a[0], a[2], prec, lib.round_nearest),
                        lib.from_man_exp(a[1], a[2], prec, lib.round_nearest)))


def fc_abs(a):
    """|a| of a floating complex as a float, from its top 64 bits (so
    within a few units of 2^-53 relative); 0.0 below the float range and
    inf above it."""
    x, y, e = a[0], a[1], a[2]
    s = max(x.bit_length() - 64, y.bit_length() - 64, 0)
    try:
        return math.ldexp(math.hypot(x >> s, y >> s), e + s)
    except OverflowError:
        return math.inf
