"""Small numeric helpers shared by the double-precision and mpmath paths.

2x2 matrices are nested tuples so the same code runs on Python complex,
numpy scalars and mpmath mpc entries.  All Siegel-point transforms in this
package are genus 2, where explicit 2x2 formulas beat general solvers and
behave identically in both precisions.
"""

from __future__ import annotations

import contextlib
import math

import mpmath as mp
import numpy as np

# Working decimal precision for all high-precision code paths.
HIPREC_DPS = 50


def value_prec(hiprec, dps=None):
    """Context for arithmetic on computed values: mpmath at the working
    precision when hiprec, otherwise a no-op.  Every multiplication or
    division of mpc values outside such a block silently rounds at the
    ambient mpmath precision, which defaults to double."""
    if hiprec:
        return mp.workdps(dps or HIPREC_DPS)
    return contextlib.nullcontext()


def fsum_complex(values):
    """Exactly rounded sum of an iterable of complex numbers."""
    vals = np.asarray(values, dtype=complex)
    return complex(math.fsum(vals.real.tolist()), math.fsum(vals.imag.tolist()))


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


def to_mpc(z):
    z = complex(z)
    return mp.mpc(z.real, z.imag)
