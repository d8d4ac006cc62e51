"""Correctness checks for the benchmark's ops, and the direct-sum theta
oracle they use.

Every check compares against a closed form or a property, never against
stored output:

* lambda = phi / azy must equal -2^-57 / 1000 (README, "Measured constants")
  to 1e-5 relative in double precision and 1e-20 relative through the
  high-precision path: the tolerances of the acceptance suite's lambda
  criteria;
* the report's mu must equal -32 i / pi^3 to 1e-6 relative;
* a value must exceed its reported error bound;
* a theta constant must agree with the oracle below within its reported
  bound plus a rounding allowance.

The oracle sums the theta series directly in mpmath, over a box larger
than the library's certified radius, at a precision well above the
library's.  Its truncation radius comes from its own tail estimate.
"""

from __future__ import annotations

import math

import mpmath as mp

import points

LAMBDA_TOL = {"double": 1e-5, "hiprec": 1e-20}
MU_TOL = 1e-6
# Unit roundoff of the library's two paths: IEEE double, and the
# 50-digit mpmath working precision of its --hiprec path.
ROUNDOFF = {"double": 2.0 ** -53, "hiprec": 1e-50}
# lambda_digits is capped at the working precision, so an exact match
# stays finite.
DIGITS_CAP = {"double": -math.log10(2.0 ** -53), "hiprec": 50.0}
# Working digits of the oracle for each path it is compared against.
ORACLE_DPS = {"double": 30, "hiprec": 65}

MU_EXACT = -32j / math.pi ** 3


def lambda_exact():
    """-2^-57 / 1000 at 70 digits."""
    with mp.workdps(70):
        return mp.mpf(-1) / (mp.mpf(2) ** 57 * 1000)


def rel_error(value, exact):
    """|value / exact - 1| as a float, computed at 70 digits."""
    with mp.workdps(70):
        return float(abs(mp.mpmathify(value) / mp.mpmathify(exact) - 1))


def lambda_ok(lam, precision):
    return rel_error(lam, lambda_exact()) <= LAMBDA_TOL[precision]


def lambda_digits(lam, precision):
    """-log10 |lambda / lambda_exact - 1|, capped at the working precision."""
    r = rel_error(lam, lambda_exact())
    cap = DIGITS_CAP[precision]
    return cap if r == 0 else min(cap, -math.log10(r))


def above_error(value, err):
    """|value| exceeds its reported error bound."""
    return float(abs(value)) > err


def report_problems(report):
    """Problems with one `azy5 verify` JSON report (empty when correct)."""
    out = []
    if report.get("verdict") != "PASS":
        failed = [c["name"] for c in report.get("checks", []) if c["verdict"] != "PASS"]
        out.append(f"verdict {report.get('verdict')}: {failed}")
    payload = report.get("payload", {})
    lam = payload.get("lambda")
    if lam is None or not lambda_ok(complex(*lam), "double"):
        out.append(f"report lambda {lam} not within {LAMBDA_TOL['double']} of -2^-57/1000")
    mu = payload.get("mu")
    if mu is None or abs(complex(*mu) / MU_EXACT - 1) > MU_TOL:
        out.append(f"report mu {mu} not within {MU_TOL} of -32i/pi^3")
    return out


def oracle_theta(m, tau, precision, min_radius):
    """Direct-sum oracle for the even first-order theta constant with
    4-bit index m (bits m'_1 m'_2 m''_1 m''_2) at the 2x2 complex matrix
    tau, entries taken exactly.  Returns (value, allowance): the series
    value to about ORACLE_DPS digits, and the rounding allowance of the
    library's evaluation of the same series in `precision`.

    The allowance is a first-order rounding model of one term
    t = exp(pi i q), q = v^T tau v + 2 b.v with v = n + m'/2, b = m''/2.
    Forming q in floating point leaves an absolute error of a few units of
    roundoff u times Q = sum of the moduli of its monomials; exp turns that
    into a relative error pi * |dq| of t, and exp itself adds a few u.
    With a factor 8 covering the operation count, each term is off by at
    most 8u |t| (1 + pi Q), and the exactly rounded final sum adds u |theta|.
    """
    dps = ORACLE_DPS[precision]
    a = ((m >> 3) & 1, (m >> 2) & 1)
    b = ((m >> 1) & 1, m & 1)
    # A term on shell r is at most exp(-pi lam (r - 1/2)^2) and a shell
    # holds 8r < 800 points: stop where a shell's sum is below 10^-(dps+4).
    lam = points.least_eigenvalue(tau)
    need = (dps + 4) * math.log(10) + math.log(800)
    radius = max(int(math.sqrt(need / (math.pi * lam)) + 1.5), min_radius + 3)
    with mp.workdps(dps):
        t = [[mp.mpc(complex(tau[i][j]).real, complex(tau[i][j]).imag) for j in range(2)]
             for i in range(2)]
        at = [abs(t[i][j]) for i in range(2) for j in range(2)]
        re, im, weight = [], [], []
        for n0 in range(-radius, radius + 1):
            v0 = mp.mpf(n0) + mp.mpf(a[0]) / 2
            for n1 in range(-radius, radius + 1):
                v1 = mp.mpf(n1) + mp.mpf(a[1]) / 2
                q = (t[0][0] * v0 * v0 + 2 * t[0][1] * v0 * v1 + t[1][1] * v1 * v1
                     + b[0] * v0 + b[1] * v1)
                term = mp.expjpi(q)
                re.append(term.real)
                im.append(term.imag)
                big_q = (at[0] * v0 * v0 + 2 * at[1] * abs(v0 * v1) + at[3] * v1 * v1
                         + b[0] * abs(v0) + b[1] * abs(v1))
                weight.append(abs(term) * (1 + mp.pi * big_q))
        value = mp.mpc(mp.fsum(re), mp.fsum(im))
        u = ROUNDOFF[precision]
        allowance = float(8 * u * mp.fsum(weight) + u * abs(value))
    return value, allowance


def theta_ok(value, err, oracle_value, allowance):
    """The library's theta value lies within its bound plus the rounding
    allowance of the oracle value."""
    with mp.workdps(70):
        diff = abs(mp.mpmathify(value) - oracle_value)
    return float(diff) <= err + allowance
