"""Self-test of the benchmark's correctness checks: each check accepts the
library's answer and rejects a perturbed one.

    python3 perfbench/selfcheck.py

Run from the root of a source checkout; exits 1 if any check fails to
accept the real answer or fails to reject the perturbed one.
"""

from __future__ import annotations

import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import mpmath as mp  # noqa: E402

import checks  # noqa: E402
import points  # noqa: E402
from azy5.construction import phi  # noqa: E402
from azy5.forms import azy_eval  # noqa: E402
from azy5.siegel import SiegelPoint  # noqa: E402
from azy5.theta import theta_constant, truncation_radius  # noqa: E402

EPS = {"double": 1e-12, "hiprec": 1e-30}
FAILURES = []


def expect(name, accepted, rejected):
    ok = accepted and not rejected
    print(f"{'ok  ' if ok else 'FAIL'} {name}: real answer "
          f"{'accepted' if accepted else 'REJECTED'}, perturbed answer "
          f"{'ACCEPTED' if rejected else 'rejected'}")
    if not ok:
        FAILURES.append(name)


def scaled(value, factor):
    with mp.workdps(70):
        return mp.mpmathify(value) * factor


def lambda_case(tau, precision, rel):
    eps, hiprec = EPS[precision], precision == "hiprec"
    pv = phi(tau, eps, hiprec)
    av, aerr, _ = azy_eval(tau, eps, hiprec)
    with mp.workdps(70):
        lam = mp.mpmathify(pv.value) / mp.mpmathify(av)
    expect(f"lambda ({precision}, perturbed by {rel:g} relative)",
           checks.lambda_ok(lam, precision),
           checks.lambda_ok(scaled(lam, 1 + mp.mpf(rel)), precision))
    expect(f"|phi| > err ({precision}, err raised to 2|phi|)",
           checks.above_error(pv.value, pv.err),
           checks.above_error(pv.value, 2 * float(abs(pv.value))))
    expect(f"|azy| > err ({precision}, err raised to 2|azy|)",
           checks.above_error(av, aerr),
           checks.above_error(av, 2 * float(abs(av))))


def theta_case(tau, precision, m):
    eps, hiprec = EPS[precision], precision == "hiprec"
    tv = theta_constant(m, tau, eps, hiprec)
    ov, allowance = checks.oracle_theta(m, tau.mat, precision,
                                        truncation_radius(tau, eps))
    with mp.workdps(70):
        off = mp.mpmathify(tv.value) + 10 * (tv.err + allowance)
    expect(f"theta {m} vs oracle ({precision}, off by 10 x (err + allowance))",
           checks.theta_ok(tv.value, tv.err, ov, allowance),
           checks.theta_ok(off, tv.err, ov, allowance))


def report_case():
    lam = float(checks.lambda_exact())
    good = {"verdict": "PASS", "checks": [],
            "payload": {"lambda": [lam, 0.0], "mu": [0.0, -32 / math.pi ** 3]}}
    bad_lambda = dict(good, payload={"lambda": [lam * (1 + 1e-4), 0.0],
                                     "mu": good["payload"]["mu"]})
    bad_mu = dict(good, payload={"lambda": good["payload"]["lambda"],
                                 "mu": [0.0, -32 / math.pi ** 3 * (1 + 1e-5)]})
    bad_verdict = dict(good, verdict="FAIL",
                       checks=[{"name": "x", "verdict": "FAIL"}])
    accepted = not checks.report_problems(good)
    for name, rep in (("lambda off by 1e-4", bad_lambda), ("mu off by 1e-5", bad_mu),
                      ("verdict FAIL", bad_verdict)):
        expect(f"verify report ({name})", accepted, not checks.report_problems(rep))


def main():
    generic = SiegelPoint(points.point_set(0, 1, points.GENERIC)[0])
    near = SiegelPoint(points.point_set(0, 4, points.NEAR_BOUNDARY)[3])
    lambda_case(generic, "hiprec", 1e-12)
    lambda_case(near, "double", 1e-4)
    theta_case(generic, "hiprec", 0)
    theta_case(near, "double", 9)
    report_case()
    if FAILURES:
        print(f"{len(FAILURES)} check(s) misbehaved")
        return 1
    print("all checks accept the real answers and reject the perturbed ones")
    return 0


if __name__ == "__main__":
    sys.exit(main())
