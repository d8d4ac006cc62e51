"""The benchmark's child processes.  run.py starts each in a fresh
interpreter with the checkout's `src` directory as PYTHONPATH:

    worker.py setup                    import azy5, then fill the caches the
                                       in-process ops read; prints "imported"
                                       and "ready" as each phase ends
    worker.py run --workload W ...     one measured run of a workload
    worker.py geometry --seed N        cold tetrahedra and f_m timings
    worker.py stages --seed N          one in-process `azy5 verify`, timed
                                       stage by stage

Each prints one JSON object as its last line.  Nothing but the standard
library is imported at module level, so that `setup` times the import of
azy5 and its dependencies from a fresh interpreter.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

EPS = {"double": 1e-12, "hiprec": 1e-30}
# (point kind, points per pass, precision of the ops)
WORKLOADS = {
    "verify-double": ("GENERIC", 5, "double"),
    "lambda-hiprec": ("GENERIC", 8, "hiprec"),
    "near-boundary": ("NEAR_BOUNDARY", 48, "double"),
}
# estimate_lambda redraws a point whose signed triple sum is below 1e-6 of
# its largest monomial; the in-process point sets keep a factor-10 margin
# over that guard, so a change in the last digits of azy cannot change them.
GUARD = 1e-5
# Points of a set that the layer pass and the oracle check visit.
LAYER_POINTS = 4
ORACLE_POINTS = 3
VERIFY_TIMEOUT_S = 150
# `azy5 verify --seed` also seeds the CLI's own sampling: the lambda points,
# the kappa words and the alternate transversal, which alone moves the
# rep-independence stage between 0.3 s and 1.3 s from seed to seed.  It is
# held at the CLI's default, and the benchmark seed varies the --tau points.
VERIFY_SEED = 0
# The stages of `azy5 verify` in the traced run: stage name, and the
# function that cmd_azy_verify calls for it, under its name in azy5.cli.
VERIFY_STAGES = {
    "tetrahedra": "all_tetrahedra",
    "rep_independence": "rep_independence_error",
    "modularity": "phi_modularity_error",
    "lambda": "estimate_lambda",
    "crosscheck": "geometric_crosscheck",
}


class Tracer:
    """In-memory spans: id, name, parent span id, op id, start, end."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, op=None):
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), name, parent, op, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()

    def durations(self, name, op=None):
        return [s[5] - s[4] for s in self.spans
                if s[1] == name and (op is None or s[3] == op)]

    def write(self, path):
        keys = ("id", "name", "parent", "op", "start", "end")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


class NoTracer:
    """Tracing off: every span is a shared no-op context."""

    _null = contextlib.nullcontext()

    def span(self, name, op=None):
        return self._null


def _point_set(workload, seed):
    import points
    kind, count, precision = WORKLOADS[workload]
    accept = None
    if workload != "verify-double":
        from azy5.forms import azy_eval
        from azy5.siegel import SiegelPoint

        def accept(m):
            value, _, largest = azy_eval(SiegelPoint(m))
            return abs(value) >= GUARD * largest
    return points.point_set(seed, count, getattr(points, kind), accept)


def _subset(items, k):
    """k items spread evenly over the list, first and last included."""
    n = len(items)
    if n <= k:
        return list(items)
    return [items[round(i * (n - 1) / (k - 1))] for i in range(k)]


# --- setup ---------------------------------------------------------------


def cmd_setup(args):
    import azy5.cli  # noqa: F401  (what `azy5 verify` imports)
    print("imported", flush=True)
    from azy5.forms import azy_terms
    from azy5.symplectic import THETA0_2, coset_reps
    t0 = time.perf_counter()
    azy_terms()
    t1 = time.perf_counter()
    coset_reps(THETA0_2)
    print("ready", flush=True)
    return {"forms.azy_terms_cold_s": t1 - t0}


# --- in-process ops ------------------------------------------------------


def _inprocess_ops(tr, taus, precision, seconds):
    """Whole passes of phi + azy_eval over taus until `seconds` have
    elapsed.  Returns (op times, wall, peak RSS, failed, problems,
    per-point lambda digits)."""
    import mpmath as mp

    import checks
    from azy5.construction import phi
    from azy5.forms import azy_eval
    eps, hiprec = EPS[precision], precision == "hiprec"
    times, problems, digits = [], [], {}
    failed = 0
    start = time.perf_counter()
    while True:
        for k, tau in enumerate(taus):
            t0 = time.perf_counter()
            try:
                with tr.span("op", op=k):
                    with tr.span("op.construction.phi", op=k):
                        pv = phi(tau, eps, hiprec)
                    with tr.span("op.forms.azy_eval", op=k):
                        av, aerr, _ = azy_eval(tau, eps, hiprec)
            except Exception as exc:  # an op that raises counts as failed
                failed += 1
                problems.append(f"point {k}: {type(exc).__name__}: {exc}")
                continue
            times.append(time.perf_counter() - t0)
            with mp.workdps(70):
                lam = mp.mpmathify(pv.value) / mp.mpmathify(av)
            if not checks.lambda_ok(lam, precision):
                problems.append(f"point {k}: lambda {mp.nstr(lam, 20)} off by "
                                f"{checks.rel_error(lam, checks.lambda_exact()):.2e}")
            if not checks.above_error(pv.value, pv.err):
                problems.append(f"point {k}: |phi| {abs(pv.value)} <= err {pv.err}")
            if not checks.above_error(av, aerr):
                problems.append(f"point {k}: |azy| {abs(av)} <= err {aerr}")
            digits.setdefault(k, checks.lambda_digits(lam, precision))
        wall = time.perf_counter() - start
        if wall >= seconds:
            break
    import resource
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return times, wall, peak_kb, failed, problems, list(digits.values())


def _oracle_problems(taus, precision):
    """Compare the ten even theta constants at a few points with the
    direct-sum oracle."""
    import checks
    from azy5.chars import EVEN_CHARS
    from azy5.theta import theta_constant, truncation_radius
    eps, hiprec = EPS[precision], precision == "hiprec"
    problems = []
    for tau in _subset(taus, ORACLE_POINTS):
        radius = truncation_radius(tau, eps)
        for m in EVEN_CHARS:
            tv = theta_constant(m, tau, eps, hiprec)
            ov, allowance = checks.oracle_theta(m, tau.mat, precision, radius)
            if not checks.theta_ok(tv.value, tv.err, ov, allowance):
                problems.append(f"theta {m} at lam_min {tau.lam_min:.3f}: "
                                f"{tv.value} vs oracle {complex(ov)}, err {tv.err:.2e} "
                                f"+ allowance {allowance:.2e}")
    return problems


# --- verify-double ops ---------------------------------------------------


def _run_child(argv, stderr_path, timeout):
    """Run argv to completion; returns (exit code, wall seconds, peak RSS
    in KB of that child).  Polls, so the child's own rusage is kept."""
    import subprocess
    with open(stderr_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - t0 > timeout:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def _verify_ops(tr, mats, seconds):
    """Back-to-back `azy5 verify --tau FILE --seed S` processes until
    `seconds` have elapsed."""
    import checks
    import points
    os.makedirs(OUT_DIR, exist_ok=True)
    times, rss, problems, digits = [], [], [], []
    failed = 0
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        tau_path = os.path.join(tmp, "tau.json")
        report_path = os.path.join(tmp, "report.json")
        stderr_path = os.path.join(tmp, "stderr.txt")
        with open(tau_path, "w") as fh:
            json.dump([points.to_json(m) for m in mats], fh)
        argv = [sys.executable, "-m", "azy5.cli", "verify", "--tau", tau_path,
                "--seed", str(VERIFY_SEED), "--out", report_path]
        start = time.perf_counter()
        k = 0
        while True:
            if os.path.exists(report_path):
                os.remove(report_path)
            with tr.span("op", op=k):
                code, wall, maxrss = _run_child(argv, stderr_path, VERIFY_TIMEOUT_S)
            k += 1
            if not os.path.exists(report_path):
                failed += 1
                with open(stderr_path) as fh:
                    problems.append(f"verify exit {code}, no report: {fh.read()[-500:]}")
            else:
                times.append(wall)
                rss.append(maxrss)
                with open(report_path) as fh:
                    report = json.load(fh)
                if code != 0:
                    problems.append(f"verify exit status {code}")
                problems.extend(checks.report_problems(report))
                lam = report.get("payload", {}).get("lambda")
                if lam is not None:
                    digits.append(checks.lambda_digits(complex(*lam), "double"))
            wall_total = time.perf_counter() - start
            if wall_total >= seconds:
                break
    peak = statistics.median(rss) if rss else 0
    return times, wall_total, peak, failed, problems, digits


# --- traced layer pass ---------------------------------------------------


def _layer_pass(tr, taus, precision):
    """Spans around single public calls of each layer, at a few points of
    the workload's set; double or hiprec in a span name fixes the
    precision, otherwise the workload's precision is used."""
    from azy5.chars import EVEN_CHARS
    from azy5.construction import phi, phi_gamma
    from azy5.forms import azy_eval, p2
    from azy5.symplectic import PRINCIPAL2, THETA0_2, act_tau, coset_reps
    from azy5.theta import (MPRIME_ORDER, theta_all_even, theta_constant,
                            theta_second_order)
    eps, hiprec = EPS[precision], precision == "hiprec"
    reps = coset_reps(THETA0_2).reps
    gamma_max = []
    for i, tau in enumerate(_subset(taus, LAYER_POINTS)):
        k = f"layer-{i}"
        for m in EVEN_CHARS:
            with tr.span("theta.series_double", op=k):
                theta_constant(m, tau)
            with tr.span("theta.series_hiprec", op=k):
                theta_constant(m, tau, EPS["hiprec"], True)
        worst = min(reps, key=lambda g: act_tau(g, tau).lam_min)
        tg = act_tau(worst, tau, True)
        for mpv in MPRIME_ORDER:
            with tr.span("theta.second_order_hiprec_illcond", op=k):
                theta_second_order(mpv, tg, EPS["hiprec"], True)
        with tr.span("theta.all_even", op=k):
            theta_all_even(tau, eps, hiprec)
        with tr.span("forms.azy_eval", op=k):
            azy_eval(tau, eps, hiprec)
        with tr.span("forms.p2", op=k):
            p2(tau, eps, hiprec)
        with tr.span("symplectic.coset_reps_theta0", op=k):
            coset_reps(THETA0_2)
        with tr.span("symplectic.coset_reps_principal", op=k):
            coset_reps(PRINCIPAL2)
        for g in reps:
            with tr.span("symplectic.act_tau", op=k):
                act_tau(g, tau, hiprec)
        for g in reps:
            with tr.span("construction.phi_gamma", op=k):
                phi_gamma(g, tau, eps, hiprec)
        gamma_max.append(max(tr.durations("construction.phi_gamma", op=k)))
        with tr.span("construction.phi", op=k):
            phi(tau, eps, hiprec)
    names = ("theta.series_double", "theta.series_hiprec",
             "theta.second_order_hiprec_illcond", "theta.all_even",
             "forms.azy_eval", "forms.p2", "symplectic.coset_reps_theta0",
             "symplectic.coset_reps_principal", "symplectic.act_tau",
             "construction.phi_gamma", "construction.phi")
    out = {name + "_s": statistics.median(tr.durations(name)) for name in names}
    out["construction.phi_gamma_max_s"] = statistics.median(gamma_max)
    return out


def cmd_run(args):
    from azy5.siegel import SiegelPoint
    workload, precision = args.workload, WORKLOADS[args.workload][2]
    tr = Tracer() if args.trace else NoTracer()
    mats = _point_set(workload, args.seed)
    if workload == "verify-double":
        res = _verify_ops(tr, mats, args.seconds)
        taus = None
    else:
        from azy5.forms import azy_terms
        from azy5.symplectic import THETA0_2, coset_reps
        azy_terms()
        coset_reps(THETA0_2)
        taus = [SiegelPoint(m) for m in mats]
        res = _inprocess_ops(tr, taus, precision, args.seconds)
    times, wall, peak_kb, failed, problems, digits = res
    out = {
        "attempted": len(times) + failed,
        "failed": failed,
        "op_p50_s": statistics.median(times) if times else None,
        "throughput_ops_s": len(times) / wall,
        "lambda_digits": statistics.median(digits) if digits else None,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    if taus is not None:
        problems += _oracle_problems(taus, precision)
    if args.trace:
        if taus is None:
            taus = [SiegelPoint(m) for m in mats]
        out["layers"] = _layer_pass(tr, taus, precision)
        out["layers"]["trace.op_p50_s"] = statistics.median(tr.durations("op"))
        os.makedirs(OUT_DIR, exist_ok=True)
        tr.write(os.path.join(OUT_DIR, f"trace-{workload}-{args.seed}.json"))
    out["problems"] = problems
    return out


# --- fresh-process probes for the traced run -----------------------------


def cmd_geometry(args):
    from azy5.chars import even_quadruples
    from azy5.geometry import all_tetrahedra, f_m, tetrahedron
    from azy5.siegel import SiegelPoint
    tau = SiegelPoint(_point_set("verify-double", args.seed)[0])
    t0 = time.perf_counter()
    all_tetrahedra(seed=0)
    t1 = time.perf_counter()
    quad = frozenset(sorted(even_quadruples("plus"))[0])
    f_m(quad, tau)
    t2 = time.perf_counter()
    warm = []
    for _ in range(5):
        s = time.perf_counter()
        f_m(quad, tau)
        warm.append(time.perf_counter() - s)
    return {
        "geometry.all_tetrahedra_cold_s": t1 - t0,
        "geometry.f_m_first_s": t2 - t1,
        "geometry.f_m_s": statistics.median(warm),
        "geometry.tetrahedron_solves": tetrahedron.cache_info().misses,
    }


def cmd_stages(args):
    """One in-process `azy5 verify --tau FILE --seed S` on the verify-double
    points of the benchmark seed, with a timer around every call that the
    command makes to the functions in VERIFY_STAGES.  `rest` is the rest of
    the command's wall time.  The stages thus follow the command itself; a
    stage function that it no longer has or no longer calls is reported as
    a problem, since its figure would then mean nothing."""
    import azy5.cli as cli
    import checks
    import points
    spent = dict.fromkeys(VERIFY_STAGES, 0.0)
    calls = dict.fromkeys(VERIFY_STAGES, 0)
    problems = []

    def timed(stage, fn):
        def wrapper(*a, **kw):
            t0 = time.perf_counter()
            try:
                return fn(*a, **kw)
            finally:
                spent[stage] += time.perf_counter() - t0
                calls[stage] += 1
        return wrapper

    for stage, name in VERIFY_STAGES.items():
        if hasattr(cli, name):
            setattr(cli, name, timed(stage, getattr(cli, name)))
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        tau_path = os.path.join(tmp, "tau.json")
        report_path = os.path.join(tmp, "report.json")
        with open(tau_path, "w") as fh:
            json.dump([points.to_json(m) for m in _point_set("verify-double", args.seed)], fh)
        argv = ["verify", "--tau", tau_path, "--seed", str(VERIFY_SEED), "--out", report_path]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        total = time.perf_counter() - t0
        if os.path.exists(report_path):
            with open(report_path) as fh:
                problems.extend(checks.report_problems(json.load(fh)))
        else:
            problems.append(f"in-process verify exited {code}, no report")
    for stage, name in VERIFY_STAGES.items():
        if not calls[stage]:
            problems.append(f"azy5 verify no longer calls {name}: "
                            f"cli.verify.{stage}_s is not its stage time")
    out = {f"cli.verify.{k}_s": v for k, v in spent.items()}
    out["cli.verify.rest_s"] = total - sum(spent.values())
    out["problems"] = problems
    return out


def main(argv=None):
    top = argparse.ArgumentParser(prog="worker.py")
    sub = top.add_subparsers(dest="cmd", required=True)
    sub.add_parser("setup").set_defaults(fn=cmd_setup)
    p = sub.add_parser("run")
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.set_defaults(fn=cmd_run)
    for name, fn in (("geometry", cmd_geometry), ("stages", cmd_stages)):
        p = sub.add_parser(name)
        p.add_argument("--seed", type=int, required=True)
        p.set_defaults(fn=fn)
    args = top.parse_args(argv)
    result = args.fn(args)
    import azy5
    src = os.path.join(ROOT, "src")
    if os.path.dirname(os.path.dirname(os.path.abspath(azy5.__file__))) != src:
        raise SystemExit(f"azy5 imported from {azy5.__file__}, not from {src}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
