"""Command-line verification front end.

Every subcommand runs a self-contained check campaign, prints a
human-readable PASS/FAIL summary (with wall-clock timing) to stdout, and
optionally writes the structured report as JSON via --out.  Each
subcommand takes only the campaign options it reads.  Reports are
byte-identical for a fixed configuration: all sampling is seeded and
timings never enter the file.

Exit status: 0 when every check passes, 1 when any check fails or a
computation errors out, 2 for usage/configuration errors.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time

from .chars import (EVEN_CHARS, ODD_CHARS, even_quadruples, even_triples,
                    format_char)
from .construction import (AZY_NORMALIZATION, estimate_lambda,
                           geometric_crosscheck, phi_modularity_error,
                           rep_independence_error)
from .forms import (azy, chi5_determinant, chi5_product, chi10, chi12,
                    mu_ratio, p2)
from .geometry import addition_residuals, all_tetrahedra
from .reports import EvalReport
from .siegel import SiegelPoint, sample_taus
from .symplectic import (GENERATORS, PRINCIPAL2, THETA0_2, coset_reps,
                         random_word, FULL)
from .theta import kappa4, kappa_probes

_SUBGROUPS = {"theta0-2": (THETA0_2, 15), "principal-2": (PRINCIPAL2, 720)}
_FORMS = {
    "chi5": ("product of the ten even theta constants", chi5_product),
    "chi10": ("square of the even-theta product", chi10),
    "p2": ("product of the four second-order constants", p2),
    "chi12": ("signed sum of the fifteen six-term fourth-power monomials", chi12),
    "azy": (AZY_NORMALIZATION, azy),
}
# Where `forms` evaluates without --tau: X + iY with X = [[0.13, -0.21],
# [-0.21, 0.37]] and Y = [[1, 0.3], [0.3, 0.8]], off the loci where chi5,
# chi10 and the weight-30 sum vanish (such as tau12 = 0 or tau11 = tau22).
_FORMS_TAU = SiegelPoint([[0.13 + 1j, -0.21 + 0.3j], [-0.21 + 0.3j, 0.37 + 0.8j]])


def _load_taus(args):
    """Sample points: the --tau file (one point or a list) when given,
    otherwise `samples` seeded generic points."""
    if args.tau:
        with open(args.tau) as fh:
            data = json.load(fh)
        items = data if isinstance(data, list) else [data]
        if not items:
            raise ValueError(f"--tau file {args.tau} holds no points")
        return [SiegelPoint.from_json(d) for d in items]
    return sample_taus(args.seed, args.samples)


# The campaign options, in report and help order.
_OPTIONS = {
    "eps": dict(type=float, default=None,
                help="bound on the truncation part of each theta value's err "
                     "(default 1e-12, or 1e-30 with --hiprec)"),
    "seed": dict(type=int, default=0),
    "samples": dict(type=int, default=5),
    "hiprec": dict(action="store_true",
                   help="evaluate through the arbitrary-precision path"),
    "tau": dict(metavar="PATH",
                help="JSON file with one point or a list of points "
                     '({"g":2,"entries":[[[re,im],...]]}); overrides sampling'),
    "out": dict(metavar="PATH", help="write the JSON report here"),
}


def _config_echo(args, command):
    """The command and the options it has, --out aside."""
    config = {"command": command}
    config.update((k, getattr(args, k)) for k in _OPTIONS
                  if k != "out" and hasattr(args, k))
    return config


def cmd_orbits(args):
    rep = EvalReport("orbits", _config_echo(args, "orbits"))
    counts = {
        "even characteristics": (len(EVEN_CHARS), 10),
        "odd characteristics": (len(ODD_CHARS), 6),
        "minus triples": (len(even_triples("minus")), 60),
        "plus triples": (len(even_triples("plus")), 60),
        "minus quadruples": (len(even_quadruples("minus")), 15),
        "star quadruples": (len(even_quadruples("star")), 180),
        "plus quadruples": (len(even_quadruples("plus")), 15),
    }
    for name, (got, want) in counts.items():
        rep.add_check(name, abs(got - want), 0)
    rep.payload["cardinalities"] = {k: v[0] for k, v in counts.items()}
    rep.payload["even"] = [format_char(c) for c in EVEN_CHARS]
    rep.payload["odd"] = [format_char(c) for c in ODD_CHARS]
    return rep


def cmd_cosets(args):
    rep = EvalReport("cosets", _config_echo(args, "cosets"))
    rep.config["subgroup"] = args.subgroup
    spec, expected = _SUBGROUPS[args.subgroup]
    system = coset_reps(spec)
    rep.add_check(f"index of {spec}", abs(system.index - expected), 0)
    rep.payload["index"] = system.index
    rep.payload["words"] = ["".join("JABC"[i] for i in w) or "1" for w in system.words]
    if spec == THETA0_2:
        rep.payload["representatives"] = [g.to_rows() for g in system.reps]
    if args.generators:
        rep.payload["generators"] = {
            "J": GENERATORS[0].to_rows(),
            "A": GENERATORS[1].to_rows(),
            "B": GENERATORS[2].to_rows(),
            "C": GENERATORS[3].to_rows(),
        }
    return rep


def cmd_verify_addition(args):
    rep = EvalReport("verify-addition", _config_echo(args, "verify-addition"))
    taus = _load_taus(args)
    residuals = [addition_residuals(t, args.eps, args.hiprec) for t in taus]
    for m in EVEN_CHARS:
        rep.add_check(f"addition {format_char(m)}", max(r[m] for r in residuals), 1e-10)
    rep.payload["points"] = [t.to_json() for t in taus]
    return rep


def _kappa_worst(words, eps):
    """Over the words: the worst spread of kappa_probes, |kappa^4 - kappa4|
    of its first probe, and ||kappa| - 1| of any probe."""
    spread = k4 = unimodular = 0.0
    for g in words:
        vals = list(kappa_probes(g, eps=eps).values())
        base = vals[0]
        spread = max(spread, max(abs(v - base) for v in vals))
        k4 = max(k4, abs(base ** 4 - kappa4(g)))
        unimodular = max(unimodular, max(abs(abs(v) - 1) for v in vals))
    return spread, k4, unimodular


def cmd_verify_transform(args):
    rep = EvalReport("verify-transform", _config_echo(args, "verify-transform"))
    rng = random.Random(args.seed)
    words = [random_word(FULL, rng, 5) for _ in range(20)]
    spread, k4, unimodular = _kappa_worst(words, args.eps)
    rep.add_check("kappa probe agreement (20 words)", spread, 1e-8)
    rep.add_check("kappa^4 = exp(pi i Tr(b^T c))", max(k4, unimodular), 1e-8)
    rep.payload["words"] = [g.to_rows() for g in words]
    return rep


def _check_faces_distinct(rep, tets):
    faces = {f for t in tets.values() for f in t.faces}
    rep.add_check("tetrahedra faces pairwise distinct", abs(60 - len(faces)), 0)


def cmd_geometry(args):
    rep = EvalReport("geometry", _config_echo(args, "geometry"))
    tets = all_tetrahedra()
    _check_faces_distinct(rep, tets)
    rep.payload["tetrahedra"] = [{
        "quadruple": [format_char(c) for c in sorted(quad)],
        "complement": [format_char(c) for c in t.complement],
        "vertices": [list(v) for v in t.vertices],
        "faces": [list(f) for f in t.faces],
    } for quad, t in sorted(tets.items(), key=lambda kv: sorted(kv[0]))]
    return rep


def cmd_forms_eval(args):
    rep = EvalReport("forms-eval", _config_echo(args, "forms-eval"))
    rep.config["form"] = args.form
    taus = _load_taus(args) if args.tau else [_FORMS_TAU]
    results = []
    worst = 0.0
    for t in taus:
        if args.form == "chi5det":
            v = chi5_determinant(t, args.eps, args.hiprec)
            crude = chi5_determinant(t, args.eps * 100, args.hiprec)
            err = abs(v - crude) + args.eps * abs(v)
            note = ("4x4 determinant of second-order constants and gradients; "
                    "bound is observed truncation sensitivity plus an eps relative floor")
        else:
            note, fn = _FORMS[args.form]
            tv = fn(t, args.eps, args.hiprec)
            v, err = tv.value, tv.err
        worst = max(worst, err / abs(v) if v else math.inf)
        results.append({"tau": t.to_json(), "value": complex(v), "errorBound": float(err)})
    rep.payload["form"] = args.form
    rep.payload["normalization"] = note
    rep.payload["tailTarget"] = args.eps
    rep.payload["values"] = results
    rep.add_check(f"{args.form} error bound within target", worst, max(args.eps * 1e3, 1e-9))
    return rep


def cmd_azy_lambda(args):
    rep = EvalReport("azy-lambda", _config_echo(args, "azy-lambda"))
    est = estimate_lambda(seed=args.seed, samples=args.samples, eps=args.eps,
                          hiprec=args.hiprec)
    tol = 1e-20 if args.hiprec else 1e-5
    rep.add_check("lambda ratio spread", est.spread, tol)
    rep.payload["lambda"] = complex(est.value)
    rep.payload["ratios"] = [complex(r) for r in est.ratios]
    rep.payload["spread"] = est.spread
    rep.payload["normalization"] = est.normalization
    return rep


def cmd_azy_verify(args):
    rep = EvalReport("azy-verify", _config_echo(args, "azy-verify"))
    eps, hiprec = args.eps, args.hiprec
    taus = _load_taus(args)
    if len(taus) < 2:
        raise ValueError("the geometric crosscheck per-representative and chi5 determinant "
                         "ratio constancy checks compare points: --tau needs at least two")

    rep.add_check("even/odd cardinalities",
                  abs(len(EVEN_CHARS) - 10) + abs(len(ODD_CHARS) - 6), 0)
    rep.add_check("quadruple orbit sizes",
                  abs(len(even_quadruples("plus")) - 15)
                  + abs(len(even_quadruples("star")) - 180)
                  + abs(len(even_quadruples("minus")) - 15), 0)

    system = coset_reps(THETA0_2)
    rep.add_check("coset index 15", abs(system.index - 15), 0)
    rep.payload["cosetWords"] = ["".join("JABC"[i] for i in w) or "1"
                                 for w in system.words]

    worst = max(r for t in taus[:3] for r in addition_residuals(t, eps, hiprec).values())
    rep.add_check("addition formulas", worst, 1e-10)

    rng = random.Random(args.seed)
    words = [random_word(FULL, rng, 5) for _ in range(10)]
    rep.add_check("kappa^4 identity (10 words)", _kappa_worst(words, eps)[1], 1e-8)

    _check_faces_distinct(rep, all_tetrahedra())

    worst = max(rep_independence_error(t, eps, hiprec) for t in taus)
    rep.add_check("representative independence", worst, 1e-9)

    tol = 1e-15 if hiprec else 1e-6
    try:
        errs = [phi_modularity_error(t, eps, hiprec) for t in taus]
    except ArithmeticError as exc:  # phi is 0 at a point, as on tau11 = tau22
        errs = [(math.inf,) * 4]
        rep.payload["modularityError"] = str(exc)
    for i, name in enumerate("JABC"):
        rep.add_check(f"phi modularity generator {name}", max(e[i] for e in errs), tol)

    est = estimate_lambda(seed=args.seed, samples=args.samples, eps=eps, hiprec=hiprec)
    tol = 1e-20 if hiprec else 1e-5
    rep.add_check("lambda ratio spread", est.spread, tol)
    rep.payload["lambda"] = complex(est.value)
    rep.payload["lambdaRatios"] = [complex(r) for r in est.ratios]
    rep.payload["lambdaSpread"] = est.spread
    rep.payload["normalization"] = est.normalization

    try:
        per_rep, product_error = geometric_crosscheck(taus, eps, hiprec)
        spread = max(s for _, s in per_rep.values())
    except ArithmeticError as exc:  # the median ratio is 0, as at two points on tau11 = tau22
        spread = product_error = math.inf
        rep.payload["crosscheckError"] = str(exc)
    rep.add_check("geometric crosscheck per-representative", spread, 1e-5)
    rep.add_check("geometric crosscheck product", product_error, 1e-5)

    try:
        mus = [mu_ratio(t, eps, hiprec) for t in taus]
    except ArithmeticError as exc:
        rep.add_check("chi5 determinant ratio constancy", math.inf, 1e-6)
        rep.payload["muError"] = str(exc)
        return rep
    base = mus[0]
    rep.add_check("chi5 determinant ratio constancy",
                  max(abs(m - base) for m in mus) / abs(base), 1e-6)
    rep.payload["mu"] = complex(base)
    return rep


def _build_parser():
    top = argparse.ArgumentParser(
        prog="azy5",
        description="Verification CLI for the tetrahedral construction of the "
                    "weight-30 Siegel modular form with character.")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, options, aliases=(), **kw):
        p = sub.add_parser(name, aliases=list(aliases), **kw)
        for opt in _OPTIONS:
            if opt in options:
                p.add_argument(f"--{opt}", **_OPTIONS[opt])
        p.set_defaults(fn=fn)
        return p

    add("orbits", cmd_orbits, {"out"}, help="characteristic orbit cardinalities")
    p = add("cosets", cmd_cosets, {"out"}, help="coset enumeration and index checks")
    p.add_argument("--subgroup", choices=sorted(_SUBGROUPS), default="theta0-2")
    p.add_argument("--generators", action="store_true",
                   help="include the fixed generator matrices in the report")
    add("verify-addition", cmd_verify_addition, _OPTIONS,
        help="the ten quadric addition identities at sample points")
    add("verify-transform", cmd_verify_transform, {"eps", "seed", "out"},
        help="theta multiplier probes and the exact kappa^4 identity")
    add("geometry", cmd_geometry, {"out"},
        help="the fifteen exact tetrahedra and geometry checks")
    add("azy-verify", cmd_azy_verify, _OPTIONS, aliases=["verify"],
        help="full verification pipeline")
    add("azy-lambda", cmd_azy_lambda, {"eps", "seed", "samples", "hiprec", "out"},
        aliases=["lambda"], help="the proportionality-constant experiment alone")
    p = add("forms-eval", cmd_forms_eval, {"eps", "hiprec", "tau", "out"},
            aliases=["forms"], help="evaluate a named form at sample points")
    p.add_argument("--form", required=True,
                   choices=sorted(list(_FORMS) + ["chi5det"]))
    return top


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "eps"):
        if args.eps is None:
            args.eps = 1e-30 if getattr(args, "hiprec", False) else 1e-12
        if not 1e-30 <= args.eps < math.inf:
            parser.error("--eps must be finite and at least 1e-30")
    if getattr(args, "samples", 2) < 2:
        parser.error("--samples must be at least 2")
    if getattr(args, "seed", 0) < 0:
        parser.error("--seed must be a non-negative integer")
    t0 = time.perf_counter()
    try:
        rep = args.fn(args)
    except Exception as exc:  # internal check failure: exit 1, not a traceback
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - t0
    for line in rep.summary_lines():
        print(line)
    print(f"elapsed: {elapsed:.2f} s (timings are not part of the report file)")
    if args.out:
        rep.write(args.out)
        print(f"report written to {args.out}")
    return 0 if rep.verdict == "PASS" else 1


if __name__ == "__main__":
    sys.exit(main())
