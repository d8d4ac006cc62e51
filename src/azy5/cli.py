"""Command-line verification front end.

Every subcommand runs a self-contained check campaign, prints a
human-readable PASS/FAIL summary (with wall-clock timing) to stdout, and
optionally writes the structured report as JSON via --out.  Reports are
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
from .geometry import addition_residual, all_tetrahedra
from .reports import EvalReport
from .siegel import SiegelPoint, sample_taus
from .symplectic import (ETA0, GENERATORS, PRINCIPAL2, THETA0_2, act_tau,
                         coset_reps, random_word, FULL)
from .theta import kappa4, kappa_probes

_SUBGROUPS = {"theta0-2": (THETA0_2, 15), "principal-2": (PRINCIPAL2, 720)}
_FORMS = {
    "chi5": ("product of the ten even theta constants", chi5_product),
    "chi10": ("square of the even-theta product", chi10),
    "p2": ("product of the four second-order constants", p2),
    "chi12": ("signed sum of the fifteen six-term fourth-power monomials", chi12),
    "azy": (AZY_NORMALIZATION, azy),
}


def _load_taus(args):
    """Sample points: the --tau file (one point or a list) when given,
    otherwise `samples` seeded generic points."""
    if args.tau:
        with open(args.tau) as fh:
            data = json.load(fh)
        items = data if isinstance(data, list) else [data]
        return [SiegelPoint.from_json(d) for d in items]
    return sample_taus(args.seed, args.samples)


def _config_echo(args, command):
    return {
        "command": command,
        "eps": args.eps,
        "seed": args.seed,
        "samples": args.samples,
        "hiprec": bool(args.hiprec),
        "tau": args.tau,
    }


def _matrix_rows(m):
    return [list(r) for r in m.to_rows()]


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
    rep.add_check(f"index of {spec.label()}", abs(system.index - expected), 0)
    rep.payload["index"] = system.index
    rep.payload["words"] = ["".join("JABC"[i] for i in w) or "1" for w in system.words]
    if spec == THETA0_2:
        rep.payload["representatives"] = [_matrix_rows(g) for g in system.reps]
    if args.generators:
        rep.payload["generators"] = {
            "J": _matrix_rows(GENERATORS[0]),
            "A": _matrix_rows(GENERATORS[1]),
            "B": _matrix_rows(GENERATORS[2]),
            "C": _matrix_rows(GENERATORS[3]),
        }
    return rep


def _addition_checks(rep, taus, eps, hiprec):
    for m in EVEN_CHARS:
        worst = max(addition_residual(m, tau, eps, hiprec) for tau in taus)
        rep.add_check(f"addition {format_char(m)}", worst, 1e-10)


def cmd_verify_addition(args):
    rep = EvalReport("verify-addition", _config_echo(args, "verify-addition"))
    taus = _load_taus(args)
    _addition_checks(rep, taus, args.eps, args.hiprec)
    rep.payload["points"] = [t.to_json() for t in taus]
    return rep


def cmd_verify_transform(args):
    rep = EvalReport("verify-transform", _config_echo(args, "verify-transform"))
    rng = random.Random(args.seed)
    words = [random_word(FULL, rng, 5) for _ in range(20)]
    worst_k4 = worst_spread = 0.0
    for g in words:
        probes = kappa_probes(g, eps=args.eps)
        vals = list(probes.values())
        base = vals[0]
        worst_spread = max(worst_spread,
                           max(abs(v - base) for v in vals))
        worst_k4 = max(worst_k4, abs(base ** 4 - kappa4(g)))
        worst_k4 = max(worst_k4, max(abs(abs(v) - 1) for v in vals))
    rep.add_check("kappa probe agreement (20 words)", worst_spread, 1e-8)
    rep.add_check("kappa^4 = exp(pi i Tr(b^T c))", worst_k4, 1e-8)
    rep.payload["words"] = [_matrix_rows(g) for g in words]
    return rep


def cmd_geometry(args):
    what = args.what or "tetrahedra"
    rep = EvalReport("geometry", _config_echo(args, "geometry"))
    rep.config["what"] = what
    if what == "verify-addition":
        taus = _load_taus(args)
        _addition_checks(rep, taus, args.eps, args.hiprec)
        return rep
    tets = all_tetrahedra()
    listing = []
    for quad in sorted(tets, key=lambda q: tuple(sorted(q))):
        t = tets[quad]
        label = "{" + " ".join(format_char(c) for c in sorted(quad)) + "}"
        rep.add_check(f"tetrahedron {label} residual", t.residual, 1e-8)
        rep.add_check(f"tetrahedron {label} vertex count", abs(len(t.vertices) - 4), 0)
        listing.append({
            "quadruple": [format_char(c) for c in sorted(quad)],
            "complement": [format_char(c) for c in t.complement],
            "vertices": [list(v) for v in t.vertices],
            "faces": [list(f) for f in t.faces],
            "residual": t.residual,
        })
    rep.payload["tetrahedra"] = listing
    return rep


def cmd_forms_eval(args):
    rep = EvalReport("forms-eval", _config_echo(args, "forms-eval"))
    rep.config["form"] = args.form
    taus = _load_taus(args) if args.tau else [SiegelPoint.scaled_identity(1j)]
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
        worst = max(worst, err / max(1.0, abs(v)))
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

    worst = max(addition_residual(m, t, eps, hiprec)
                for m in EVEN_CHARS for t in taus[:3])
    rep.add_check("addition formulas", worst, 1e-10)

    rng = random.Random(args.seed)
    worst = 0.0
    for _ in range(10):
        g = random_word(FULL, rng, 5)
        probes = kappa_probes(g, eps=eps)
        base = next(iter(probes.values()))
        worst = max(worst, abs(base ** 4 - kappa4(g)))
    rep.add_check("kappa^4 identity (10 words)", worst, 1e-8)

    tets = all_tetrahedra()
    rep.add_check("tetrahedra residuals", max(t.residual for t in tets.values()), 1e-8)

    worst = 0.0
    for t in taus:
        pv = p2(t, eps, hiprec)
        pf = p2(act_tau(ETA0, t, hiprec), eps, hiprec)
        worst = max(worst, abs(pf.value + pv.value) / abs(pv.value))
    rep.add_check("P2 sign flip under tau -> tau + E11", worst, 1e-9)

    worst = max(rep_independence_error(t, seed=args.seed, eps=eps, hiprec=hiprec)
                for t in taus[:3])
    rep.add_check("representative independence", worst, 1e-8)

    tol = 1e-15 if hiprec else 1e-6
    for i, g in enumerate(GENERATORS):
        worst = max(phi_modularity_error(g, t, eps, hiprec) for t in taus)
        rep.add_check(f"phi modularity generator {'JABC'[i]}", worst, tol)

    est = estimate_lambda(seed=args.seed, samples=args.samples, eps=eps, hiprec=hiprec)
    tol = 1e-20 if hiprec else 1e-5
    rep.add_check("lambda ratio spread", est.spread, tol)
    rep.payload["lambda"] = complex(est.value)
    rep.payload["lambdaRatios"] = [complex(r) for r in est.ratios]
    rep.payload["lambdaSpread"] = est.spread
    rep.payload["normalization"] = est.normalization

    per_rep, product_spread = geometric_crosscheck(taus, eps, hiprec)
    rep.add_check("geometric crosscheck per-representative",
                  max(s for _, s in per_rep.values()), 1e-5)
    rep.add_check("geometric crosscheck product", product_spread, 1e-5)

    mus = [mu_ratio(t, eps, hiprec) for t in taus]
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

    def add(name, fn, aliases=(), **kw):
        p = sub.add_parser(name, aliases=list(aliases), **kw)
        p.add_argument("--eps", type=float, default=None,
                       help="target absolute tail bound per theta value "
                            "(default 1e-12, or 1e-30 with --hiprec)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=5)
        p.add_argument("--hiprec", action="store_true",
                       help="evaluate through the arbitrary-precision path")
        p.add_argument("--tau", metavar="PATH",
                       help="JSON file with one point or a list of points "
                            '({"g":2,"entries":[[[re,im],...]]}); overrides sampling')
        p.add_argument("--out", metavar="PATH", help="write the JSON report here")
        p.set_defaults(fn=fn)
        return p

    add("orbits", cmd_orbits, help="characteristic orbit cardinalities")
    p = add("cosets", cmd_cosets, help="coset enumeration and index checks")
    p.add_argument("--subgroup", choices=sorted(_SUBGROUPS), default="theta0-2")
    p.add_argument("--generators", action="store_true",
                   help="include the fixed generator matrices in the report")
    add("verify-addition", cmd_verify_addition,
        help="the ten quadric addition identities at sample points")
    add("verify-transform", cmd_verify_transform,
        help="theta multiplier probes and the exact kappa^4 identity")
    p = add("geometry", cmd_geometry, help="the fifteen exact tetrahedra and geometry checks")
    p.add_argument("what", nargs="?", choices=["tetrahedra", "verify-addition"],
                   help="default: tetrahedra")
    add("azy-verify", cmd_azy_verify, aliases=["verify"],
        help="full verification pipeline")
    add("azy-lambda", cmd_azy_lambda, aliases=["lambda"],
        help="the proportionality-constant experiment alone")
    p = add("forms-eval", cmd_forms_eval, aliases=["forms"],
            help="evaluate a named form at sample points")
    p.add_argument("verb", nargs="?", choices=["eval"],
                   help="optional literal 'eval' token")
    p.add_argument("--form", required=True,
                   choices=sorted(list(_FORMS) + ["chi5det"]))
    return top


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.eps is None:
        args.eps = 1e-30 if args.hiprec else 1e-12
    if not 1e-30 <= args.eps < math.inf:
        parser.error("--eps must be finite and at least 1e-30")
    if args.samples < 1:
        parser.error("--samples must be at least 1")
    t0 = time.perf_counter()
    try:
        rep = args.fn(args)
    except Exception as exc:  # internal check failure: exit 1, not a traceback
        print(f"error: {exc}", file=sys.stderr)
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
