"""Acceptance gate: the eleven package-level criteria, each with its stated
tolerance and runtime budget.  Every test appends one PASS/FAIL line to
_RESULTS (echoed in the terminal summary) before asserting, so a red run
still shows the full scoreboard."""

import random
import time

import numpy as np

import azy5.chars as chars
import azy5.construction as construction
from azy5.chars import (EVEN_CHARS, M0, ODD_CHARS, act_set, even_quadruples,
                        even_triples, psi_p)
from azy5.forms import face_product, mu_ratio, p2
from azy5.geometry import (addition_residuals, all_tetrahedra, quadric_value,
                            tetrahedron)
from azy5.siegel import SiegelPoint, sample_taus
from azy5.symplectic import (E11, FULL, GENERATORS, PRINCIPAL2, THETA0_2,
                             act_tau, coset_reps, random_word, translation)
from azy5.theta import (MPRIME_ORDER, ThetaValue, kappa4, kappa_numeric,
                        theta_constant, theta_gradient_vector, theta_second_order)
from reference import compose_perm, in_subgroup

_RESULTS = []


def _record(num, label, ok, detail, extra=None):
    verdict = "PASS" if ok else "FAIL"
    _RESULTS.append(f"acceptance {num:2d} {label:<38} {verdict} ({detail})")
    if extra:
        _RESULTS.append(f"              {extra}")
    assert ok, f"criterion {num}: {label}: {detail}"


def test_criterion_01_cardinalities():
    got = (len(EVEN_CHARS), len(ODD_CHARS),
           len(even_triples("minus")), len(even_triples("plus")),
           len(even_quadruples("minus")), len(even_quadruples("plus")),
           len(even_quadruples("star")))
    want = (10, 6, 60, 60, 15, 15, 180)
    _record(1, "orbit cardinalities", got == want, f"counts {got}, expected {want}")


def test_criterion_02_group_structure():
    t0 = time.perf_counter()
    gens = [psi_p(g) for g in GENERATORS]
    image = {tuple(range(6))}
    frontier = list(image)
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                r = compose_perm(q, p)
                if r not in image:
                    image.add(r)
                    nxt.append(r)
        frontier = nxt
    order_ok = len(image) == 720
    idx15 = coset_reps(THETA0_2).index
    idx720 = coset_reps(PRINCIPAL2).index
    rng = random.Random(2024)
    mismatches = 0
    for i in range(200):
        spec = FULL if i % 2 else THETA0_2
        g = random_word(spec, rng, 6)
        stab = act_set(g, M0) == M0
        if stab != in_subgroup(g, THETA0_2):
            mismatches += 1
    dt = time.perf_counter() - t0
    ok = order_ok and idx15 == 15 and idx720 == 720 and mismatches == 0 and dt < 10
    _record(2, "group structure and stabilizer",
            ok, f"image order {len(image)}, indices {idx15}/{idx720}, "
                f"{mismatches} stabilizer mismatches in 200 words, {dt:.1f}s")


def test_criterion_03_addition_formulas():
    t0 = time.perf_counter()
    taus = sample_taus(seed=2, count=20)
    worst = max(r for tau in taus
                for r in addition_residuals(tau, eps=1e-12).values())
    dt = time.perf_counter() - t0
    _record(3, "addition formulas (10 x 20 points)",
            worst < 1e-10 and dt < 5, f"worst residual {worst:.2e}, tol 1e-10, {dt:.1f}s")


def test_criterion_04_tetrahedra():
    t0 = time.perf_counter()
    tets = all_tetrahedra()
    worst = max(abs(quadric_value(n, v)) for t in tets.values()
                for n in t.complement for v in t.vertices)
    counts_ok = all(len(t.vertices) == 4 for t in tets.values())
    T0 = tetrahedron(M0)
    standard = {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)}
    vert_ok = set(T0.vertices) == standard
    face_ok = set(T0.faces) == standard
    dt = time.perf_counter() - t0
    ok = (len(tets) == 15 and counts_ok and worst == 0
          and vert_ok and face_ok and dt < 30)
    _record(4, "15 tetrahedra, standard vertices",
            ok, f"worst quadric residual {worst:.2e}, standard vertices "
                f"{'exact' if vert_ok else 'WRONG'}, coordinate faces "
                f"{'exact' if face_ok else 'WRONG'}, {dt:.1f}s")


def test_criterion_05_f0_is_p2_and_sign_flip():
    T0 = tetrahedron(M0)
    rng = np.random.default_rng(8)
    sym_err = 0.0
    for _ in range(5):
        x = rng.normal(size=4) + 1j * rng.normal(size=4)
        f0 = face_product(T0.faces, [ThetaValue(v, 0.0) for v in x], False).value
        sym_err = max(sym_err, abs(f0 - x[0] * x[1] * x[2] * x[3]))
    flip = 0.0
    for tau in sample_taus(seed=3, count=5):
        a = p2(act_tau(translation(E11), tau)).value
        b = p2(tau).value
        flip = max(flip, abs(a + b) / abs(b))
    ok = sym_err < 1e-9 and flip < 1e-9
    _record(5, "coordinate form identity and sign flip",
            ok, f"monomial deviation {sym_err:.2e}, sign-flip residual {flip:.2e}, tol 1e-9")


def test_criterion_06_representative_independence():
    worst = max(construction.rep_independence_error(tau)
                for tau in sample_taus(seed=5, count=3))
    _record(6, "P2 multiplier on stabilizer generators",
            worst < 1e-9, f"worst over 9 generators x 3 points {worst:.2e}, tol 1e-9")


def test_criterion_07_phi_modularity_double():
    taus = sample_taus(seed=0, count=5)
    worst = max(e for tau in taus for e in construction.phi_modularity_error(tau))
    _record(7, "phi modularity, double precision",
            worst < 1e-6, f"worst over 4 generators x 5 points {worst:.2e}, tol 1e-6")


def test_criterion_07_phi_modularity_hiprec():
    taus = sample_taus(seed=0, count=5)
    worst = max(e for tau in taus
                for e in construction.phi_modularity_error(tau, eps=1e-30, hiprec=True))
    _record(7, "phi modularity, high precision",
            worst < 1e-15, f"worst over 4 generators x 5 points {worst:.2e}, tol 1e-15")


def test_criterion_08_lambda_double():
    t0 = time.perf_counter()
    est = construction.estimate_lambda(seed=0, samples=5)
    dt = time.perf_counter() - t0
    ok = est.spread < 1e-5 and dt < 300
    _record(8, "proportionality constant, double",
            ok, f"spread {est.spread:.2e} (tol 1e-5), lambda {complex(est.value):.6e}, {dt:.1f}s",
            extra=f"normalization: {est.normalization}")


def test_criterion_08_lambda_hiprec():
    t0 = time.perf_counter()
    est = construction.estimate_lambda(seed=0, samples=5, eps=1e-30, hiprec=True)
    dt = time.perf_counter() - t0
    ok = est.spread < 1e-20 and dt < 1800
    _record(8, "proportionality constant, high precision",
            ok, f"spread {est.spread:.2e} (tol 1e-20), lambda {complex(est.value):.12e}, {dt:.1f}s")


def test_criterion_09_geometric_crosscheck():
    per_rep, _ = construction.geometric_crosscheck(sample_taus(seed=7, count=3))
    worst = max(s for _, s in per_rep.values())
    ok = len(per_rep) == 15 and worst < 1e-5
    _record(9, "face-form/factor constancy, 15 reps",
            ok, f"worst per-representative spread {worst:.2e}, tol 1e-5")


def test_criterion_10_mu_constancy():
    taus = sample_taus(seed=9, count=5)
    mus = [mu_ratio(t) for t in taus]
    worst = max(abs(m - mus[0]) for m in mus) / abs(mus[0])
    _record(10, "determinant ratio constancy",
            worst < 1e-6, f"relative spread {worst:.2e} over 5 points, tol 1e-6, "
                          f"mu {mus[0]:.6e}")


def test_criterion_11_numerical_hygiene(brute_g1):
    tau = sample_taus(seed=13, count=1)[0]
    h = 1e-5
    basis = (np.array([[1, 0], [0, 0]]), np.array([[0, 1], [1, 0]]),
             np.array([[0, 0], [0, 1]]))
    grad_err = 0.0
    for mpv, grad in zip(MPRIME_ORDER, theta_gradient_vector(tau, 1e-12, False)):
        for k, B in enumerate(basis):
            fd = (theta_second_order(mpv, SiegelPoint(np.array(tau.mat) + h * B), eps=1e-14).value
                  - theta_second_order(mpv, SiegelPoint(np.array(tau.mat) - h * B), eps=1e-14).value) / (2 * h)
            grad_err = max(grad_err, abs(grad[k] - fd) / max(1.0, abs(fd)))
    t1, t2 = 1.7j, 0.4 + 1.2j
    diag = SiegelPoint([[t1, 0], [0, t2]])
    fact_err = 0.0
    for m in EVEN_CHARS:
        (a1, a2), (b1, b2) = chars.mprime_of(m), chars.mdbl_of(m)
        lib = theta_constant(m, diag).value
        ref = brute_g1(a1, b1, t1) * brute_g1(a2, b2, t2)
        fact_err = max(fact_err, abs(lib - ref))
    rng = random.Random(77)
    kap_err = 0.0
    for _ in range(20):
        g = random_word(FULL, rng, 5)
        kap_err = max(kap_err, abs(kappa_numeric(g) ** 4 - kappa4(g)))
    ok = grad_err < 1e-6 and fact_err < 1e-10 and kap_err < 1e-8
    _record(11, "gradients, factorization, kappa^4",
            ok, f"gradient-vs-FD {grad_err:.2e} (tol 1e-6), diagonal factorization "
                f"{fact_err:.2e} (tol 1e-10), kappa^4 {kap_err:.2e} (tol 1e-8)")
