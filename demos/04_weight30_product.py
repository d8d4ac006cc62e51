#!/usr/bin/env python3
"""End of the pipeline: the weight-30 form.

phi is -2^-44 times the product of the 60 tetrahedron faces at the four
second-order constants Theta(tau): one theta evaluation at tau and 60
linear forms.  The script compares it with the independent definition,
phi_transversal, the product of the fifteen factors chi_P(gamma)
det(c tau+d)^-2 P2(gamma tau) over a transversal of the index-15
subgroup fixing the coordinate quadruple; checks that P2 has the
multiplier chi_P * pair_sign on the generators of that subgroup, which
makes the product independent of the transversal; measures the
modularity defect on the four group generators against one phi(tau);
and estimates the two constants of the story: lambda (phi against the
signed triple sum) and mu (the even-theta product against its
determinant expression)."""

import math

from azy5 import (estimate_lambda, mu_ratio, phi, phi_modularity_error,
                  phi_transversal, rep_independence_error, sample_taus)


def main():
    tau = sample_taus(seed=0, count=1)[0]
    pv = phi(tau)
    tv = phi_transversal(tau)
    print(f"phi(tau)             = {pv.value:+.12e}   (certified err <= {pv.err:.1e})")
    print(f"phi_transversal(tau) = {tv.value:+.12e}   (certified err <= {tv.err:.1e})")

    print("\nP2 multiplier defect |P2(eta tau) / (chi_P pair_sign det^2 P2(tau)) - 1|")
    print("on the nine generators of the subgroup fixing M0, worst:")
    print(f"  {rep_independence_error(tau):.2e}")

    print("\nmodularity defect |phi(g tau) / (chi_P det^30 phi(tau)) - 1|")
    print("on the four generators:")
    for name, err in zip("JABC", phi_modularity_error(tau)):
        print(f"  {name}: {err:.2e}")

    print("\nproportionality against the signed sum of theta-triple powers:")
    est = estimate_lambda(seed=0, samples=5)
    print(f"  lambda = {complex(est.value):+.9e}")
    print(f"  spread over 5 sample points: {est.spread:.2e}")
    print(f"  2^57 * 1000 * lambda = {complex(est.value) * 2.0 ** 57 * 1000:+.9f}")
    print(f"  ({est.normalization})")

    print("\ndeterminant identity constant, two sample points:")
    for t in sample_taus(seed=2, count=2):
        print(f"  mu = {mu_ratio(t):+.12f}")
    print(f"  32/pi^3 = {32 / math.pi ** 3:.12f}")


if __name__ == "__main__":
    main()
