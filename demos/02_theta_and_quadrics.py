#!/usr/bin/env python3
"""Certified theta numerics and the classical addition formulas.

Every theta value carries a rigorous truncation bound.  The squares of
the ten even constants are integer quadratic forms in the four
second-order constants; we print the worst residual over a batch of
random points and show one transformation multiplier measured against
its exact prediction."""

import random

from azy5 import (addition_residuals, format_char, kappa4, kappa_numeric,
                  quadric_value, random_word, sample_taus, theta_all_even,
                  theta_second_vector)
from azy5.geometry import ADDITION_TABLE
from azy5.symplectic import FULL


def main():
    tau = sample_taus(seed=0, count=1)[0]
    print("sample point tau =")
    for row in tau.mat:
        print("   ", "  ".join(f"{z.real:+.4f}{z.imag:+.4f}i" for z in row))

    print("\neven theta constants with certified absolute error:")
    for m, tv in theta_all_even(tau).items():
        print(f"  theta_{format_char(m)} = {tv.value:+.12f}  (err <= {tv.err:.1e})")

    vec = [t.value for t in theta_second_vector(tau)]
    print("\nsecond-order constants X = (Theta_00, Theta_01, Theta_10, Theta_11):")
    for v in vec:
        print(f"  {v:+.12f}")

    print("\naddition formulas theta_m^2 = X^T Q_m X, worst residual over")
    print("ten identities at ten random points:")
    worst = max(r for t in sample_taus(seed=1, count=10)
                for r in addition_residuals(t).values())
    print(f"  {worst:.3e}")

    m = 9
    print(f"\nthe integer quadric for m = {format_char(m)}:")
    for row in ADDITION_TABLE[m]:
        print("   ", row)
    print("  value at X:", f"{quadric_value(m, vec):+.12f}")

    rng = random.Random(3)
    g = random_word(FULL, rng, 5)
    k = kappa_numeric(g)
    print("\ntheta multiplier of a random group word, measured numerically:")
    print(f"  kappa = {k:+.10f}  |kappa| = {abs(k):.12f}")
    print(f"  kappa^4 = {k ** 4:+.10f}   exact prediction {kappa4(g):+d}")


if __name__ == "__main__":
    main()
