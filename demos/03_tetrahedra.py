#!/usr/bin/env python3
"""The fifteen coordinate tetrahedra.

Each plus-quadruple M leaves six even characteristics over; their six
quadrics meet in exactly four points of P^3.  Every such point has
coordinates in {0, +-1, +-i}, so the four are found by an exact search
over the 156 projective points of {0, +-1, +-i}^4.  The four points span
a tetrahedron; its faces are linear forms with coefficients again in
{0, +-1, +-i}, and their product is a quartic F_M.  For the coordinate
quadruple the vertices are the standard simplex and F is the monomial
X0 X1 X2 X3, which ties the whole geometry back to the product of the
four second-order theta constants."""

from azy5 import (M0, all_faces, all_tetrahedra, f_m, format_char, p2,
                  quadric_value, sample_taus, tetrahedron)


def fmt_point(v):
    def c(z):
        if z.imag == 0:
            return f"{z.real:+.0f}" if z.real else "0"
        if z.real == 0:
            return f"{z.imag:+.0f}i"
        return f"{z:+.3f}"
    return "(" + ", ".join(c(z) for z in v) + ")"


def worst_quadric(T):
    """The largest |Q_n(v)| over the six complement quadrics n and the
    four vertices v."""
    return max(abs(quadric_value(n, v)) for n in T.complement for v in T.vertices)


def main():
    T0 = tetrahedron(M0)
    print("coordinate quadruple", [format_char(m) for m in sorted(M0)])
    print("  vertices:")
    for v in T0.vertices:
        print("   ", fmt_point(v))
    print("  faces (first nonzero coefficient 1):")
    for f in T0.faces:
        print("   ", fmt_point(f))
    print(f"  worst quadric residual at the vertices: {worst_quadric(T0)} (exact)")

    tau = sample_taus(seed=6, count=1)[0]
    print("\nF at the second-order constants vs the four-fold product:")
    print(f"  F_M0(tau) = {f_m(M0, tau).value:+.12e}")
    print(f"  P2(tau)   = {p2(tau).value:+.12e}")

    print("\nall fifteen tetrahedra (every vertex coordinate is 0 or a")
    print("fourth root of unity, and every vertex lies on the six quadrics")
    print("exactly):")
    for quad, T in sorted(all_tetrahedra().items(), key=lambda kv: sorted(kv[0])):
        label = " ".join(format_char(m) for m in sorted(quad))
        verts = "  ".join(fmt_point(v) for v in T.vertices)
        print(f"  {{{label}}}  worst quadric {worst_quadric(T)}")
        print(f"      {verts}")
    faces = all_faces()
    print(f"\n{len(faces)} faces in all, {len(set(faces))} distinct: the planes")
    print("whose product, times -2^-44, is the weight-30 form phi.")


if __name__ == "__main__":
    main()
