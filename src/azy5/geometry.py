"""Quadrics and coordinate tetrahedra in the projective 3-space of
second-order theta constants.

Each of the ten even first-order theta constants squares to an integer
quadratic form in the four second-order constants (the classical addition
formulas); ADDITION_TABLE holds the symmetric matrices Q_m with

    theta_m(tau)^2 = X^T Q_m X,   X = (Theta_00, Theta_01, Theta_10, Theta_11).

For a plus-quadruple M of even characteristics, the six quadrics {Q_n = 0,
n even not in M} meet in exactly four points of P^3.  Those points span a
tetrahedron whose four face planes multiply to a quartic form F_M; for the
coordinate quadruple (all m' = 0) the tetrahedron is the coordinate
simplex and F is the monomial X0 X1 X2 X3 = P2.  f_m evaluates F_M at
Theta(tau) through forms.face_product, the certified product of linear
forms that also gives P2 and construction.phi.

Everything here is exact.  Every vertex has coordinates in {0, +-1, +-i},
so the intersection is found by testing the 156 projective points of
{0, +-1, +-i}^4 whose first nonzero coordinate is 1 against the six
quadrics in exact arithmetic, each from its four nonzero +-1 entries;
exactly four survive for each of the fifteen plus-quadruples.  The face
through three vertices has the signed 3 x 3 minors of their coordinates
as coefficients; scaled so that its first nonzero coefficient is 1, every
coefficient is again in {0, +-1, +-i}.  all_faces lists the 60 faces
for the product formula of construction.phi; `azy5 geometry` and
`azy5 verify` check that they are pairwise distinct.

Gaussian integers are held as Python complex numbers with integer parts.
Their sums and products here stay far below 2^53 in modulus, so float
arithmetic on them is exact, and the only division (by the leading
coefficient of a face) is done through its integer norm and checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .chars import EVEN_CHARS, classify_quadruple, even_quadruples
from .forms import _det3, face_product
from .theta import theta_all_even, theta_second_vector

_D = ((0, (1, 1, 1, 1)),
      (1, (1, -1, 1, -1)),
      (2, (1, 1, -1, -1)),
      (3, (1, -1, -1, 1)))
_OFF = ((4, (0, 1), (2, 3), 1),
        (6, (0, 1), (2, 3), -1),
        (8, (0, 2), (1, 3), 1),
        (9, (0, 2), (1, 3), -1),
        (12, (0, 3), (1, 2), 1),
        (15, (0, 3), (1, 2), -1))


def _build_table():
    table = {}
    for m, diag in _D:
        q = [[0] * 4 for _ in range(4)]
        for i, s in enumerate(diag):
            q[i][i] = s
        table[m] = tuple(tuple(row) for row in q)
    for m, (i, j), (k, l), s in _OFF:
        q = [[0] * 4 for _ in range(4)]
        q[i][j] = q[j][i] = 1
        q[k][l] = q[l][k] = s
        table[m] = tuple(tuple(row) for row in q)
    return table


# theta_m^2 as a quadric in the second-order constants, for all ten even m.
ADDITION_TABLE = _build_table()

# 0 and the four units of Z[i], with no negative zero parts.
_UNITS = (complex(0, 0), complex(1, 0), complex(-1, 0), complex(0, 1), complex(0, -1))


# The four nonzero entries (i, j, +-1) of each Q_m, in row-major order.
_SPARSE = {m: tuple((i, j, q[i][j]) for i in range(4) for j in range(4) if q[i][j])
           for m, q in ADDITION_TABLE.items()}


def quadric_value(m, x):
    """X^T Q_m X for a length-4 sequence x, from the four nonzero entries
    of Q_m: the dense row-major sum without its exact zero terms."""
    (i0, j0, s0), (i1, j1, s1), (i2, j2, s2), (i3, j3, s3) = _SPARSE[m]
    return s0 * x[i0] * x[j0] + s1 * x[i1] * x[j1] + s2 * x[i2] * x[j2] + s3 * x[i3] * x[j3]


def addition_residuals(tau, eps=1e-12, hiprec=False):
    """{m: |theta_m^2 - Q_m(Theta)|} at tau for the ten even m, from one
    evaluation of the second-order and one of the first-order constants."""
    x = [t.value for t in theta_second_vector(tau, eps, hiprec)]
    return {m: abs(t.value * t.value - quadric_value(m, x))
            for m, t in theta_all_even(tau, eps, hiprec).items()}


def _normalize(coeffs):
    """Gaussian-integer vector divided by its first nonzero entry, which
    must divide every entry exactly."""
    lead = next(z for z in coeffs if z)
    norm = int(lead.real) ** 2 + int(lead.imag) ** 2
    out = []
    for z in coeffs:
        w = z * lead.conjugate()
        if w.real % norm or w.imag % norm:
            raise ArithmeticError(f"{lead} does not divide {z}")
        out.append(complex(int(w.real) // norm, int(w.imag) // norm))
    return tuple(out)


def faces_from_vertices(vertices):
    """Face linear forms of the tetrahedron with Gaussian-integer
    vertices: faces[i] vanishes on every vertex except vertices[i].  Its
    coefficients are the signed 3 x 3 minors of the other three vertices,
    scaled so that the first nonzero coefficient is 1.  Raises when the
    vertices are coplanar."""
    faces = []
    for i in range(4):
        rows = [vertices[j] for j in range(4) if j != i]
        minors = [(-1) ** c * _det3([[r[k] for k in range(4) if k != c] for r in rows])
                  for c in range(4)]
        if not any(minors) or not sum(a * x for a, x in zip(minors, vertices[i])):
            raise RuntimeError("tetrahedron vertices are not in general position")
        faces.append(_normalize(minors))
    return tuple(faces)


@dataclass(frozen=True)
class Tetrahedron:
    """The tetrahedron over a plus-quadruple: the vertices where its six
    complement quadrics vanish exactly, and its face forms."""
    quad: frozenset
    complement: tuple
    vertices: tuple
    faces: tuple


# The projective points of {0, +-1, +-i}^4 with first nonzero coordinate 1.
_CANDIDATES = tuple(p for p in product(_UNITS, repeat=4)
                    if any(p) and next(z for z in p if z) == 1)


@lru_cache(maxsize=None)
def tetrahedron(quad):
    """Tetrahedron for a plus-quadruple given as a frozenset of four even
    characteristics, found by exact search over _CANDIDATES."""
    M = frozenset(quad)
    if classify_quadruple(tuple(M)) != "plus":
        raise ValueError("tetrahedra exist only over plus-quadruples")
    comp = tuple(sorted(set(EVEN_CHARS) - M))
    pts = tuple(p for p in _CANDIDATES if all(quadric_value(n, p) == 0 for n in comp))
    if len(pts) != 4:
        raise ArithmeticError(f"expected 4 intersection points, found {len(pts)}")
    return Tetrahedron(M, comp, pts, faces_from_vertices(pts))


def all_tetrahedra(seed=0):
    """Tetrahedra for all fifteen plus-quadruples, keyed by frozenset.
    `seed` is ignored, since the search is exact; it stays because
    perfbench/worker.py passes it."""
    return {frozenset(q): tetrahedron(frozenset(q)) for q in even_quadruples("plus")}


@lru_cache(maxsize=None)
def all_faces():
    """The 60 face forms of the fifteen tetrahedra, in the order of
    even_quadruples("plus") and then of each tetrahedron's faces."""
    return tuple(f for q in even_quadruples("plus") for f in tetrahedron(frozenset(q)).faces)


def f_m(quad, tau, eps=1e-12, hiprec=False):
    """ThetaValue of the tetrahedral quartic F_M at the second-order
    constants of tau: forms.face_product over the four faces."""
    return face_product(tetrahedron(frozenset(quad)).faces,
                        theta_second_vector(tau, eps, hiprec), hiprec)
