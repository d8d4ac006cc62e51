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
simplex and F is the monomial X1 X2 X3 X4.

The intersection is computed by batched Gauss-Newton on the affine chart
of the largest coordinate, from a fixed start grid plus seeded random
starts; converged points are clustered in Fubini-Study distance and the
count is asserted to be four.  All geometric data is double precision;
evaluation of F_M accepts high-precision theta input but keeps the
double-precision face coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chars import EVEN_CHARS, M0, classify_quadruple, even_quadruples
from .theta import theta_second_vector

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


def quadric_value(m, x):
    """X^T Q_m X for a length-4 sequence x."""
    q = ADDITION_TABLE[m]
    return sum(q[i][j] * x[i] * x[j] for i in range(4) for j in range(4))


def addition_residual(m, tau, eps=1e-12, hiprec=False, dps=None):
    """|theta_m^2 - Q_m(Theta)| at tau."""
    from .theta import theta_constant
    x = [t.value for t in theta_second_vector(tau, eps, hiprec, dps)]
    th = theta_constant(m, tau, eps, hiprec, dps).value
    return abs(th * th - quadric_value(m, x))


def normalize_point(x):
    """Projective representative scaled so the largest-modulus coordinate
    is exactly 1."""
    arr = [complex(v) for v in x]
    k = max(range(4), key=lambda i: abs(arr[i]))
    piv = arr[k]
    if piv == 0:
        raise ValueError("zero vector is not a projective point")
    return tuple(v / piv for v in arr)


def point_distance(x, y):
    """Fubini-Study sine distance between projective points."""
    xa = np.asarray(x, complex)
    ya = np.asarray(y, complex)
    nx = np.vdot(xa, xa).real
    ny = np.vdot(ya, ya).real
    c = abs(np.vdot(xa, ya)) ** 2 / (nx * ny)
    return math.sqrt(max(0.0, 1.0 - c))


_GRID_SEED = 1729
N_GRID = 200
N_RANDOM = 300


def _gn_iterate(Q, X, iters, ridge=1e-14):
    """Batched Gauss-Newton for X^T Q_j X = 0 on the chart of the largest
    coordinate; X is (N, 4) complex and is updated in place per iteration."""
    n = X.shape[0]
    eye = np.eye(3)
    rows = np.arange(n)
    for _ in range(iters):
        piv = np.argmax(np.abs(X), axis=1)
        X = X / X[rows, piv][:, None]
        QX = np.einsum("qij,nj->nqi", Q, X)
        f = np.einsum("ni,nqi->nq", X, QX)
        free = np.array([[j for j in range(4) if j != p] for p in piv])
        J = 2.0 * QX[rows[:, None, None], np.arange(Q.shape[0])[None, :, None],
                     free[:, None, :]]
        A = np.einsum("nqk,nql->nkl", J.conj(), J) + ridge * eye
        b = -np.einsum("nqk,nq->nk", J.conj(), f)
        delta = np.linalg.solve(A, b[..., None])[..., 0]
        X[rows[:, None], free] += delta
    piv = np.argmax(np.abs(X), axis=1)
    X = X / X[rows, piv][:, None]
    QX = np.einsum("qij,nj->nqi", Q, X)
    res = np.max(np.abs(np.einsum("ni,nqi->nq", X, QX)), axis=1)
    return X, res


def intersect_quadrics(mats, seed=0, tol=1e-10, cluster_tol=1e-6, iters=60):
    """The four common projective zeros of the given 4x4 quadric matrices.
    Raises if the converged starts do not cluster into exactly four points."""
    Q = np.asarray(mats, complex)
    rng_grid = np.random.default_rng(_GRID_SEED)
    rng = np.random.default_rng(seed)
    starts = np.concatenate([
        rng_grid.normal(size=(N_GRID, 4)) + 1j * rng_grid.normal(size=(N_GRID, 4)),
        rng.normal(size=(N_RANDOM, 4)) + 1j * rng.normal(size=(N_RANDOM, 4)),
    ])
    X, res = _gn_iterate(Q, starts, iters)
    good = X[res < tol]
    if len(good) == 0:
        raise RuntimeError("no Gauss-Newton start converged on the quadric system")
    clusters = []
    for x in good:
        for c in clusters:
            if point_distance(x, c[0]) < cluster_tol:
                c.append(x)
                break
        else:
            clusters.append([x])
    if len(clusters) != 4:
        raise RuntimeError(f"expected 4 intersection points, found {len(clusters)}")
    # polish one representative per cluster
    reps = np.array([c[0] for c in clusters])
    reps, res = _gn_iterate(Q, reps, 25)
    if np.max(res) > 1e-12:
        raise RuntimeError("polishing failed to certify the intersection points")
    pts = [normalize_point(p) for p in reps]
    return tuple(sorted(pts, key=lambda p: tuple((round(v.real, 9), round(v.imag, 9)) for v in p)))


def faces_from_vertices(vertices):
    """Face linear forms of the tetrahedron: faces[i] vanishes on every
    vertex except vertices[i], has unit norm, and its first coefficient of
    modulus > 1e-8 is rotated to the positive real axis."""
    faces = []
    for i in range(4):
        A = np.array([vertices[j] for j in range(4) if j != i], complex)
        _, s, vh = np.linalg.svd(A)
        if s[-1] < 1e-8 * s[0]:
            raise RuntimeError("tetrahedron vertices are not in general position")
        f = vh[-1].conj()
        f = f / np.linalg.norm(f)
        for v in f:
            if abs(v) > 1e-8:
                f = f * (v.conjugate() / abs(v))
                break
        faces.append(tuple(complex(z) for z in f))
    return tuple(faces)


@dataclass(frozen=True)
class Tetrahedron:
    """Intersection tetrahedron of the six quadrics avoiding a
    plus-quadruple: vertices, face forms, and the worst quadric residual
    of the computed vertices."""
    quad: frozenset
    complement: tuple
    vertices: tuple
    faces: tuple
    residual: float

    def form_value(self, x):
        """F(x) = product of the four face forms at a length-4 vector."""
        v = None
        for face in self.faces:
            t = face[0] * x[0] + face[1] * x[1] + face[2] * x[2] + face[3] * x[3]
            v = t if v is None else v * t
        return v


@lru_cache(maxsize=None)
def tetrahedron(quad, seed=0):
    """Tetrahedron for a plus-quadruple given as a frozenset of four even
    characteristics."""
    M = frozenset(quad)
    if classify_quadruple(tuple(M)) != "plus":
        raise ValueError("tetrahedra exist only over plus-quadruples")
    comp = tuple(sorted(set(EVEN_CHARS) - M))
    Q = [ADDITION_TABLE[n] for n in comp]
    pts = intersect_quadrics(Q, seed=seed)
    worst = 0.0
    for p in pts:
        for n in comp:
            worst = max(worst, abs(quadric_value(n, p)))
    return Tetrahedron(M, comp, pts, faces_from_vertices(pts), worst)


def all_tetrahedra(seed=0):
    """Tetrahedra for all fifteen plus-quadruples, keyed by frozenset."""
    return {frozenset(q): tetrahedron(frozenset(q), seed)
            for q in even_quadruples("plus")}


def f_m(quad, tau, eps=1e-12, hiprec=False, dps=None):
    """The tetrahedral quartic F_M evaluated at the second-order constants
    of tau.  Face coefficients stay double precision.  Uses the seed-0
    tetrahedron, passed positionally so that it shares the cache entry
    all_tetrahedra() fills."""
    T = tetrahedron(frozenset(quad), 0)
    x = [t.value for t in theta_second_vector(tau, eps, hiprec, dps)]
    return T.form_value(x)
