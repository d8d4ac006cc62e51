"""Exact Sp(4,Z) algebra: block access, the three congruence subgroups
used here (Sp(4,Z) itself, principal(2) and theta0(2), each named by its
label string) with seeded random elements of the first and last, the
Moebius action on Siegel points together with det(c tau + d)
(transform), and breadth-first coset enumeration.

Matrices carry arbitrary-precision Python integers, so long generator words
used in randomized tests cannot overflow.  The coset search never
multiplies two generic matrices: extending a word by a generator is a
column operation on the rows of its matrix (_COLUMN_OPS).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

from .numeric import m2_cond, m2_det, mobius, value_prec
from .siegel import SiegelPoint


def _as_rows(entries):
    rows = tuple(tuple(int(x) for x in row) for row in entries)
    if len(rows) != 4 or any(len(r) != 4 for r in rows):
        raise ValueError("expected a 4x4 integer matrix")
    return rows


def is_symplectic(entries):
    """Exact test of gamma^T J gamma = J for a 4x4 integer matrix."""
    try:
        m = _as_rows(entries)
    except (TypeError, ValueError):
        return False
    # (gamma^T J gamma)_{ij} = sum_k m[k][i] * (J m)[k][j], J = [[0,1],[-1,0]] blockwise
    jm = tuple(m[k + 2] for k in range(2)) + tuple(tuple(-x for x in m[k]) for k in range(2))
    for i in range(4):
        for j in range(4):
            v = sum(m[k][i] * jm[k][j] for k in range(4))
            want = 1 if j == i + 2 else (-1 if j == i - 2 else 0)
            if v != want:
                return False
    return True


class SymplecticMatrix:
    """Immutable exact element of Sp(4,Z)."""

    __slots__ = ("rows",)

    def __init__(self, entries):
        rows = _as_rows(entries)
        if not is_symplectic(rows):
            raise ValueError("matrix is not symplectic")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("SymplecticMatrix is immutable")

    @classmethod
    def from_blocks(cls, a, b, c, d):
        return cls([list(a[i]) + list(b[i]) for i in range(2)]
                   + [list(c[i]) + list(d[i]) for i in range(2)])

    @property
    def a(self):
        r = self.rows
        return ((r[0][0], r[0][1]), (r[1][0], r[1][1]))

    @property
    def b(self):
        r = self.rows
        return ((r[0][2], r[0][3]), (r[1][2], r[1][3]))

    @property
    def c(self):
        r = self.rows
        return ((r[2][0], r[2][1]), (r[3][0], r[3][1]))

    @property
    def d(self):
        r = self.rows
        return ((r[2][2], r[2][3]), (r[3][2], r[3][3]))

    @classmethod
    def _trusted(cls, rows):
        # rows of a product of symplectic matrices: no re-validation
        out = object.__new__(cls)
        object.__setattr__(out, "rows", rows)
        return out

    def __matmul__(self, other):
        a, b = self.rows, other.rows
        return SymplecticMatrix._trusted(
            tuple(tuple(sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4))
                  for i in range(4)))

    def mod2_key(self):
        return bytes(x & 1 for row in self.rows for x in row)

    def to_rows(self):
        return [list(r) for r in self.rows]

    def __eq__(self, other):
        return isinstance(other, SymplecticMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"SymplecticMatrix({[list(r) for r in self.rows]})"


IDENTITY = SymplecticMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
J = SymplecticMatrix([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])


def translation(B):
    """Upper unipotent [[1, B], [0, 1]] for symmetric integer B."""
    if B[0][1] != B[1][0]:
        raise ValueError("B must be symmetric")
    return SymplecticMatrix.from_blocks(((1, 0), (0, 1)), B, ((0, 0), (0, 0)), ((1, 0), (0, 1)))


def lower_translation(C):
    """Lower unipotent [[1, 0], [C, 1]] for symmetric integer C."""
    if C[0][1] != C[1][0]:
        raise ValueError("C must be symmetric")
    return SymplecticMatrix.from_blocks(((1, 0), (0, 1)), ((0, 0), (0, 0)), C, ((1, 0), (0, 1)))


def gl_rotation(u):
    """[[u, 0], [0, (u^T)^{-1}]] for unimodular integer u."""
    det = u[0][0] * u[1][1] - u[0][1] * u[1][0]
    if det not in (1, -1):
        raise ValueError("u must be unimodular")
    # (u^T)^{-1} = adj(u^T)/det, integral since det = +-1
    ut_inv = ((u[1][1] * det, -u[1][0] * det), (-u[0][1] * det, u[0][0] * det))
    return SymplecticMatrix.from_blocks(u, ((0, 0), (0, 0)), ((0, 0), (0, 0)), ut_inv)


E11 = ((1, 0), (0, 0))
E22 = ((0, 0), (0, 1))
ESYM = ((0, 1), (1, 0))

# Fixed generating set of Sp(4,Z): the symplectic involution J and the three
# elementary translations.  BFS words below are read left to right in this
# alphabet.
GENERATORS = (J, translation(E11), translation(E22), translation(ESYM))

# The congruence subgroups used here, named by their labels: the full
# group, the principal level-2 subgroup (kernel of reduction mod 2), and
# theta0(2), whose c block is even (the stabilizer of M0).
FULL = "Sp(4,Z)"
PRINCIPAL2 = "principal(2)"
THETA0_2 = "theta0(2)"


def subgroup_generators(spec):
    """A finite alphabet of elements of the subgroup, for random words and
    for checks on its letters.  For THETA0_2 it holds the three upper
    translations, the three doubled lower translations and three
    rotations whose 2x2 blocks S, T and R generate GL2(Z), so every
    rotation is a word in them; construction.rep_independence_error
    relies on that.  It is not claimed to generate the whole subgroup."""
    if spec == FULL:
        return GENERATORS
    if spec != THETA0_2:
        raise ValueError(f"no alphabet for subgroup {spec!r}")
    uppers = [translation(B) for B in (E11, E22, ESYM)]
    lowers = [lower_translation(tuple(tuple(2 * x for x in row) for row in S))
              for S in (E11, E22, ESYM)]
    rots = [gl_rotation(u) for u in (((0, 1), (1, 0)), ((1, 1), (0, 1)), ((-1, 0), (0, 1)))]
    return tuple(uppers + lowers + rots)


def random_word(spec, rng, length):
    """Seeded random element of the subgroup: a word of the given length in
    subgroup_generators(spec), with exact integer arithmetic throughout."""
    gens = subgroup_generators(spec)
    m = IDENTITY
    for _ in range(length):
        m = m @ gens[rng.randrange(len(gens))]
    return m


def transform(gamma, tau, hiprec=False):
    """(gamma . tau, det(c tau + d)) from one Moebius transform: the image
    (a tau + b)(c tau + d)^{-1} as a new SiegelPoint, and the determinant
    at the working precision, for the caller to raise to its weight.  With
    hiprec both are formed in mpmath, and the point keeps its
    full-precision entries alongside the double ones.  Every point that
    the package transforms is transformed here."""
    with value_prec(hiprec):
        t, den = mobius(gamma, tau.entries_mp() if hiprec else tau.mat)
        det = m2_det(den)
    if hiprec:
        return SiegelPoint(t, mp_entries=t), det
    if m2_cond(den) > 1e12:
        warnings.warn("c*tau + d is badly conditioned; transformed point is inaccurate")
    return SiegelPoint(t), det


def act_tau(gamma, tau, hiprec=False):
    """gamma . tau, the point of transform."""
    return transform(gamma, tau, hiprec)[0]


@dataclass(frozen=True)
class CosetSystem:
    """Right-coset transversal {H gamma_i} with the BFS word of each
    representative (tuples of GENERATORS indices, identity first)."""
    reps: tuple
    words: tuple

    @property
    def index(self):
        return len(self.reps)


# Right multiplication by each of GENERATORS as a column operation on the
# rows (c0, c1, c2, c3) of a matrix: J sends them to (-c2, -c3, c0, c1),
# a translation by B adds B-combinations of c0, c1 to c2, c3.
_COLUMN_OPS = (
    lambda r: (-r[2], -r[3], r[0], r[1]),
    lambda r: (r[0], r[1], r[2] + r[0], r[3]),
    lambda r: (r[0], r[1], r[2], r[3] + r[1]),
    lambda r: (r[0], r[1], r[2] + r[1], r[3] + r[0]),
)


def _theta0_key(m):
    """The right coset theta0(2) m, as the row space mod 2 of m's lower
    half (c d).  An h in theta0(2) has c even, so the lower half of h m
    is d_h (c d) mod 2 with d_h invertible mod 2; conversely, for m' with
    the same row space, (c' d') = G (c d) mod 2, and the c block of
    m' m^{-1}, c' d^T - d' c^T = G (c d^T - d c^T) mod 2, is even since
    c d^T is symmetric.  The same partition as keying by m^{-1}.M0, the
    quadruple the coset stands for, without acting on characteristics."""
    r2, r3 = (sum((x & 1) << j for j, x in enumerate(m.rows[i])) for i in (2, 3))
    return frozenset((0, r2, r3, r2 ^ r3))


def _bfs_transversal(key_fn):
    """Breadth-first from the identity until a level adds no new key:
    key_fn takes finitely many values, so the search ends."""
    reps = [IDENTITY]
    words = [()]
    seen = {key_fn(IDENTITY)}
    frontier = [(IDENTITY, ())]
    while frontier:
        nxt = []
        for mat, word in frontier:
            for gi, op in enumerate(_COLUMN_OPS):
                nm = SymplecticMatrix._trusted(tuple(map(op, mat.rows)))
                k = key_fn(nm)
                if k not in seen:
                    seen.add(k)
                    nw = word + (gi,)
                    reps.append(nm)
                    words.append(nw)
                    nxt.append((nm, nw))
        frontier = nxt
    return tuple(reps), tuple(words)


@lru_cache(maxsize=None)
def coset_reps(spec):
    """Deterministic right-coset representatives of spec in Sp(4,Z), found
    breadth-first over GENERATORS words (shortest word per coset, ties
    broken lexicographically; identity represents the trivial coset).
    Cached: the returned CosetSystem is immutable.

    Subgroups: theta0(2), keyed by the row space mod 2 of the lower half
    of gamma (_theta0_key); principal(2), keyed by gamma mod 2 (at most
    2^16 keys).  The search is not told the index, so its claims, 15 (one
    coset per plus quadruple gamma^{-1}.M0) and 720, can fail on it.  Each
    step right-multiplies by a generator as a column operation on rows."""
    if spec == THETA0_2:
        reps, words = _bfs_transversal(_theta0_key)
    elif spec == PRINCIPAL2:
        reps, words = _bfs_transversal(SymplecticMatrix.mod2_key)
    else:
        raise ValueError(f"no coset enumeration for subgroup {spec!r}")
    return CosetSystem(reps, words)
