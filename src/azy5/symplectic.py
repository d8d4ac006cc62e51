"""Exact Sp(4,Z) algebra: block access, congruence subgroup membership,
the Moebius action on Siegel points, automorphy factors, and breadth-first
coset enumeration.

Matrices carry arbitrary-precision Python integers, so long generator words
used in randomized tests cannot overflow.  Inverses use the symplectic
closed form gamma^{-1} = [[d^T, -b^T], [-c^T, a^T]].
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp

from .chars import M0, act_set
from .numeric import HIPREC_DPS, m2_cond, m2_det, mobius
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

    def __matmul__(self, other):
        a, b = self.rows, other.rows
        prod = tuple(tuple(sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4))
                     for i in range(4))
        out = object.__new__(SymplecticMatrix)
        object.__setattr__(out, "rows", prod)
        return out

    def inverse(self):
        a, b, c, d = self.a, self.b, self.c, self.d
        inv = ((d[0][0], d[1][0], -b[0][0], -b[1][0]),
               (d[0][1], d[1][1], -b[0][1], -b[1][1]),
               (-c[0][0], -c[1][0], a[0][0], a[1][0]),
               (-c[0][1], -c[1][1], a[0][1], a[1][1]))
        out = object.__new__(SymplecticMatrix)
        object.__setattr__(out, "rows", inv)
        return out

    def mod2_key(self):
        return bytes(x & 1 for row in self.rows for x in row)

    def max_abs(self):
        return max(abs(x) for row in self.rows for x in row)

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

# tau |-> tau + E11; flips the sign of the second-order product P2.
ETA0 = translation(E11)


def word_matrix(indices):
    m = IDENTITY
    for i in indices:
        m = m @ GENERATORS[i]
    return m


def subgroup_generators(spec):
    """A finite generating-ish alphabet for sampling random elements of the
    subgroup (words in these letters certainly lie in it; the samplers in
    the tests only need cheap, well-spread elements, not surjectivity)."""
    if spec.kind == "full":
        return GENERATORS
    n = spec.n
    scaled = [translation(tuple(tuple(n * x for x in row) for row in B))
              for B in (E11, E22, ESYM)]
    lowers = [lower_translation(tuple(tuple(n * x for x in row) for row in C))
              for C in (E11, E22, ESYM)]
    if spec.kind == "principal":
        return tuple(scaled + lowers)
    if spec.kind == "theta0":
        uppers = [translation(B) for B in (E11, E22, ESYM)]
        rots = [gl_rotation(((0, 1), (1, 0))), gl_rotation(((1, 1), (0, 1))),
                gl_rotation(((-1, 0), (0, 1)))]
        return tuple(uppers + lowers + rots)
    raise NotImplementedError(f"no sampling alphabet for {spec.label()}")


def random_word(spec, rng, length=8):
    """Seeded random element of the subgroup: a word of the given length in
    subgroup_generators(spec), with exact integer arithmetic throughout."""
    gens = subgroup_generators(spec)
    m = IDENTITY
    for _ in range(length):
        m = m @ gens[rng.randrange(len(gens))]
    return m


@dataclass(frozen=True)
class SubgroupSpec:
    """One of the congruence subgroups used here: kind in {"full",
    "principal", "igusa", "theta0"} with level n (igusa means the
    level-(n,2n) group)."""
    kind: str
    n: int = 1

    def __post_init__(self):
        if self.kind not in ("full", "principal", "igusa", "theta0"):
            raise ValueError(f"unknown subgroup kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("level must be positive")

    def label(self):
        if self.kind == "full":
            return "Sp(4,Z)"
        if self.kind == "principal":
            return f"principal({self.n})"
        if self.kind == "igusa":
            return f"igusa({self.n},{2 * self.n})"
        return f"theta0({self.n})"


FULL = SubgroupSpec("full")
PRINCIPAL2 = SubgroupSpec("principal", 2)
THETA0_2 = SubgroupSpec("theta0", 2)


def in_subgroup(gamma, spec):
    """Exact membership of gamma in the congruence subgroup."""
    r = gamma.rows
    if spec.kind == "full":
        return True
    n = spec.n
    if spec.kind == "theta0":
        c = gamma.c
        return all(c[i][j] % n == 0 for i in range(2) for j in range(2))
    principal = all((r[i][j] - (1 if i == j else 0)) % n == 0
                    for i in range(4) for j in range(4))
    if spec.kind == "principal":
        return principal
    if not principal:
        return False
    a, b, c, d = gamma.a, gamma.b, gamma.c, gamma.d
    dab = (a[0][0] * b[0][0] + a[0][1] * b[0][1], a[1][0] * b[1][0] + a[1][1] * b[1][1])
    dcd = (c[0][0] * d[0][0] + c[0][1] * d[0][1], c[1][0] * d[1][0] + c[1][1] * d[1][1])
    return all(x % (2 * n) == 0 for x in dab + dcd)


def act_tau(gamma, tau, hiprec=False, dps=None):
    """gamma . tau = (a tau + b)(c tau + d)^{-1} as a new SiegelPoint.
    With hiprec the transform is carried out in mpmath and the result keeps
    the full-precision entries alongside the double ones."""
    if hiprec:
        with mp.workdps(dps or HIPREC_DPS):
            tmp, _ = mobius(gamma, tau.entries_mp())
            t = tuple(tuple(complex(z) for z in row) for row in tmp)
            return SiegelPoint(t, mp_entries=tmp)
    t, den = mobius(gamma, tau.entries())
    if m2_cond(den) > 1e12:
        warnings.warn("c*tau + d is badly conditioned; transformed point is inaccurate")
    return SiegelPoint(t)


def automorphy_factor(gamma, tau, k):
    """det(c tau + d)^k for integer k; half-integer powers are taken
    explicitly at call sites to keep branch choices local."""
    if int(k) != k:
        raise ValueError("integer weights only; take square roots at the call site")
    _, den = mobius(gamma, tau.entries())
    return m2_det(den) ** int(k)


@dataclass(frozen=True)
class CosetSystem:
    """Right-coset transversal {H gamma_i} with the BFS word of each
    representative (tuples of GENERATORS indices, identity first)."""
    subgroup: SubgroupSpec
    reps: tuple
    words: tuple

    @property
    def index(self):
        return len(self.reps)


def _bfs_transversal(key_fn, expected, max_level=40):
    reps = [IDENTITY]
    words = [()]
    seen = {key_fn(IDENTITY, IDENTITY)}
    frontier = [(IDENTITY, IDENTITY, ())]
    gen_inv = [g.inverse() for g in GENERATORS]
    level = 0
    while len(reps) < expected:
        level += 1
        if not frontier or level > max_level:
            raise RuntimeError(
                f"coset search exhausted at {len(reps)}/{expected}; wrong generator set")
        nxt = []
        for mat, inv, word in frontier:
            for gi, gen in enumerate(GENERATORS):
                nm = mat @ gen
                ninv = gen_inv[gi] @ inv
                k = key_fn(nm, ninv)
                if k not in seen:
                    seen.add(k)
                    nw = word + (gi,)
                    reps.append(nm)
                    words.append(nw)
                    nxt.append((nm, ninv, nw))
                    if len(reps) == expected:
                        break
            if len(reps) == expected:
                break
        frontier = nxt
    return tuple(reps), tuple(words)


@lru_cache(maxsize=None)
def coset_reps(spec):
    """Deterministic right-coset representatives of spec in Sp(4,Z), found
    breadth-first over GENERATORS words (shortest word per coset, ties
    broken lexicographically; identity represents the trivial coset).
    Cached: spec is hashable and the returned CosetSystem is immutable.

    Supported: theta0(2), keyed by gamma^{-1}.M0 (15 cosets, one per plus
    quadruple, since theta0(2) is the stabilizer of M0); principal(2),
    keyed by gamma mod 2 (720 cosets)."""
    if spec == THETA0_2:
        reps, words = _bfs_transversal(lambda m, inv: act_set(inv, M0), 15)
    elif spec == PRINCIPAL2:
        reps, words = _bfs_transversal(lambda m, inv: m.mod2_key(), 720)
    elif spec.kind == "full" or (spec.kind == "principal" and spec.n == 1):
        reps, words = (IDENTITY,), ((),)
    else:
        raise NotImplementedError(f"coset enumeration not implemented for {spec.label()}")
    return CosetSystem(spec, reps, words)
