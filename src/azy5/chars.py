"""Reduced theta characteristics of genus 2 and their combinatorics.

A reduced characteristic m = (m', m'') consists of two vectors in {0,1}^2.
We store it as a 4-bit integer, lexicographic on the concatenated bits
(m'_1, m'_2, m''_1, m''_2), so

    index = 8*m'_1 + 4*m'_2 + 2*m''_1 + 1*m''_2 .

The parity is e(m) = (-1)^{m'.m''}; ten characteristics are even and six
are odd.  Sp(4,Z) acts on characteristics through

    gamma.(m', m'') = (d m' - c m'' + diag(c d^T),
                       -b m' + a m'' + diag(a b^T))    (mod 2),

which factors through Sp(4,Z/2).  The induced permutation action on the
six odd characteristics identifies Sp(4,Z/2) with S_6; its sign is the
quadratic character chi_P used throughout this package.

Each matrix's action is one exact table, built once and cached by the
matrix's rows (char_action): for each of the 16 characteristics, its
image and the Z/8 unit of the theta transformation law, from the
formulas act_char_vectors, xi_numerator and reduction_sign.  act_char,
psi_p, chi_p, pair_sign, theta.kappa_probes and forms.slash_unit read
the table.

Triples of distinct even characteristics are classified by the parity of
their sum (xor): 60 are "minus" (odd sum) and 60 "plus".  Quadruples are
classified by their four sub-triples: 15 have all sub-triples minus, 15
all plus, and the remaining 180 are mixed ("star").  The standard plus
quadruple M0 = {[00;00], [00;01], [00;10], [00;11]} plays the role of the
base point for coset enumeration and for the tetrahedron geometry.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

_BITS = tuple(((i >> 3) & 1, (i >> 2) & 1, (i >> 1) & 1, i & 1) for i in range(16))


def char_index(mprime, mdbl):
    """Pack (m', m'') bit vectors into the 4-bit index."""
    return ((mprime[0] & 1) << 3) | ((mprime[1] & 1) << 2) | ((mdbl[0] & 1) << 1) | (mdbl[1] & 1)


def mprime_of(idx):
    b = _BITS[idx]
    return (b[0], b[1])


def mdbl_of(idx):
    b = _BITS[idx]
    return (b[2], b[3])


def format_char(idx):
    """Render as the bracket notation, e.g. 9 -> "[10;01]"."""
    b = _BITS[idx]
    return f"[{b[0]}{b[1]};{b[2]}{b[3]}]"


def parity(idx):
    """e(m) = (-1)^{m'.m''}; +1 for even characteristics, -1 for odd."""
    b = _BITS[idx]
    return -1 if (b[0] * b[2] + b[1] * b[3]) % 2 else 1


EVEN_CHARS = tuple(i for i in range(16) if parity(i) == 1)
ODD_CHARS = tuple(i for i in range(16) if parity(i) == -1)
_ODD_POS = {c: k for k, c in enumerate(ODD_CHARS)}

# Standard plus quadruple: all characteristics with m' = 0.
M0 = frozenset((0, 1, 2, 3))


def act_char_vectors(gamma, idx):
    """Unreduced integer image ((M'1, M'2), (M''1, M''2)) of characteristic
    `idx` under gamma:  M' = d m' - c m'' + diag(c d^T),
    M'' = -b m' + a m'' + diag(a b^T).  The theta transformation law is
    exact for these vectors; reducing them mod 2 costs the classical shift
    sign (see reduction_sign)."""
    m1a, m1b, m2a, m2b = _BITS[idx]
    a, b, c, d = gamma.a, gamma.b, gamma.c, gamma.d
    np1 = d[0][0] * m1a + d[0][1] * m1b - c[0][0] * m2a - c[0][1] * m2b \
        + c[0][0] * d[0][0] + c[0][1] * d[0][1]
    np2 = d[1][0] * m1a + d[1][1] * m1b - c[1][0] * m2a - c[1][1] * m2b \
        + c[1][0] * d[1][0] + c[1][1] * d[1][1]
    nd1 = -b[0][0] * m1a - b[0][1] * m1b + a[0][0] * m2a + a[0][1] * m2b \
        + a[0][0] * b[0][0] + a[0][1] * b[0][1]
    nd2 = -b[1][0] * m1a - b[1][1] * m1b + a[1][0] * m2a + a[1][1] * m2b \
        + a[1][0] * b[1][0] + a[1][1] * b[1][1]
    return (np1, np2), (nd1, nd2)


def reduction_sign(mprime, mdbl):
    """Sign relating theta at an unreduced integer characteristic to theta
    at its mod-2 reduction: theta_{mu + 2r} = (-1)^{mu'.r''} theta_mu with
    mu the reduced characteristic (shifts in the m' slot are free)."""
    s = sum((p % 2) * ((q - q % 2) // 2) for p, q in zip(mprime, mdbl))
    return -1 if s % 2 else 1


def xi_numerator(m, gamma):
    """Integer num with xi_m(gamma) = num/8, from
    xi = -(1/8)(m'^T b^T d m' + m''^T a^T c m'' - 2 m'^T b^T c m'')
        + (1/4) diag(a b^T)^T (d m' - c m'').
    The sign of the diag term is pinned by theta_{[10;00]}(tau + E11)
    = e^{pi i/4} theta_{[10;00]}(tau) together with probe agreement
    across all even characteristics."""
    mp1, mp2 = mprime_of(m)
    md1, md2 = mdbl_of(m)
    a, b, c, d = gamma.a, gamma.b, gamma.c, gamma.d

    def mul(M, w1, w2):
        return (M[0][0] * w1 + M[0][1] * w2, M[1][0] * w1 + M[1][1] * w2)

    # m'^T b^T d m' = (b m').(d m'), and likewise for the other two forms
    bm, dm, am, cm = mul(b, mp1, mp2), mul(d, mp1, mp2), mul(a, md1, md2), mul(c, md1, md2)
    q = (bm[0] * dm[0] + bm[1] * dm[1] + am[0] * cm[0] + am[1] * cm[1]
         - 2 * (bm[0] * cm[0] + bm[1] * cm[1]))
    dab = (a[0][0] * b[0][0] + a[0][1] * b[0][1], a[1][0] * b[1][0] + a[1][1] * b[1][1])
    return -q + 2 * (dab[0] * (dm[0] - cm[0]) + dab[1] * (dm[1] - cm[1]))


class CharAction(NamedTuple):
    """A matrix's exact action on the 16 characteristics, by index:
    image[m] is the mod-2 reduction of gamma.m, and unit[m] in Z/8 the k
    of the transformation law (chi_m folded with the sign of that
    reduction)."""
    image: tuple
    unit: tuple


class _Blocks(NamedTuple):
    a: tuple
    b: tuple
    c: tuple
    d: tuple


@lru_cache(maxsize=1024)
def char_action(gamma):
    """The CharAction of gamma, built once from the formulas
    act_char_vectors, xi_numerator and reduction_sign and cached by
    gamma.rows, on which a SymplecticMatrix hashes and compares (at most
    1024 matrices)."""
    blocks = _Blocks(gamma.a, gamma.b, gamma.c, gamma.d)  # read once, not per formula
    image, unit = [], []
    for m in range(16):
        mpv, mdv = act_char_vectors(blocks, m)
        image.append(char_index((mpv[0] % 2, mpv[1] % 2), (mdv[0] % 2, mdv[1] % 2)))
        unit.append((xi_numerator(m, blocks) + 4 * (reduction_sign(mpv, mdv) < 0)) % 8)
    return CharAction(tuple(image), tuple(unit))


def act_char(gamma, idx):
    """Image of characteristic `idx` under gamma; depends only on gamma
    mod 2."""
    return char_action(gamma).image[idx]


def act_set(gamma, chars):
    """Image of a set of characteristics, as a frozenset."""
    image = char_action(gamma).image
    return frozenset(image[c] for c in chars)


def classify_triple(triple):
    """Tag of a triple of distinct even characteristics: "minus" if the
    sum (xor of indices) is odd, "plus" if even."""
    a, b, c = triple
    if len({a, b, c}) != 3 or any(parity(x) != 1 for x in (a, b, c)):
        raise ValueError("expected three distinct even characteristics")
    return "minus" if parity(a ^ b ^ c) == -1 else "plus"


def classify_quadruple(quad):
    """Tag of a quadruple of distinct even characteristics: "minus"/"plus"
    when all four sub-triples carry that tag, "star" otherwise."""
    q = tuple(quad)
    if len(set(q)) != 4 or any(parity(x) != 1 for x in q):
        raise ValueError("expected four distinct even characteristics")
    tags = {classify_triple(t) for t in combinations(q, 3)}
    if tags == {"minus"}:
        return "minus"
    if tags == {"plus"}:
        return "plus"
    return "star"


@lru_cache(maxsize=None)
def even_triples(tag=None):
    """All 120 triples of even characteristics, optionally filtered by tag,
    each sorted ascending.  Cached: the result is an immutable tuple."""
    return tuple(t for t in combinations(EVEN_CHARS, 3)
                 if tag is None or classify_triple(t) == tag)


@lru_cache(maxsize=None)
def _tagged_quadruples():
    """(quadruple, tag) for all 210 quadruples, classified once."""
    return tuple((q, classify_quadruple(q)) for q in combinations(EVEN_CHARS, 4))


@lru_cache(maxsize=None)
def even_quadruples(tag=None):
    """All 210 quadruples of even characteristics, optionally filtered by
    tag, each sorted ascending.  Cached like even_triples."""
    return tuple(q for q, t in _tagged_quadruples() if tag is None or t == tag)


def psi_p(gamma):
    """Permutation induced on the odd characteristics, as a tuple p with
    p[k] = position of gamma.(k-th odd characteristic).  The fixed ordering
    of ODD_CHARS (index order 5,7,10,11,13,14) pins the S_6 identification."""
    image = char_action(gamma).image
    return tuple(_ODD_POS[image[c]] for c in ODD_CHARS)


def perm_sign(p):
    """Sign of a permutation given as an image tuple."""
    n = len(p)
    seen = [False] * n
    sign = 1
    for s in range(n):
        if seen[s]:
            continue
        length = 0
        k = s
        while not seen[k]:
            seen[k] = True
            k = p[k]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def chi_p(gamma):
    """Sign character of Sp(4,Z) through the S_6 permutation action; trivial
    on the principal level-2 subgroup."""
    return perm_sign(psi_p(gamma))


# The stabilizer of M0 preserves the perfect matching {5,7} {10,11} {13,14}
# on the odd characteristics (positions (0,1), (2,3), (4,5) in ODD_CHARS
# order); its image in S_6 is the full matching stabilizer of order 48.
ODD_PAIRING = ((0, 1), (2, 3), (4, 5))


def pair_sign(gamma):
    """Sign of the permutation gamma induces on the three matched pairs of
    odd characteristics.  Defined exactly on the stabilizer of M0 (raises
    elsewhere).  This character measures the defect of per-coset invariance
    of the tetrahedral product factors: multiplying a representative by a
    stabilizer element eta scales its factor by pair_sign(eta)."""
    p = psi_p(gamma)
    blocks = []
    for x, y in ODD_PAIRING:
        img = {p[x], p[y]}
        for bj, pair in enumerate(ODD_PAIRING):
            if img == set(pair):
                blocks.append(bj)
                break
        else:
            raise ValueError("action does not preserve the odd-characteristic pairing")
    return perm_sign(tuple(blocks))
