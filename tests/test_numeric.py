"""The Python-integer floating complex: exact conversion from and to mpc,
the exact signed sum, and the error count of a long product."""

import random
from fractions import Fraction

import mpmath as mp
import pytest

from azy5.numeric import (FC_CUT_ERR, fc_abs, fc_from_mpc, fc_mul, fc_sum,
                          fc_to_mpc)

WP = 200


def _fraction(z):
    """(re, im) of a floating complex or fc_sum result as Fractions."""
    scale = Fraction(2) ** z[2]
    return Fraction(z[0]) * scale, Fraction(z[1]) * scale


def _mpf_fraction(x):
    sign, m, e, _ = x._mpf_
    return (-1) ** sign * Fraction(m) * Fraction(2) ** e


@pytest.mark.parametrize("z", [
    0, 1, -1, 3j, -2.5j, 1.25 - 0.5j, -7e-30 + 4e12j, 2.0 ** -300 - 1j,
    "0.1234567890123456789012345678901234567890123456789",
    ("-3.14159265358979323846264338327950288419716939937", "1e-40"),
])
def test_mpc_round_trip_is_bit_exact(z):
    with mp.workdps(50):
        v = mp.mpc(*z) if isinstance(z, tuple) else mp.mpc(z)
        a = fc_from_mpc(v)
        assert a[3] == 0
        assert _fraction(a) == (_mpf_fraction(v.real), _mpf_fraction(v.imag))
        assert fc_to_mpc(a)._mpc_ == v._mpc_


def test_signed_sum_matches_fraction_sum():
    rng = random.Random(5)
    for _ in range(20):
        terms = []
        for _ in range(rng.randrange(1, 12)):
            z = (rng.randrange(-2 ** 80, 2 ** 80), rng.randrange(-2 ** 80, 2 ** 80),
                 rng.randrange(-400, 400), rng.randrange(10))
            terms.append((rng.choice((-1, 1, 3)), z))
        if rng.randrange(3) == 0:
            terms.append((1, (0, 0, -5000, 0)))
        got = _fraction(fc_sum(terms))
        want = [sum(s * _fraction(z)[i] for s, z in terms) for i in (0, 1)]
        assert got == tuple(want)


def test_long_product_within_count_bound():
    """60 factors, each the exact floating complex of a 50-digit mpc, in
    a chain of fc_mul: the product is within 2 c 2^-wp of its modulus of
    the 300-digit product, c its error count, and each multiplication
    counts one cut."""
    rng = random.Random(11)
    with mp.workdps(50):
        vals = [mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) * mp.mpf(1.0 / 3)
                for _ in range(60)]
    zs = [fc_from_mpc(v) for v in vals]
    prod = zs[0]
    for z in zs[1:]:
        prod = fc_mul(prod, z, WP)
    assert prod[3] == 59 * FC_CUT_ERR
    with mp.workdps(300):
        exact = mp.fprod(vals)
        re, im = _fraction(prod)
        diff = abs(mp.mpc(mp.mpf(re.numerator) / re.denominator,
                          mp.mpf(im.numerator) / im.denominator) - exact)
        bound = 2 * prod[3] * mp.mpf(2) ** -WP * abs(exact)
        assert 0 < diff <= bound
        assert abs(fc_abs(prod) / abs(exact) - 1) < 1e-15
