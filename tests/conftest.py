"""Shared fixtures: seeded sample points, random subgroup words, and tiny
brute-force theta oracles that the library code never touches."""

import cmath
import itertools
import math
import random

import mpmath as mp
import pytest

from azy5.siegel import SiegelPoint, sample_taus
from azy5.symplectic import FULL, random_word


@pytest.fixture(scope="session")
def taus():
    """Five generic sample points, fixed seed."""
    return sample_taus(seed=0, count=5)


@pytest.fixture(scope="session")
def tau_i():
    return SiegelPoint.scaled_identity(1j)


@pytest.fixture()
def rng():
    return random.Random(1234)


@pytest.fixture()
def full_words(rng):
    def make(count, length=5):
        return [random_word(FULL, rng, length) for _ in range(count)]
    return make


def brute_theta(mprime, mdbl, entries, N=10):
    """Direct double-precision lattice sum over the box [-N, N]^2; slow and
    independent of every code path under test."""
    a0, a1 = mprime[0] / 2.0, mprime[1] / 2.0
    b0, b1 = mdbl[0] / 2.0, mdbl[1] / 2.0
    t00, t01, t11 = entries[0][0], entries[0][1], entries[1][1]
    s = 0j
    for n0 in range(-N, N + 1):
        for n1 in range(-N, N + 1):
            v0, v1 = n0 + a0, n1 + a1
            q = t00 * v0 * v0 + 2 * t01 * v0 * v1 + t11 * v1 * v1 \
                + 2 * (b0 * v0 + b1 * v1)
            s += cmath.exp(1j * math.pi * q)
    return s


def brute_theta_g1(a_bit, b_bit, tau1, N=40):
    a, b = a_bit / 2.0, b_bit / 2.0
    s = 0j
    for n in range(-N, N + 1):
        v = n + a
        s += cmath.exp(1j * math.pi * (tau1 * v * v + 2 * b * v))
    return s


def direct_theta_mp(mprime, mdbl, entries, R, dps):
    """Direct mpmath lattice sum over the box ||n||_inf <= R, one
    mp.expjpi per point at dps digits, of
    e^{pi i [v^T T v + v.m'']} with v = n + (m' mod 2)/2 and m'' as
    given, entries (nested, g x g) taken exactly.  Genus 1 or 2."""
    g = len(entries)
    with mp.workdps(dps):
        T = [[mp.mpmathify(entries[i][j]) for j in range(g)] for i in range(g)]
        a = [mp.mpf(int(x) % 2) / 2 for x in mprime]
        total = mp.mpc(0)
        for n in itertools.product(range(-R, R + 1), repeat=g):
            v = [n[i] + a[i] for i in range(g)]
            q = (sum(T[i][j] * v[i] * v[j] for i in range(g) for j in range(g))
                 + sum(v[i] * int(mdbl[i]) for i in range(g)))
            total += mp.expjpi(q)
        return total


@pytest.fixture(scope="session")
def direct_mp():
    return direct_theta_mp


@pytest.fixture(scope="session")
def brute():
    return brute_theta


@pytest.fixture(scope="session")
def brute_g1():
    return brute_theta_g1


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance scoreboard after the test summary."""
    import sys
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "_RESULTS", None) if mod else None
    if lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
