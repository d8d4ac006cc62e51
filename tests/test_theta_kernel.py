"""The high-precision series kernel against a direct 70-digit lattice sum
(one mp.expjpi per point, over a box three shells wider than the library's
certified radius), and the constants that share its walks."""

import math

import mpmath as mp
import pytest

from azy5.chars import EVEN_CHARS, mdbl_of, mprime_of
from azy5.siegel import SiegelPoint, sample_taus
from azy5.symplectic import THETA0_2, act_tau, coset_reps
from azy5.theta import (MPRIME_ORDER, _doubled, _radius, theta_all_even,
                        theta_constant, theta_constant_g1, theta_gradient,
                        theta_raw, theta_second_order, theta_second_vector,
                        truncation_radius)

EPS = 1e-30
DPS = 70
SLACK = 1e-45
WIDER = 3


def _diff(a, b):
    with mp.workdps(DPS):
        return float(abs(mp.mpmathify(a) - b))


def _generic():
    return sample_taus(seed=0, count=1)[0]


def _worst_transformed():
    tau = _generic()
    return min((act_tau(g, tau, True) for g in coset_reps(THETA0_2).reps),
               key=lambda p: p.lam_min)


def _skewed():
    # |Y12 / Y11| = 1.6 > 1, so the centres nint(-Y12 v2 / Y11 - a1) of the
    # outer rows fall outside the box and are clipped to its edge
    return SiegelPoint([[0.2 + 0.5j, -0.1 + 0.8j], [-0.1 + 0.8j, 0.3 + 2.0j]])


POINTS = {
    "i*identity": lambda: SiegelPoint.scaled_identity(1j),
    "generic": _generic,
    "worst gamma tau": _worst_transformed,
    "skewed": _skewed,
}


def test_worst_transformed_point_is_ill_conditioned():
    assert 0.12 < _worst_transformed().lam_min < 0.2


@pytest.mark.parametrize("name", sorted(POINTS))
def test_even_constants_against_direct_sum(name, direct_mp):
    tau = POINTS[name]()
    R = truncation_radius(tau, EPS) + WIDER
    for m in EVEN_CHARS:
        tv = theta_constant(m, tau, EPS, hiprec=True)
        ref = direct_mp(mprime_of(m), mdbl_of(m), tau.entries_mp(), R, DPS)
        assert _diff(tv.value, ref) <= tv.err + SLACK, (name, m)


def test_skewed_point_clips_row_centres():
    tau = _skewed()
    y = tau.mat.imag
    R = truncation_radius(tau, EPS)
    assert abs(y[0, 1] / y[0, 0]) * R > R + 1


def test_genus1_against_direct_sum(direct_mp):
    tau1 = SiegelPoint([[0.3 + 1.1j]])
    R = truncation_radius(tau1, EPS) + WIDER
    for a, b in ((0, 0), (0, 1), (1, 0)):
        tv = theta_constant_g1(a, b, tau1, EPS, hiprec=True)
        ref = direct_mp((a,), (b,), tau1.entries_mp(), R, DPS)
        assert _diff(tv.value, ref) <= tv.err + SLACK, (a, b)


@pytest.mark.parametrize("mprime,mdbl", [((0, 1), (2, 3)), ((1, 0), (3, 0)),
                                         ((2, 1), (1, 0)), ((3, 2), (3, 2)),
                                         ((1, 1), (2, 2)), ((1, 3), (3, 3))])
def test_unreduced_characteristics_against_direct_sum(mprime, mdbl, direct_mp):
    """m'' is kept as given and m' reduced by a lattice shift, so the
    classical shift signs come out of the series; the direct sum uses the
    same convention."""
    tau = _generic()
    R = truncation_radius(tau, EPS) + WIDER
    tv = theta_raw(mprime, mdbl, tau, EPS, hiprec=True)
    ref = direct_mp(mprime, mdbl, tau.entries_mp(), R, DPS)
    assert _diff(tv.value, ref) <= tv.err + SLACK


@pytest.mark.parametrize("name", sorted(POINTS))
def test_all_even_equals_single_constants(name):
    """The shared walks give the same bits as one walk per constant."""
    tau = POINTS[name]()
    allv = theta_all_even(tau, EPS, hiprec=True)
    assert list(allv) == list(EVEN_CHARS)
    for m in EVEN_CHARS:
        assert allv[m] == theta_constant(m, tau, EPS, hiprec=True)


@pytest.mark.parametrize("name", sorted(POINTS))
def test_second_vector_matches_second_order(name, direct_mp):
    tau = POINTS[name]()
    vec = theta_second_vector(tau, EPS, hiprec=True)
    doubled = _doubled(tau)
    R = truncation_radius(doubled, EPS) + WIDER
    for k, mpv in enumerate(MPRIME_ORDER):
        single = theta_second_order(mpv, tau, EPS, hiprec=True)
        assert _diff(vec[k].value, single.value) <= vec[k].err + single.err + SLACK
        ref = direct_mp(mpv, (0, 0), doubled.entries_mp(), R, DPS)
        assert _diff(vec[k].value, ref) <= vec[k].err + SLACK


def test_walk_is_deterministic():
    tau = _worst_transformed()
    assert theta_second_vector(tau, EPS, hiprec=True) == theta_second_vector(tau, EPS, hiprec=True)


@pytest.mark.parametrize("name", ["generic", "skewed"])
def test_gradient_against_direct_weighted_sum(name):
    """d/dtau of Theta_{m'} = sum over v = n + m'/2 of 2 pi i (v1^2,
    2 v1 v2, v2^2) e^{pi i v^T (2 tau) v}, summed directly."""
    tau = POINTS[name]()
    R = _radius(2 * tau.lam_min, EPS, g=2, poly=2, scale=4 * math.pi) + WIDER
    T = _doubled(tau).entries_mp()
    for mpv in MPRIME_ORDER:
        grad = theta_gradient(mpv, tau, EPS, hiprec=True)
        with mp.workdps(DPS):
            a = [mp.mpf(x) / 2 for x in mpv]
            ref = [mp.mpc(0)] * 3
            for n0 in range(-R, R + 1):
                for n1 in range(-R, R + 1):
                    v0, v1 = n0 + a[0], n1 + a[1]
                    t = mp.expjpi(T[0][0] * v0 * v0 + 2 * T[0][1] * v0 * v1
                                  + T[1][1] * v1 * v1)
                    for k, w in enumerate((v0 * v0, 2 * v0 * v1, v1 * v1)):
                        ref[k] += t * w
            ref = [2j * mp.pi * r for r in ref]
        for k in range(3):
            assert _diff(grad[k], ref[k]) <= EPS + SLACK, (mpv, k)
