"""Both series kernels against a direct lattice sum (one mp.expjpi per
point, over a box three shells wider than the library's certified
radius), and the constants that share a kernel run: the high-precision
walk at eps 1e-30 against 70 digits, the double grid at eps 1e-12 against
30 digits.  A high-precision case keeps the bare point name as its id."""

import math

import mpmath as mp
import pytest
from mpmath.libmp import mpc_expjpi

from azy5.chars import EVEN_CHARS, mdbl_of, mprime_of
from azy5.siegel import TAU_I, SiegelPoint, sample_taus
from azy5.symplectic import THETA0_2, act_tau, coset_reps
from azy5.theta import (GUARD_BITS, MPRIME_ORDER, _doubled, _radius, _raw_entries,
                        _walk, theta_all_even, theta_constant, theta_gradient,
                        theta_raw, theta_second_order, theta_second_vector,
                        truncation_radius)

# hiprec flag, eps, digits of the direct sum, allowance beyond err
PRECISIONS = {
    "hiprec": (True, 1e-30, 70, 1e-45),
    "double": (False, 1e-12, 30, 0.0),
}
WIDER = 3


def _diff(a, b, dps):
    with mp.workdps(dps):
        return float(abs(mp.mpmathify(a) - b))


def _entries(tau, hiprec):
    """The entries the precision evaluates at: a transformed point carries
    high-precision entries, which the double path rounds."""
    return tau.entries_mp() if hiprec else tau.entries()


def _cases(ids, values=None):
    """The values (default: the ids) crossed with the precisions."""
    return [pytest.param(value, prec, id=i if prec == "hiprec" else f"double-{i}")
            for prec in PRECISIONS for i, value in zip(ids, values or ids)]


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
    "i*identity": lambda: TAU_I,
    "generic": _generic,
    "worst gamma tau": _worst_transformed,
    "skewed": _skewed,
}


def test_worst_transformed_point_is_ill_conditioned():
    assert 0.12 < _worst_transformed().lam_min < 0.2


@pytest.mark.parametrize("name,prec", _cases(sorted(POINTS)))
def test_even_constants_against_direct_sum(name, prec, direct_mp):
    hiprec, eps, dps, slack = PRECISIONS[prec]
    tau = POINTS[name]()
    R = truncation_radius(tau, eps) + WIDER
    for m in EVEN_CHARS:
        tv = theta_constant(m, tau, eps, hiprec=hiprec)
        ref = direct_mp(mprime_of(m), mdbl_of(m), _entries(tau, hiprec), R, dps)
        assert _diff(tv.value, ref, dps) <= tv.err + slack, (name, m)


def test_skewed_point_clips_row_centres():
    tau = _skewed()
    y = tau.mat.imag
    R = truncation_radius(tau, PRECISIONS["hiprec"][1])
    assert abs(y[0, 1] / y[0, 0]) * R > R + 1


UNREDUCED = [((0, 1), (2, 3)), ((1, 0), (3, 0)), ((2, 1), (1, 0)),
             ((3, 2), (3, 2)), ((1, 1), (2, 2)), ((1, 3), (3, 3))]


@pytest.mark.parametrize("chars,prec", _cases(
    [f"mprime{i}-mdbl{i}" for i in range(len(UNREDUCED))], UNREDUCED))
def test_unreduced_characteristics_against_direct_sum(chars, prec, direct_mp):
    """m'' is kept as given and m' reduced by a lattice shift, so the
    classical shift signs come out of the series; the direct sum uses the
    same convention."""
    hiprec, eps, dps, slack = PRECISIONS[prec]
    mprime, mdbl = chars
    tau = _generic()
    R = truncation_radius(tau, eps) + WIDER
    tv = theta_raw(mprime, mdbl, tau, eps, hiprec=hiprec)
    ref = direct_mp(mprime, mdbl, _entries(tau, hiprec), R, dps)
    assert _diff(tv.value, ref, dps) <= tv.err + slack


@pytest.mark.parametrize("name,prec", _cases(sorted(POINTS)))
def test_all_even_equals_single_constants(name, prec):
    """The shared kernel runs give the same bits as one run per constant."""
    hiprec, eps, _, _ = PRECISIONS[prec]
    tau = POINTS[name]()
    allv = theta_all_even(tau, eps, hiprec=hiprec)
    assert list(allv) == list(EVEN_CHARS)
    for m in EVEN_CHARS:
        assert allv[m] == theta_constant(m, tau, eps, hiprec=hiprec)


@pytest.mark.parametrize("name,prec", _cases(sorted(POINTS)))
def test_second_vector_matches_second_order(name, prec, direct_mp):
    hiprec, eps, dps, slack = PRECISIONS[prec]
    tau = POINTS[name]()
    vec = theta_second_vector(tau, eps, hiprec=hiprec)
    doubled = _doubled(tau)
    R = truncation_radius(doubled, eps) + WIDER
    for k, mpv in enumerate(MPRIME_ORDER):
        single = theta_second_order(mpv, tau, eps, hiprec=hiprec)
        assert _diff(vec[k].value, single.value, dps) <= vec[k].err + single.err + slack
        ref = direct_mp(mpv, (0, 0), _entries(doubled, hiprec), R, dps)
        assert _diff(vec[k].value, ref, dps) <= vec[k].err + slack


@pytest.mark.parametrize("name", sorted(POINTS))
def test_second_vector_err_is_charged_its_own_class(name):
    """A double second-order constant is one parity class of the run at
    tau/2, so its bound is no larger than that of its own series at 2 tau,
    which has the same terms; a bound over the whole box would be about
    four times as large."""
    tau = POINTS[name]()
    vec = theta_second_vector(tau, 1e-12)
    for k, mpv in enumerate(MPRIME_ORDER):
        assert vec[k].err <= theta_second_order(mpv, tau, 1e-12).err * (1 + 1e-9)


def test_walk_bounds_count_each_class(monkeypatch):
    """The walk charges each parity class the points of that class, on a
    box whose sides have odd and even lengths and start at odd and even
    n; the four bounds thus add up to the bound of the whole box.  Each
    row charges each of its points _point_charge of its seeds' error
    counts: once with the real charges, whose four bounds add up to the
    sum over the rows, and once with a unit charge per point."""
    import azy5.theta as theta
    lo0, hi0, lo1, hi1 = -3, 2, -2, 4
    wp = 53 + GUARD_BITS
    box = ((lo0, hi0), (lo1, hi1))
    charge, charges = theta._point_charge, []

    def recorded(*args):
        charges.append(charge(*args))
        return charges[-1]

    with mp.workdps(16):
        monkeypatch.setattr(theta, "_point_charge", recorded)
        _, _, bounds = _walk(_raw_entries(_generic()), (1, 0), box, wp)
        monkeypatch.setattr(theta, "_point_charge", lambda *args: 1)
        _, _, unit = _walk(_raw_entries(_generic()), (1, 0), box, wp)
    cols = [len(range(lo0 + (p - lo0) % 2, hi0 + 1, 2)) for p in (0, 1)]
    assert len(charges) == hi1 - lo1 + 1
    assert sum(map(sum, bounds)) == pytest.approx(
        sum(charges) * (hi0 - lo0 + 1) * 2.0 ** -wp, rel=1e-12)
    for q in (0, 1):
        assert bounds[0][q] * cols[1] == pytest.approx(bounds[1][q] * cols[0], rel=1e-12)
    for p in (0, 1):
        for q in (0, 1):
            count = sum(1 for n0 in range(lo0, hi0 + 1) for n1 in range(lo1, hi1 + 1)
                        if (n0 % 2, n1 % 2) == (p, q))
            assert unit[p][q] == count * 2.0 ** -wp


@pytest.mark.parametrize("radius", [3, 12])
def test_walk_makes_three_exponentials(radius, monkeypatch):
    """A run takes e^{pi i T11/4}, e^{pi i T12/4} and e^{pi i T22/4} from
    mpmath and derives every other factor by multiplication, whatever the
    size of the box."""
    import azy5.theta as theta
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return mpc_expjpi(*args, **kwargs)

    monkeypatch.setattr(theta, "mpc_expjpi", counted)
    with mp.workdps(50):
        _walk(_raw_entries(_generic()), (1, 0), ((-radius, radius),) * 2,
              mp.mp.prec + GUARD_BITS)
    assert len(calls) == 3


def test_long_recurrence_against_direct_sum(near_point, direct_mp):
    """At lam_min 0.03 the walk derives more than 80 rows of seeds from
    its start row; the second-order constants and one even constant per
    m' class still match the direct sum within their err."""
    hiprec, eps, dps, slack = PRECISIONS["hiprec"]
    tau = near_point(0.03, 0.5, 0.4, 0.3, -0.2, 0.25)
    assert 4 * _radius(2 * tau.lam_min, eps) + 2 > 80  # rows k in [-2R, 2R+1]
    doubled = _doubled(tau)
    R = truncation_radius(doubled, eps) + WIDER
    for mpv, tv in zip(MPRIME_ORDER, theta_second_vector(tau, eps, hiprec)):
        ref = direct_mp(mpv, (0, 0), _entries(doubled, hiprec), R, dps)
        assert _diff(tv.value, ref, dps) <= tv.err + slack, mpv
    R = truncation_radius(tau, eps) + WIDER
    for mpv in MPRIME_ORDER:
        m = next(m for m in EVEN_CHARS if mprime_of(m) == mpv)
        tv = theta_constant(m, tau, eps, hiprec)
        ref = direct_mp(mpv, mdbl_of(m), _entries(tau, hiprec), R, dps)
        assert _diff(tv.value, ref, dps) <= tv.err + slack, m


def test_walk_is_deterministic():
    tau = _worst_transformed()
    for hiprec, eps, _, _ in PRECISIONS.values():
        assert theta_second_vector(tau, eps, hiprec) == theta_second_vector(tau, eps, hiprec)


@pytest.mark.parametrize("name,prec", _cases(["generic", "skewed"]) + [
    # the largest box and weights the double grid meets in these tests
    pytest.param("lam_min 0.05", "double", id="double-lam_min 0.05")])
def test_gradient_against_direct_weighted_sum(name, prec, near_point):
    """d/dtau of Theta_{m'} = sum over v = n + m'/2 of 2 pi i (v1^2,
    2 v1 v2, v2^2) e^{pi i v^T (2 tau) v}, summed directly."""
    hiprec, eps, dps, slack = PRECISIONS[prec]
    if name == "lam_min 0.05":
        tau = near_point(0.05, 0.6, 0.7, 0.2, -0.3, 0.1)
    else:
        tau = POINTS[name]()
    R = _radius(2 * tau.lam_min, eps, poly=2, scale=4 * math.pi) + WIDER
    T = _entries(_doubled(tau), hiprec)
    for mpv in MPRIME_ORDER:
        grad = theta_gradient(mpv, tau, eps, hiprec=hiprec)
        with mp.workdps(dps):
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
            assert _diff(grad[k], ref[k], dps) <= eps + slack, (mpv, k)


@pytest.mark.parametrize("prec", sorted(PRECISIONS))
def test_one_kernel_run_per_concept(prec, monkeypatch):
    """Four runs for the ten even constants, one for the four second-order
    constants and one per gradient, whichever kernel fills the sums."""
    import azy5.theta as theta
    hiprec, eps, _, _ = PRECISIONS[prec]
    name = "_walk" if hiprec else "_grid"
    kernel = getattr(theta, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(theta, name, counted)
    tau = _generic()
    for fn, runs in ((lambda: theta_all_even(tau, eps, hiprec), 4),
                     (lambda: theta_second_vector(tau, eps, hiprec), 1),
                     (lambda: theta_gradient((1, 0), tau, eps, hiprec), 1)):
        calls.clear()
        fn()
        assert len(calls) == runs


@pytest.mark.parametrize("prec", sorted(PRECISIONS))
def test_all_even_sizes_its_box_once(prec, monkeypatch):
    """The four kernel runs of theta_all_even share one truncation
    radius, computed once."""
    import azy5.theta as theta
    hiprec, eps, _, _ = PRECISIONS[prec]
    radius, calls = theta._radius, []

    def counted(*args):
        calls.append(args)
        return radius(*args)

    monkeypatch.setattr(theta, "_radius", counted)
    theta_all_even(_generic(), eps, hiprec)
    assert len(calls) == 1
