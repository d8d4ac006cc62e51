"""Both series kernels against a direct lattice sum (one mp.expjpi per
point, over the box whose certified tail is below the sum's own
digits), and the constants that share a kernel run: the high-precision
walk at eps 1e-30 against 70 digits, the double grid at eps 1e-12 against
30 digits.  A high-precision case keeps the bare point name as its id."""

import math

import mpmath as mp
import pytest
from mpmath.libmp import mpc_expjpi, to_float

from azy5.chars import EVEN_CHARS, mdbl_of, mprime_of
from azy5.forms import chi5_determinant
from azy5.numeric import value_prec
from azy5.siegel import TAU_I, SiegelPoint, sample_taus
from azy5.symplectic import THETA0_2, act_tau, coset_reps
from azy5.theta import (_CLASSES, GUARD_BITS, MPRIME_ORDER, _chords, _ellipse,
                        _raw_entries, _run_kernel, _theta, _walk, theta_all_even,
                        theta_constant, theta_gradient_vector, theta_second_order,
                        theta_second_vector, truncation_radius)
from reference import doubled, theta_raw

# hiprec flag, eps, digits of the direct sum, allowance beyond err
PRECISIONS = {
    "hiprec": (True, 1e-30, 70, 1e-45),
    "double": (False, 1e-12, 30, 0.0),
}


def _reference_radius(tau, dps):
    """The box ||n||_inf <= R of a direct sum at dps digits: the terms
    beyond it are below 10^-dps in all."""
    return truncation_radius(tau, 10.0 ** -dps)


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
    # |Y12 / Y11| = 1.6 > 1, so the centres nint(-Y12 k1 / Y11) of
    # consecutive rows lie up to two steps apart
    return SiegelPoint([[0.2 + 0.5j, -0.1 + 0.8j], [-0.1 + 0.8j, 0.3 + 2.0j]])


def _cusp(scale):
    """tau(scale) = X + i scale Y, toward the cusp for large scale: the
    ellipse cuts the box to a few points per class, and some classes mod
    4 to none."""
    def point():
        return SiegelPoint([[0.13 + 1j * scale, -0.21 + 0.3j * scale],
                            [-0.21 + 0.3j * scale, 0.37 + 0.8j * scale]])
    return point


POINTS = {
    "i*identity": lambda: TAU_I,
    "generic": _generic,
    "worst gamma tau": _worst_transformed,
    "skewed": _skewed,
    "tau(10)": _cusp(10),
    "tau(20)": _cusp(20),
}


def test_worst_transformed_point_is_ill_conditioned():
    assert 0.12 < _worst_transformed().lam_min < 0.2


@pytest.mark.parametrize("name,prec", _cases(sorted(POINTS)))
def test_even_constants_against_direct_sum(name, prec, direct_mp):
    hiprec, eps, dps, slack = PRECISIONS[prec]
    tau = POINTS[name]()
    R = _reference_radius(tau, dps)
    for m in EVEN_CHARS:
        tv = theta_constant(m, tau, eps, hiprec=hiprec)
        ref = direct_mp(mprime_of(m), mdbl_of(m), _entries(tau, hiprec), R, dps)
        assert _diff(tv.value, ref, dps) <= tv.err + slack, (name, m)


def test_skewed_point_moves_row_centres():
    """At the skewed point the high-precision walk moves its centre
    nint(-Y12 k1 / Y11) by two steps between some consecutive rows, so
    the direct-sum tests there check the horizontal steps of a row."""
    with mp.workdps(50):
        t = _raw_entries(_skewed(), -2)
        centres = [c for _, c in _centres(t, mp.mp.prec + GUARD_BITS, PRECISIONS["hiprec"][1])]
    assert max(abs(b - a) for a, b in zip(centres, centres[1:])) == 2


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
    R = _reference_radius(tau, dps)
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
    """theta_second_order is the vector's entry at m' mod 2, value and
    err, for unreduced m' too; the vector matches the direct sum at 2 tau."""
    hiprec, eps, dps, slack = PRECISIONS[prec]
    tau = POINTS[name]()
    vec = theta_second_vector(tau, eps, hiprec=hiprec)
    tau2 = doubled(tau)
    R = _reference_radius(tau2, dps)
    for k, mpv in enumerate(MPRIME_ORDER):
        for shift in ((0, 0), (2, 0), (-2, 2)):
            single = theta_second_order((mpv[0] + shift[0], mpv[1] + shift[1]), tau, eps, hiprec)
            assert single == vec[k]
        ref = direct_mp(mpv, (0, 0), _entries(tau2, hiprec), R, dps)
        assert _diff(vec[k].value, ref, dps) <= vec[k].err + slack


@pytest.mark.parametrize("name", sorted(POINTS))
def test_second_vector_err_is_charged_its_own_class(name):
    """A double second-order constant is the four classes k = m' mod 2 of
    the run at tau/2, charged their bounds only, so its bound is no larger
    than that of its own series at 2 tau, which has the same terms; a
    bound over the whole box would be about four times as large."""
    tau = POINTS[name]()
    vec = theta_second_vector(tau, 1e-12)
    for k, mpv in enumerate(MPRIME_ORDER):
        assert vec[k].err <= theta_raw(mpv, (0, 0), doubled(tau), 1e-12).err * (1 + 1e-9)


def _ellipse_of(t, wp, eps, moments=False):
    """Im T as floats and the ellipse of the walk at T, t from _raw_entries."""
    y = tuple(to_float(z[1]) for z in t)
    return y, _ellipse(y, wp, eps, moments)


# (eps, moments) of the walks of test_walk_bounds_count_each_class: the
# resolution sets rho, eps sets rho, a moment run
WALKS = ((1.0, False), (1e-40, False), (1e-12, True))


def test_walk_bounds_count_each_class(monkeypatch):
    """The walk visits the rows k1 >= 0 of E, each row k1 the chord k0 in
    [c - down, c + up] around its centre c, and credits each term of a
    row k1 > 0 to the classes of k and of -k.  With a unit charge per
    point, each point of the visited rows is counted once, in its own
    class mod 4, whether the resolution or eps sets rho and with moments;
    the rows hold every point of E and none whose form exceeds rho^2 by
    more than a millionth.  With the real charges, each class's bound is
    the sum of _point_charge of its rows' seeds at each point's own step
    count, and the mirrored classes r and -r of the rows k1 > 0 receive
    equal charges, so the classes with r1 != 0, which row 0 does not
    reach, have equal bounds in mirrored pairs.  The closed-form step
    sums of a ray, and of a row by class, equal the direct sums over
    their points."""
    import azy5.theta as theta
    wp = 53 + GUARD_BITS
    t = _raw_entries(_generic(), -2)
    charge, row_steps = theta._point_charge, theta._row_steps
    for eps, moments in WALKS:
        y, (rho2, _, _, extent) = _ellipse_of(t, wp, eps, moments)
        square = [(k0, k1) for k0 in range(-extent, extent + 1)
                  for k1 in range(-extent, extent + 1)]
        charges, rows = [], []
        with mp.workdps(16), monkeypatch.context() as patch:
            patch.setattr(theta, "_point_charge", lambda *a: charges.append(a) or charge(*a))
            patch.setattr(theta, "_row_steps",
                          lambda *a: rows.append((len(charges) // 2 - 1, *a)) or row_steps(*a))
            _, _, bounds, _ = _walk(t, wp, eps, moments)
            patch.setattr(theta, "_point_charge", lambda *args: (1, 0, 0))
            _, _, unit, _ = _walk(t, wp, eps, moments)
        # each row charges (up, down) seeds, then sums by class around its
        # centre c, of which _row_steps sees c mod 4
        direct = [[0] * 4 for _ in range(4)]
        kept = set()
        for (i, _, up, down), (k1, c) in zip(rows, _centres(t, wp, eps, moments)):
            (a, bu, g), (_, bw, _) = charge(*charges[2 * i]), charge(*charges[2 * i + 1])
            for k0 in range(c - down, c + up + 1):
                j = abs(k0 - c)
                q = a + (bu if k0 > c else bw) * j + g * j * (j - 1)
                direct[k0 % 4][k1 % 4] += q
                kept.add((k0, k1))
                if k1:
                    direct[-k0 % 4][-k1 % 4] += q
                    kept.add((-k0, -k1))
        assert bounds == [[q * 2.0 ** -wp for q in row] for row in direct], eps
        form = {k: math.pi * (y[0] * k[0] ** 2 + 2 * y[1] * k[0] * k[1] + y[2] * k[1] ** 2)
                for k in square}
        in_e = {k for k in square if form[k] <= rho2}
        assert in_e <= kept <= {k for k in square if form[k] <= rho2 * (1 + 1e-6)}, eps
        for r0 in range(4):
            for r1 in range(4):
                count = sum(1 for k in kept if (k[0] % 4, k[1] % 4) == (r0, r1))
                assert unit[r0][r1] == count * 2.0 ** -wp, (eps, r0, r1)
                if r1:
                    assert bounds[r0][r1] == bounds[-r0 % 4][-r1 % 4] > 0, (eps, r0, r1)
    for n in range(12):
        direct = [[0, 0, 0] for _ in range(4)]
        for j in range(1, n + 1):
            direct[j % 4] = [a + b for a, b in zip(direct[j % 4], (1, j, j * (j - 1)))]
        assert [list(s) for s in theta._ray_steps(n)] == direct, n
    for c in range(4):
        for up in range(7):
            for down in range(7):
                direct = [[0, 0, 0, 0] for _ in range(4)]
                for k0 in range(c - down, c + up + 1):
                    j = abs(k0 - c)
                    cell = direct[k0 % 4]
                    cell[0] += 1
                    cell[1 if k0 > c else 2] += j
                    cell[3] += j * (j - 1)
                assert theta._row_steps(c, up, down) == direct, (c, up, down)


def _centres(t, wp, eps, moments=False):
    """(k1, centre) of each row the walk sums: the row centre
    nint(-Y12 k1 / Y11) clipped to the row's chord, rows left empty by E
    skipped."""
    y, (_, keep, _, _) = _ellipse_of(t, wp, eps, moments)
    return [(k1, min(hi, max(lo, round(-y[1] / y[0] * k1))))
            for k1, (lo, hi) in enumerate(_chords(y, keep)) if lo <= hi]


def _lam_012(near_point):
    return near_point(0.12, 0.5, 0.4, 0.3, -0.2, 0.25)


def _omitted(t, rho2, lam):
    """For each translate k = m' mod 2, the sums of e^{-q(k)} and of
    |k0^2|, |2 k0 k1| and |k1^2| times it over the k with q(k) > rho2,
    q(k) = pi k^T Y k, Y = Im T (lam its least eigenvalue), at 70 digits
    and out to where the terms fall below 10^-80."""
    far = 80 * math.log(10)
    K = math.ceil(math.sqrt(far / (math.pi * lam)))
    yf = [to_float(z[1]) for z in t]
    out = {mpv: [mp.mpf(0)] * 4 for mpv in MPRIME_ORDER}
    with mp.workdps(70):
        y = [mp.mpf(z[1]) for z in t]
        for k0 in range(-K, K + 1):
            for k1 in range(-K, K + 1):
                if math.pi * (yf[0] * k0 * k0 + 2 * yf[1] * k0 * k1 + yf[2] * k1 * k1) > far + 5:
                    continue
                q = mp.pi * (y[0] * k0 * k0 + 2 * y[1] * k0 * k1 + y[2] * k1 * k1)
                if q > rho2:
                    term, cell = mp.exp(-q), out[k0 % 2, k1 % 2]
                    for i, w in enumerate((1, k0 * k0, abs(2 * k0 * k1), k1 * k1)):
                        cell[i] += w * term
    return out


def _omitted_point(name, near_point):
    return _skewed() if name == "skewed" else _lam_012(near_point)


@pytest.mark.parametrize("name,prec,low_eps", [
    pytest.param(*case.values, None, id=case.id) for case in _cases(["skewed", "lam_min 0.12"])] + [
    # eps below the double resolution target, so that eps sets rho
    pytest.param("skewed", "double", 1e-20, id="double-skewed, eps 1e-20")])
def test_omitted_terms_within_their_charge(name, prec, low_eps, near_point):
    """Each kernel run sums E = {k : pi k^T Y k <= rho^2}, and charges
    P(rho) <= eps to every constant for the terms of its translate
    k = m' mod 2 of 2Z^2 that E leaves out.  At the first- and the
    second-order run, the moduli of exactly those terms, summed directly,
    are nonzero and at most the charge: the err of the constant less its
    class rounding bounds and its final rounding.  At double eps 1e-20,
    eps and not the resolution sets rho."""
    hiprec, eps, _, _ = PRECISIONS[prec]
    eps = low_eps or eps
    tau = _omitted_point(name, near_point)
    for shift, lam in ((-2, tau.lam_min / 4), (-1, tau.lam_min / 2)):
        with value_prec(hiprec):
            run = _run_kernel(tau, shift, eps, hiprec)
            t = _raw_entries(tau, shift)
            bits = mp.mp.prec + GUARD_BITS if hiprec else 53
            y, (rho2, _, cut, _) = _ellipse_of(t, bits, eps)
            thetas = [_theta(run, mpv, (0, 0)) for mpv in MPRIME_ORDER]
        assert run.cut == cut <= eps
        if low_eps:
            assert _ellipse(y, bits, 1.0)[0] < rho2
        omitted = _omitted(t, rho2, lam)
        for mpv, tv in zip(MPRIME_ORDER, thetas):
            rounding = (sum(run.bounds[r0][r1] for r0, r1 in _CLASSES[mpv])
                        + run.ulp * abs(complex(tv.value)))
            assert 0 < omitted[mpv][0] <= tv.err - rounding, (shift, mpv)


@pytest.mark.parametrize("name,prec", _cases(["skewed", "lam_min 0.12"]))
def test_omitted_weighted_terms_within_their_bound(name, prec, near_point):
    """A moment run takes rho from eps alone and bounds the terms of each
    gradient entry outside E by W(rho) <= eps.  For each translate, the
    weighted moduli pi/2 |w| e^{-q(k)} of those terms, w = k0^2, 2 k0 k1
    and k1^2, summed directly, are nonzero and at most W(rho)."""
    hiprec, eps, _, _ = PRECISIONS[prec]
    tau = _omitted_point(name, near_point)
    with value_prec(hiprec):
        run = _run_kernel(tau, -1, eps, hiprec, moments=True)
        t = _raw_entries(tau, -1)
        bits = mp.mp.prec + GUARD_BITS if hiprec else 53
        rho2 = _ellipse_of(t, bits, eps, moments=True)[1][0]
    assert run.cut <= eps
    omitted = _omitted(t, rho2, tau.lam_min / 2)
    for mpv in MPRIME_ORDER:
        for w in omitted[mpv][1:]:
            assert 0 < mp.pi / 2 * w <= run.cut, mpv


def _count_exponentials(monkeypatch):
    """Record each mpmath exponential the walk takes: it reads
    mpmath.libmp.mpc_expjpi at call time."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return mpc_expjpi(*args, **kwargs)

    monkeypatch.setattr(mp.libmp, "mpc_expjpi", counted)
    return calls


@pytest.mark.parametrize("radius", [3, 12])
def test_walk_makes_three_exponentials(radius, monkeypatch):
    """A run takes e^{pi i T11}, e^{pi i T12} and e^{pi i T22} from mpmath
    and derives every other factor by multiplication, whatever the size
    of E: at eps = e^{-radius^2}, the resolution of 16 digits sets rho at
    radius 3, and eps at radius 12."""
    calls = _count_exponentials(monkeypatch)
    with mp.workdps(16):
        _walk(_raw_entries(_generic(), -2), mp.mp.prec + GUARD_BITS, math.exp(-radius ** 2))
    assert len(calls) == 3


def test_all_even_makes_three_exponentials(monkeypatch):
    """The ten even constants in high precision come from one run, and so
    from three mpmath exponentials."""
    calls = _count_exponentials(monkeypatch)
    theta_all_even(_generic(), PRECISIONS["hiprec"][1], hiprec=True)
    assert len(calls) == 3


def test_long_recurrence_against_direct_sum(near_point, direct_mp):
    """At lam_min 0.03 the first-order walk derives the seeds of more
    than 35 rows from its start row; the second-order constants and one
    even constant per m' class still match the direct sum within their
    err."""
    hiprec, eps, dps, slack = PRECISIONS["hiprec"]
    tau = near_point(0.03, 0.5, 0.4, 0.3, -0.2, 0.25)
    with value_prec(hiprec):
        y, (_, keep, _, _) = _ellipse_of(_raw_entries(tau, -2), mp.mp.prec + GUARD_BITS, eps)
    assert len(_chords(y, keep)) > 35  # rows k1 in [0, 35] and more
    tau2 = doubled(tau)
    R = _reference_radius(tau2, dps)
    for mpv, tv in zip(MPRIME_ORDER, theta_second_vector(tau, eps, hiprec)):
        ref = direct_mp(mpv, (0, 0), _entries(tau2, hiprec), R, dps)
        assert _diff(tv.value, ref, dps) <= tv.err + slack, mpv
    R = _reference_radius(tau, dps)
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
    R = _reference_radius(doubled(tau), dps)
    T = _entries(doubled(tau), hiprec)
    for mpv, grad in zip(MPRIME_ORDER, theta_gradient_vector(tau, eps, hiprec)):
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
    """One run for the ten even constants, one for the four second-order
    constants and one for the four gradients, whichever kernel fills the
    sums; so chi5_determinant makes at most two."""
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
    for fn, runs in ((lambda: theta_all_even(tau, eps, hiprec), 1),
                     (lambda: theta_second_vector(tau, eps, hiprec), 1),
                     (lambda: theta_gradient_vector(tau, eps, hiprec), 1),
                     (lambda: chi5_determinant(tau, eps, hiprec), 2)):
        calls.clear()
        fn()
        assert len(calls) == runs


@pytest.mark.parametrize("prec", sorted(PRECISIONS))
def test_all_even_computes_its_ellipse_once(prec, monkeypatch):
    """The one kernel run of theta_all_even sums one ellipse, computed
    once."""
    import azy5.theta as theta
    hiprec, eps, _, _ = PRECISIONS[prec]
    ellipse, calls = theta._ellipse, []

    def counted(*args):
        calls.append(args)
        return ellipse(*args)

    monkeypatch.setattr(theta, "_ellipse", counted)
    theta_all_even(_generic(), eps, hiprec)
    assert len(calls) == 1


@pytest.mark.parametrize("prec", sorted(PRECISIONS))
def test_near_singular_point_is_refused_before_any_work(prec, near_point, monkeypatch):
    """At lam_min 1e-8 the square that holds E is far wider than the cap
    of 8192 that _class_points' int16 entries hold: both the first- and
    the second-order run raise before any point array, exponential or
    row walk is made."""
    import azy5.theta as theta
    hiprec, eps, _, _ = PRECISIONS[prec]
    calls = _count_exponentials(monkeypatch)
    monkeypatch.setattr(theta, "_class_points", lambda *a: calls.append(a))
    monkeypatch.setattr(theta, "_chords", lambda *a: calls.append(a))
    tau = near_point(1e-8, 0.5, 0.4, 0.3, -0.2, 0.25)
    for fn in (theta_all_even, theta_second_vector):
        with pytest.raises(RuntimeError, match="too close to singular"):
            fn(tau, eps, hiprec)
    assert not calls
