"""The certified bounds of the signed sums (azy_eval, chi12, chi5_product,
chi10) and of the face products (phi, p2, f_m) against references: high
precision against twice HIPREC_DPS digits, double against high
precision, and, with the theta constants taken as exact, the rounding
bounds alone against the same arithmetic at 300 digits."""

import math
import operator
from functools import partial, reduce

import mpmath as mp
import pytest

import azy5.construction as construction
import azy5.forms as forms
import azy5.geometry as geometry
import azy5.numeric as numeric
from azy5.chars import EVEN_CHARS, even_quadruples
from azy5.cli import _FORMS_TAU
from azy5.construction import PHI_CONSTANT, phi
from azy5.forms import (azy_eval, azy_terms, chi5_product, chi10, chi12,
                        chi12_terms, face_product, mono_key, p2)
from azy5.geometry import all_faces, f_m, tetrahedron
from azy5.numeric import fsum_complex
from azy5.siegel import SiegelPoint
from azy5.theta import ThetaValue, theta_all_even, theta_second_vector

from conftest import near_boundary_point

FORMS = {"azy_eval": azy_eval, "chi12": chi12, "chi5_product": chi5_product, "phi": phi,
         "p2": p2, "chi10": chi10}


def _cusp(s):
    """tau = X + i s Y at the X, Y of the default forms point."""
    x = [[0.13, -0.21], [-0.21, 0.37]]
    y = [[1.0, 0.3], [0.3, 0.8]]
    return SiegelPoint([[x[i][j] + 1j * s * y[i][j] for j in range(2)] for i in range(2)])


POINTS = {
    "s1": _FORMS_TAU,
    "s10": _cusp(10),
    "s20": _cusp(20),
    "lam0.03": near_boundary_point(0.03, 0.4, 0.7, 0.2, -0.1, 0.3),
}


def _diff(a, b):
    with mp.workdps(2 * numeric.HIPREC_DPS + 20):
        return float(abs(mp.mpmathify(a) - mp.mpmathify(b)))


@pytest.mark.parametrize("point", POINTS)
@pytest.mark.parametrize("name", FORMS)
def test_hiprec_err_covers_twice_the_digits(name, point, monkeypatch):
    """At eps below the working precision, each bound is mostly the
    rounding of the series and of the products; it covers the distance
    to the same form at 2 * HIPREC_DPS digits."""
    fn, tau = FORMS[name], POINTS[point]
    value, err = fn(tau, 1e-60, True)[:2]
    monkeypatch.setattr(numeric, "HIPREC_DPS", 2 * numeric.HIPREC_DPS)
    ref, ref_err = fn(tau, 1e-110, True)[:2]
    assert _diff(value, ref) <= err + ref_err


def test_double_azy_err_covers_hiprec_under_cancellation():
    """At s = 2 the signed sum cancels to a hundredth of its largest
    monomial; the double err still covers the distance to high
    precision."""
    tau = _cusp(2)
    value, err, largest = azy_eval(tau)
    assert largest > 100 * abs(value)
    ref, ref_err, _ = azy_eval(tau, 1e-40, True)
    assert _diff(value, ref) <= err + ref_err
    assert err < 1e-8 * abs(value)


def _exact_inputs(monkeypatch, module, name, tau, hiprec):
    """Replace module.name (a theta evaluator) by one returning its values
    at tau with err 0, and return those values."""
    real = getattr(module, name)
    with numeric.value_prec(hiprec):
        got = real(tau, 1e-60 if hiprec else 1e-12, hiprec)
    keys = got.keys() if isinstance(got, dict) else range(len(got))
    values = {k: got[k].value for k in keys}
    fake = {k: ThetaValue(v, 0.0) for k, v in values.items()}
    if not isinstance(got, dict):
        fake = tuple(fake[k] for k in keys)
    monkeypatch.setattr(module, name, lambda tau, eps, hiprec: fake)
    return values


@pytest.mark.parametrize("hiprec", [False, True], ids=["double", "hiprec"])
@pytest.mark.parametrize("point", ["s1", "lam0.03"])
@pytest.mark.parametrize("name", ["azy_eval", "chi12", "chi5_product", "chi10"])
def test_signed_sum_rounding_bound(name, point, hiprec, monkeypatch):
    """With exact theta inputs the err of a signed sum is its rounding
    bound alone: it covers the distance to the sum of the same monomials
    of the same inputs at 300 digits."""
    th = _exact_inputs(monkeypatch, forms, "theta_all_even", POINTS[point], hiprec)
    terms = {"azy_eval": azy_terms(), "chi12": chi12_terms(),
             "chi5_product": ((1, tuple((m, 1) for m in th)),),
             "chi10": ((1, tuple((m, 2) for m in th)),)}[name]
    value, err = FORMS[name](POINTS[point], 1e-12, hiprec)[:2]
    with mp.workdps(300):
        ref = mp.fsum(s * mp.fprod(mp.mpmathify(th[m]) ** k for m, k in key)
                      for s, key in terms)
        diff = float(abs(mp.mpmathify(value) - ref))
        assert 0 < diff <= err
        assert err < (1e-42 if hiprec else 1e-9) * float(abs(ref))


def test_hiprec_phi_rounding_bound(monkeypatch):
    """With exact Theta inputs the err of high-precision phi is its
    rounding bound alone: it covers the distance to the 300-digit face
    product of the same inputs."""
    tau = POINTS["lam0.03"]
    x = _exact_inputs(monkeypatch, construction, "theta_second_vector", tau, True)
    got = phi(tau, 1e-12, True)
    with mp.workdps(300):
        ref = PHI_CONSTANT * mp.fprod(mp.fsum(a * x[k] for k, a in enumerate(face) if a)
                                      for face in all_faces())
        assert 0 < float(abs(got.value - ref)) <= got.err < 1e-45 * float(abs(ref))


# A plus-quadruple other than M0, whose faces have several terms.
_QUAD = even_quadruples("plus")[1]

# name -> (module whose theta_second_vector the form reads, the form at
# tau, its faces, its constant factor)
FACE_PRODUCTS = {
    "phi": (construction, phi, all_faces, PHI_CONSTANT),
    "p2": (forms, p2, lambda: forms._COORDINATE_FACES, 1),
    "f_m": (geometry, partial(f_m, _QUAD), lambda: tetrahedron(frozenset(_QUAD)).faces, 1),
}


@pytest.mark.parametrize("point", ["s1", "lam0.03"])
@pytest.mark.parametrize("name, hiprec", [
    ("phi", False), ("p2", False), ("p2", True), ("f_m", False), ("f_m", True)],
    ids=["phi-double", "p2-double", "p2-hiprec", "f_m-double", "f_m-hiprec"])
def test_face_product_rounding_bound(name, hiprec, point, monkeypatch):
    """With exact Theta inputs the err of a face product is its rounding
    bound alone: it covers the distance to the 300-digit product of the
    same faces of the same inputs (high-precision phi:
    test_hiprec_phi_rounding_bound)."""
    module, fn, faces, const = FACE_PRODUCTS[name]
    tau = POINTS[point]
    x = _exact_inputs(monkeypatch, module, "theta_second_vector", tau, hiprec)
    got = fn(tau, 1e-12, hiprec)
    with mp.workdps(300):
        ref = const * mp.fprod(mp.fsum(a * mp.mpmathify(x[k]) for k, a in enumerate(face) if a)
                               for face in faces())
        assert 0 < float(abs(got.value - ref)) <= got.err
        assert got.err < (1e-45 if hiprec else 1e-13) * float(abs(ref))


def _face_values(faces, x):
    """Each face at the second-order values x, one math.fsum per part."""
    out = []
    for face in faces:
        terms = [a * t.value for a, t in zip(face, x) if a]
        out.append(complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms)))
    return out


@pytest.mark.parametrize("point", [*POINTS, "lam0.12"])
def test_double_values_equal_per_element_reference(point):
    """Double face products and signed sums equal, bit for bit, their
    evaluation element by element: faces by math.fsum multiplied in the
    pairwise tree, and monomials by reduce(mul) summed by fsum_complex."""
    tau = POINTS.get(point) or near_boundary_point(0.12, 0.5, 0.4, 0.3, -0.2, 0.25)
    x = theta_second_vector(tau, 1e-12, False)
    for faces in (all_faces(), forms._COORDINATE_FACES, tetrahedron(frozenset(_QUAD)).faces):
        want = forms._pairwise_product(_face_values(faces, x))
        assert face_product(faces, x, False).value == want
    th = theta_all_even(tau, 1e-12, False)
    for terms in (azy_terms(), chi12_terms(), ((1, mono_key((m, 2) for m in EVEN_CHARS)),),
                  ((1, mono_key((m, 1) for m in EVEN_CHARS)),)):
        want = fsum_complex([s * reduce(operator.mul, (th[m].value ** k for m, k in key))
                             for s, key in terms])
        assert forms._signed_sum_eval(terms, tau, 1e-12, False)[0] == want


@pytest.mark.parametrize("hiprec", [False, True], ids=["double", "hiprec"])
def test_phi_with_a_zero_face(hiprec):
    """On H4 (tau11 = tau22) a face of phi is exactly zero: phi is 0, and
    its err is the whole bound 2^-44 prod(|L| + e) over the faces L with
    their errors e."""
    tau = SiegelPoint([[0.1 + 1j, 0.2 + 0.3j], [0.2 + 0.3j, 0.1 + 1j]])
    x = theta_second_vector(tau, 1e-12, hiprec)
    got = phi(tau, 1e-12, hiprec)
    if hiprec:
        with mp.workdps(400):
            mods = [float(abs(mp.fsum(a * mp.mpmathify(t.value) for a, t in zip(face, x) if a)))
                    for face in all_faces()]
    else:
        mods = [abs(v) for v in _face_values(all_faces(), x)]
    logs = []
    for face, m in zip(all_faces(), mods):
        e = sum(t.err for a, t in zip(face, x) if a) + (0.0 if hiprec else 2 * 2.0 ** -53 * m)
        logs.append(math.log(m + e))
    assert 0.0 in mods
    assert got.value == 0
    assert got.err == pytest.approx(-PHI_CONSTANT * math.exp(math.fsum(logs)), rel=1e-12, abs=0)


def test_double_face_product_leaving_the_range_raises():
    """60 factors of modulus 1e-20 would underflow a double product."""
    x = [ThetaValue(1e-20 + 0j, 0.0)] * 4
    with pytest.raises(ArithmeticError):
        face_product(forms._COORDINATE_FACES * 15, x, False)


def test_plans_are_found_by_identity():
    """A plan is built once per tuple of faces or of signed terms: the
    same tuple again is found without hashing it, and an equal tuple
    built anew finds the same plan by value."""
    hashes = []

    class Counted(tuple):
        def __hash__(self):
            hashes.append(1)
            return tuple.__hash__(self)

    for plan, key in ((forms._face_plan, all_faces()), (forms._term_plan, azy_terms())):
        counted = Counted(key)
        first = plan(counted)
        calls = len(hashes)
        assert calls >= 1
        assert plan(counted) is first and len(hashes) == calls
        assert plan(Counted(key)) is first
