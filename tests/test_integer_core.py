"""The integer polynomial core (arith.z*) and the integer path of the transforms and the canonical form.

Over Q the transforms, normalized(), translate and d_from_theta run on
integer coefficient lists, with the gcd by the primitive remainder
sequence; canonical_from_d and theta_from_d keep Polynomial arithmetic, the
entries for Q(sqrt d).  The checks here compare the integer path with sympy's
gcd, with the Polynomial expansion transform._expand (and canonical_from_d)
on the same inputs, and with the Polynomial round trip in
canonical_reference.py.  Results are compared by to_json(), so scalar types
count.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from picardfuchs import CHAINS, MobiusMap, ThetaOperator, reproduce_reduction
from picardfuchs import arith, optheta, transform
from picardfuchs.arith import Polynomial, poly_gcd, zadd, zderiv, zgcd, zmul, zprimitive, zquo
from picardfuchs.errors import InexactDivision
from picardfuchs.optheta import d_from_theta, theta_from_d, translate
from picardfuchs.transform import mobius, pullback_rational, shift_exponents, translate_to_origin

from canonical_reference import (
    euclid_gcd,
    reference_d_from_theta,
    reference_from_d,
    reference_normalized,
    reference_theta_from_d,
)
from shapes import fuchsian_shapes, rational_maps

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")


# ---------------------------------------------------------------------------
# the kernel on Z[t]


@st.composite
def _zpolys(draw, max_degree, bits):
    cs = draw(st.lists(st.integers(-(2**bits), 2**bits), min_size=1, max_size=max_degree + 1))
    lead = draw(st.integers(1, 2**bits)) * draw(st.sampled_from([1, -1]))
    return cs[:-1] + [lead]


def _sympy_gcd(a, b):
    a, b = (sympy.Poly(list(reversed(f)) or [0], X, domain="ZZ") for f in (a, b))
    g = sympy.gcd(a, b)
    return zprimitive([int(c) for c in reversed(g.all_coeffs())] if not g.is_zero else [])


@settings(max_examples=150, deadline=None)
@given(
    common=_zpolys(3, 6),
    a=_zpolys(4, 80),
    b=_zpolys(4, 3),
    content=st.sampled_from([1, 6, -(2**70)]),
)
def test_zgcd_matches_sympy_with_a_common_factor(common, a, b, content):
    # large coefficients in one cofactor, a nontrivial common factor and a content that must not show
    A, B = zmul([content], zmul(common, a)), zmul(common, b)
    want = _sympy_gcd(A, B)
    assert zgcd(A, B) == want
    assert len(want) >= len(zprimitive(common))


@settings(max_examples=100, deadline=None)
@given(a=_zpolys(6, 200), b=_zpolys(6, 200))
def test_zgcd_matches_sympy_on_random_pairs(a, b):
    assert zgcd(a, b) == _sympy_gcd(a, b)


def test_zgcd_edge_cases():
    assert zgcd([], []) == []
    assert zgcd([], [-4, -2]) == [2, 1] == zgcd([-4, -2], [])
    assert zgcd([6], [0, 3]) == [1]
    # (t - 1)^2 (t + 2) and (t - 1)(t + 3)^2, with contents 4 and 9
    a = zmul([4], zmul(zmul([-1, 1], [-1, 1]), [2, 1]))
    b = zmul([9], zmul([-1, 1], zmul([3, 1], [3, 1])))
    assert zgcd(a, b) == [-1, 1] == zgcd(b, a)


def test_kernel_arithmetic():
    assert zadd([1, 2, 3], [-1, -2, -3]) == []
    assert zadd([1], [0, 0, 5]) == [1, 0, 5]
    assert zmul([1, 1], [-1, 1]) == [-1, 0, 1]
    assert zmul([], [1, 2]) == []
    assert zderiv([7]) == [] and zderiv([1, 2, 3]) == [2, 6]
    assert zquo([-1, 0, 1], [1, 1]) == [-1, 1]
    assert zquo([], [3, 1]) == []
    assert zquo([4, 6], [2]) == [2, 3]


@pytest.mark.parametrize(
    "a, b",
    [
        ([1, 0, 1], [1, 1]),  # a remainder 2
        ([1, 1], [2]),  # exact over Q, not over Z
        ([3], [1, 1]),  # degree below the divisor's
        ([1, 3, 2], [1, 0, 2]),  # lead divisible, remainder nonzero
    ],
)
def test_inexact_quotient_raises(a, b):
    with pytest.raises(InexactDivision):
        zquo(a, b)


def test_inexact_quotient_raises_under_optimize(run_optimized):
    code = (
        "from picardfuchs.arith import zquo\n"
        "from picardfuchs.errors import InexactDivision\n"
        "for a, b in (([1, 0, 1], [1, 1]), ([1, 1], [2])):\n"
        "    try:\n"
        "        zquo(a, b)\n"
        "    except InexactDivision:\n"
        "        print('InexactDivision')\n"
    )
    assert run_optimized(code).split() == ["InexactDivision", "InexactDivision"]


_coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@settings(max_examples=60, deadline=None)
@given(
    p=st.lists(_coefficient, max_size=5).map(Polynomial),
    q=st.lists(_coefficient, max_size=5).map(Polynomial),
    r=st.lists(_coefficient, min_size=1, max_size=3).map(Polynomial),
)
def test_poly_gcd_over_q_is_the_monic_form_of_the_euclid_gcd(p, q, r):
    p, q = p * r, q * r
    assert poly_gcd(p, q).coeffs == euclid_gcd(p, q).coeffs


# ---------------------------------------------------------------------------
# the integer path against the Polynomial expansion and the round trip


def _json(op):
    return op.to_json()


def _polynomial_pullback(op, phi):
    """pullback_rational as Polynomial arithmetic: the homogenised coefficients handed to transform._expand."""
    p, q = phi.num, phi.den
    w = p.derivative() * q - p * q.derivative()
    dcoeffs = reference_d_from_theta(op).d_coeffs
    top = max((c.degree for c in dcoeffs), default=0)
    homog = [p**i * q**(top - i) for i in range(top + 1)]
    coeffs = [sum((homog[i] * ci for i, ci in enumerate(c.coeffs) if ci), Polynomial(())) for c in dcoeffs]
    return transform._expand(coeffs, q * q * (1 / w.lead), w.monic(), Polynomial(()))


def _polynomial_shift(op, shifts):
    ell, gauge = Polynomial((1,)), Polynomial(())
    for a in shifts:
        ell = ell * Polynomial((-a, 1))
    for a, eps in shifts.items():
        gauge = gauge - ell / Polynomial((-a, 1)) * eps
    return transform._expand(reference_d_from_theta(op).d_coeffs, ell, ell, gauge)


def _on_reference(fn, *args):
    # transform._expand hands its result to canonical_from_d; the reference round trip takes its place
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transform, "canonical_from_d", reference_from_d)
        return fn(*args)


_small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
_scales = st.sampled_from([Fraction(1), Fraction(2, 3), Fraction(-5, 7)])


@st.composite
def _mobius_maps(draw):
    a, b, c, d = (draw(_small) for _ in range(4))
    assume(a * d != b * c)
    return MobiusMap(a, b, c, d)


@settings(max_examples=30, deadline=None)
@given(op=fuchsian_shapes(), scale=_scales, phi=rational_maps(), m=_mobius_maps())
def test_integer_pullback_and_mobius_match_the_polynomial_expansion(op, scale, phi, m):
    op = op.scale(scale)  # a common denominator to drop
    got = pullback_rational(op, phi)
    assert _json(got) == _json(_polynomial_pullback(op, phi)) == _json(_on_reference(_polynomial_pullback, op, phi))
    got = mobius(op, m)
    want = m.as_rational_function()
    assert _json(got) == _json(_polynomial_pullback(op, want)) == _json(_on_reference(_polynomial_pullback, op, want))


@settings(max_examples=30, deadline=None)
@given(
    op=fuchsian_shapes(),
    scale=_scales,
    points=st.lists(_small, min_size=1, max_size=3, unique=True),
    eps=st.lists(_small, min_size=3, max_size=3),
)
def test_integer_shift_matches_the_polynomial_expansion(op, scale, points, eps):
    op = op.scale(scale)
    shifts = dict(zip(points, eps))
    got = shift_exponents(op, shifts)
    assert _json(got) == _json(_polynomial_shift(op, shifts)) == _json(_on_reference(_polynomial_shift, op, shifts))


@settings(max_examples=30, deadline=None)
@given(op=fuchsian_shapes(), scale=_scales, a=_small, lift=st.integers(0, 2))
def test_integer_translation_normalization_and_conversions_match_the_round_trip(op, scale, a, lift):
    op = ThetaOperator([Polynomial(())] * lift + [p * scale for p in op.theta_coeffs])
    want = reference_from_d([c.shift(a) for c in reference_d_from_theta(op).d_coeffs])
    assert _json(translate_to_origin(op, a)) == _json(want)
    assert _json(op.normalized()) == _json(reference_normalized(op))
    # the conversions keep their values, and translate its unreduced theta form
    assert d_from_theta(op).to_json() == reference_d_from_theta(op).to_json()
    dop = reference_d_from_theta(op)
    assert _json(theta_from_d(dop)) == _json(reference_theta_from_d(dop))
    shifted = type(dop)([c.shift(a) for c in dop.d_coeffs])
    assert _json(translate(op, a)) == _json(reference_theta_from_d(shifted))


# ---------------------------------------------------------------------------
# the chains over Q never reach the Polynomial path

RATIONAL_CHAINS = [name for name in CHAINS if name != "266chain"]


def test_rational_chains_stay_on_the_integer_path(monkeypatch):
    def forbidden(*args):
        raise AssertionError("Polynomial path reached")

    monkeypatch.setattr(transform, "_expand", forbidden)
    monkeypatch.setattr(transform, "canonical_from_d", forbidden)
    monkeypatch.setattr(optheta, "canonical_from_d", forbidden)
    monkeypatch.setattr(arith, "_euclid_gcd", forbidden)
    assert len(RATIONAL_CHAINS) == 10
    for name in RATIONAL_CHAINS:
        assert reproduce_reduction(name).ok, name


def test_the_quadratic_mobius_step_takes_the_polynomial_path(monkeypatch):
    # the patch above would see a Polynomial call: the Q(sqrt -3) step of 266chain makes one
    calls = []
    expand = transform._expand

    def counted(*args):
        calls.append(args)
        return expand(*args)

    monkeypatch.setattr(transform, "_expand", counted)
    assert reproduce_reduction("266chain").ok
    assert len(calls) == 1

