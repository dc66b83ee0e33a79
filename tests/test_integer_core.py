"""The coefficient-list core (arith.z*) and the list path of the transforms, the conversions and the canonical form.

The transforms, the theta/derivative conversions and translate run on
coefficient lists: over Q on ints, with the gcd by the primitive remainder
sequence, and over Q(sqrt d) on the scalars themselves, where only the gcd
and content tail (canonical_from_d) keeps Polynomial arithmetic.  The checks
here compare the lists with sympy's gcd, with the Polynomial expressions
in canonical_reference.py (the conversions, the expansion and the canonical
form of a derivative form) on the same inputs, and with the Polynomial round
trip there.  Results are compared by to_json(), so scalar types count: over
Q(sqrt d) a coefficient with zero sqrt part must be a QuadraticNumber
exactly where the Polynomial expression makes it one.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import canonical_reference
from picardfuchs import CATALOG, CHAINS, MobiusMap, ThetaOperator, reproduce_reduction
from picardfuchs import arith, optheta, transform
from picardfuchs.arith import Polynomial, QuadraticNumber, collapse, poly_gcd, zadd, zderiv, zgcd, zmul, zprimitive, zquo
from picardfuchs.errors import InexactDivision, UnresolvedFactor
from picardfuchs.optheta import DOperator, d_from_theta, theta_from_d, translate
from picardfuchs.transform import ShiftAssignment, mobius, pullback_rational, shift_exponents, translate_to_origin

from canonical_reference import (
    euclid_gcd,
    reference_canonical_from_d,
    reference_d_from_theta,
    reference_expand,
    reference_expand_rows,
    reference_from_d,
    reference_normalized,
    reference_theta_from_d,
)
from scalar_reference import taylor_shift as scalar_taylor_shift
from shapes import fuchsian_shapes, quadratic_maps, quadratic_scalars, quadratic_shapes, rational_maps

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
    """pullback_rational as Polynomial arithmetic: the homogenised coefficients handed to reference_expand."""
    p, q = phi.num, phi.den
    w = p.derivative() * q - p * q.derivative()
    dcoeffs = reference_d_from_theta(op).d_coeffs
    top = max((c.degree for c in dcoeffs), default=0)
    ppow, qpow = [Polynomial((1,))], [Polynomial((1,))]
    for _ in range(top):
        ppow.append(ppow[-1] * p)
        qpow.append(qpow[-1] * q)
    homog = [ppow[i] * qpow[top - i] for i in range(top + 1)]
    coeffs = [sum((homog[i] * ci for i, ci in enumerate(c.coeffs) if ci), Polynomial(())) for c in dcoeffs]
    return reference_expand(coeffs, q * q * (1 / w.lead), w.monic(), Polynomial(()))


def _polynomial_shift(op, shifts):
    items = ShiftAssignment(shifts).items
    ell, gauge = Polynomial((1,)), Polynomial(())
    for a, _eps in items:
        ell = ell * Polynomial((-a, 1))
    for a, eps in items:
        gauge = gauge - ell / Polynomial((-a, 1)) * eps
    return reference_expand(reference_d_from_theta(op).d_coeffs, ell, ell, gauge)


def _on_reference(fn, *args):
    # reference_expand hands its result to reference_canonical_from_d; the reference round trip takes its place
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(canonical_reference, "reference_canonical_from_d", reference_from_d)
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
# over Q(sqrt -3) the lists give the types of the Polynomial expressions


@st.composite
def _quadratic_mobius_maps(draw):
    a, b, c, d = (draw(quadratic_scalars()) for _ in range(4))
    assume(a * d != b * c)
    return MobiusMap(a, b, c, d)


@st.composite
def _quadratic_shifts(draw):
    shifts = {}
    for a in draw(st.lists(quadratic_scalars(), min_size=1, max_size=3)):
        shifts.setdefault(collapse(a), draw(quadratic_scalars()))
    return shifts


def _quadratic_polys(max_size):
    # zero entries drawn "zero sqrt" are QuadraticNumber zeros inside the list
    return st.lists(quadratic_scalars(), max_size=max_size).map(Polynomial)


@settings(max_examples=150, deadline=None)
@given(
    coeffs=st.lists(_quadratic_polys(4), min_size=1, max_size=4),
    alpha=_quadratic_polys(3),
    beta=_quadratic_polys(3).filter(bool),
    gamma=_quadratic_polys(3),
)
def test_expand_gives_the_rows_of_the_polynomial_expression(coeffs, alpha, beta, gamma):
    got = transform._expand([c.coeffs for c in coeffs], alpha.coeffs, beta.coeffs, gamma.coeffs)
    want = reference_expand_rows(coeffs, alpha, beta, gamma)
    assert [DOperator([Polynomial(r)]).to_json() for r in got] == [DOperator([w]).to_json() for w in want]


@settings(max_examples=40, deadline=None)
@given(
    op=quadratic_shapes(),
    a=quadratic_scalars(),
    phi=quadratic_maps(),
    m=_quadratic_mobius_maps(),
    shifts=_quadratic_shifts(),
)
def test_quadratic_lists_give_the_polynomial_types(op, a, phi, m, shifts):
    dop = reference_d_from_theta(op)
    assert d_from_theta(op).to_json() == dop.to_json()
    assert _json(theta_from_d(dop)) == _json(reference_theta_from_d(dop))
    shifted = [c.shift(a) for c in dop.d_coeffs]
    assert _json(translate(op, a)) == _json(reference_theta_from_d(DOperator(shifted)))
    # translate_to_origin takes a zero sqrt part as rational, translate does not
    shifted = [c.shift(collapse(a)) for c in dop.d_coeffs]
    assert _json(translate_to_origin(op, a)) == _json(reference_canonical_from_d(shifted))
    assert _json(pullback_rational(op, phi)) == _json(_polynomial_pullback(op, phi))
    want = m.as_rational_function()
    assert _json(mobius(op, m)) == _json(_polynomial_pullback(op, want))
    assert _json(shift_exponents(op, shifts)) == _json(_polynomial_shift(op, shifts))


def test_a_sum_cancelled_at_the_top_starts_afresh():
    # derivative-form row 1 gets S(1,1), S(2,1), S(3,1) times the theta, theta^2, theta^3 coefficients at
    # t^1: the first two cancel, so the Polynomial sum drops the zero and the third keeps its Fraction type
    op = ThetaOperator([Polynomial([0, QuadraticNumber(1, 0, -3), QuadraticNumber(-1, 0, -3), 1])])
    assert d_from_theta(op).to_json() == reference_d_from_theta(op).to_json()
    assert type(d_from_theta(op).d_coeffs[1][1]) is Fraction


# ---------------------------------------------------------------------------
# the chains over Q never reach the Polynomial tail

RATIONAL_CHAINS = [name for name in CHAINS if name != "266chain"]


def test_rational_chains_stay_on_the_integer_path(monkeypatch):
    def forbidden(*args):
        raise AssertionError("Polynomial path reached")

    monkeypatch.setattr(transform, "canonical_from_d", forbidden)
    monkeypatch.setattr(optheta, "canonical_from_d", forbidden)
    monkeypatch.setattr(arith, "_euclid_gcd", forbidden)
    assert len(RATIONAL_CHAINS) == 10
    for name in RATIONAL_CHAINS:
        assert reproduce_reduction(name).ok, name


def test_the_quadratic_mobius_step_takes_the_polynomial_path(monkeypatch):
    # the patch above would see a Polynomial tail: the Q(sqrt -3) step of 266chain takes one
    calls = []
    tail = transform.canonical_from_d

    def counted(*args):
        calls.append(args)
        return tail(*args)

    monkeypatch.setattr(transform, "canonical_from_d", counted)
    assert reproduce_reduction("266chain").ok
    assert len(calls) == 1



# ---------------------------------------------------------------------------
# the root finder over Q runs on Z[t] lists: no Polynomial division, no poly_gcd


def test_rational_exponents_stay_on_the_integer_path(monkeypatch):
    def forbidden(*args):
        raise AssertionError("Polynomial path reached")

    monkeypatch.setattr(Polynomial, "__divmod__", forbidden)
    monkeypatch.setattr(arith, "_euclid_gcd", forbidden)
    # optheta and transform bind poly_gcd by name
    for module in (arith, optheta, transform):
        monkeypatch.setattr(module, "poly_gcd", forbidden)
    # the Q(sqrt -3) points of 266/273 too: their root multiplicities come from one shift
    points = [(rec.operator, pt) for _aid, rec in sorted(CATALOG.items()) for pt in optheta.singular_points(rec.operator)]
    assert len(points) == 113
    for op, pt in points:
        assert len(optheta.exponents_at(op, pt)) == op.order, pt
    with pytest.raises(UnresolvedFactor) as got:
        arith.roots_in_quadratic_closure(Polynomial([-1, 2]) * Polynomial([-2, 0, 0, 1]) * Polynomial([1, 0, 1]))
    assert got.value.factor == Polynomial([-2, 0, 0, 1])


# ---------------------------------------------------------------------------
# Polynomial.shift over Q(sqrt d) runs on integer pairs: no QuadraticNumber sum or product


def _without_quadratic_arithmetic(f):
    def forbidden(*args):
        raise AssertionError("QuadraticNumber arithmetic reached")

    with pytest.MonkeyPatch.context() as patch:
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
            patch.setattr(QuadraticNumber, name, forbidden)
        return f()


@settings(max_examples=100, deadline=None)
@given(coeffs=st.lists(quadratic_scalars(), max_size=6), a=quadratic_scalars())
def test_quadratic_shifts_stay_on_the_integer_path(coeffs, a):
    p = Polynomial(coeffs)
    got = _without_quadratic_arithmetic(lambda: p.shift(a))
    assert DOperator([got]).to_json() == DOperator([Polynomial(scalar_taylor_shift(p.coeffs, a))]).to_json()


def test_translation_of_266_to_its_quadratic_point_stays_on_the_integer_path():
    op, point = CATALOG[266].operator, QuadraticNumber(Fraction(-1, 4), Fraction(1, 4), -3)
    dop = d_from_theta(op)
    got = _without_quadratic_arithmetic(lambda: [c.shift(point) for c in dop.d_coeffs])
    want = DOperator([Polynomial(scalar_taylor_shift(c.coeffs, point)) for c in dop.d_coeffs])
    assert DOperator(got).to_json() == want.to_json()
    assert _json(translate(op, point)) == _json(theta_from_d(want))
