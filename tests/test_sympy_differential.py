"""Differential tests of the polynomial root machinery against sympy, a test-only oracle.

poly_gcd, zsquarefree and roots_in_quadratic_closure run on products of
random rational linear, quadratic and cubic factors, most of them not monic,
so that repeated factors, irrational quadratic roots, irreducible cubics and
rational roots n/d with d > 1 all occur.  Over Q(sqrt(-3))
roots_in_quadratic_closure and indicial_roots run on products of linear
factors over the field, rational quadratics and quadratics with roots in
Q(sqrt 2), checked against sympy's factorization with extension=sqrt(-3).
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from picardfuchs.arith import (
    Polynomial,
    QuadraticNumber,
    integer_rows,
    poly_gcd,
    roots_in_quadratic_closure,
    scalar_sort_key,
    zprimitive,
    zsquarefree,
)
from picardfuchs.errors import IrrationalExponent, UnresolvedFactor
from picardfuchs.optheta import indicial_roots

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")
_coefficient = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def _to_sympy(p):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)] or [0], X, domain="QQ")


def _monic_coeffs(poly):
    """Coefficients of a sympy Poly over QQ made monic, as Fractions in ascending degree."""
    poly = poly.monic()
    return tuple(Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs()))


@st.composite
def _factor(draw, degree):
    cs = draw(st.lists(_coefficient, min_size=degree, max_size=degree))
    lead = draw(st.sampled_from([Fraction(1), Fraction(-2), Fraction(3, 2), Fraction(6), Fraction(-10, 7)]))
    return Polynomial(cs + [lead])


@st.composite
def _products(draw, max_cubics=1):
    """A product of 0-3 linear, 0-2 quadratic and up to max_cubics cubic factors, each with multiplicity 1-2."""
    p = Polynomial([draw(st.sampled_from([Fraction(1), Fraction(-5, 3)]))])
    for degree, most in ((1, 3), (2, 2), (3, max_cubics)):
        for _ in range(draw(st.integers(0, most))):
            p = p * draw(_factor(degree)) ** draw(st.integers(1, 2))
    return p


@settings(max_examples=60, deadline=None)
@given(a=_products(), b=_products(), common=_products())
def test_poly_gcd_matches_sympy(a, b, common):
    a, b = a * common, b * common
    got = poly_gcd(a, b)
    assert got.coeffs == _monic_coeffs(sympy.gcd(_to_sympy(a), _to_sympy(b)))
    assert got.lead == 1


@settings(max_examples=60, deadline=None)
@given(p=_products())
def test_zsquarefree_matches_sympy(p):
    got = {}
    (row,), _ = integer_rows([p])
    for factor, mult in zsquarefree(zprimitive(row)):
        got[mult] = got.get(mult, ()) + (Polynomial(factor).monic().coeffs,)
    _lead, parts = sympy.sqf_list(_to_sympy(p))
    want = {}
    for factor, mult in parts:
        if factor.degree() >= 1:
            want[mult] = want.get(mult, ()) + (_monic_coeffs(factor),)
    assert {m: sorted(fs) for m, fs in got.items()} == {m: sorted(fs) for m, fs in want.items()}


def _root_to_sympy(r):
    if isinstance(r, QuadraticNumber):
        return sympy.Rational(r.a.numerator, r.a.denominator) + sympy.Rational(
            r.b.numerator, r.b.denominator
        ) * sympy.sqrt(r.d)
    return sympy.Rational(r.numerator, r.denominator)


@settings(max_examples=60, deadline=None)
@given(p=_products())
def test_roots_in_quadratic_closure_matches_sympy(p):
    _lead, factors = sympy.factor_list(_to_sympy(p))
    if any(f.degree() >= 3 for f, _m in factors):
        # an irreducible factor of degree >= 3 has no root in a quadratic field
        with pytest.raises(UnresolvedFactor):
            roots_in_quadratic_closure(p)
        return
    got = [_root_to_sympy(r) for r in roots_in_quadratic_closure(p)]
    want = sympy.roots(_to_sympy(p), multiple=True)
    assert len(got) == len(want) == p.degree
    # each root of ours is exactly one of sympy's, with the same multiplicity
    for r in got:
        assert sum(1 for w in want if sympy.expand(w - r) == 0) == got.count(r)


# ---------------------------------------------------------------------------
# coefficients in Q(sqrt(-3))

SQRT_M3 = sympy.sqrt(-3)


def _scalar_to_sympy(c):
    if isinstance(c, QuadraticNumber):
        return _root_to_sympy(c)
    return sympy.Rational(c.numerator, c.denominator)


def _expr(p):
    return sum((_scalar_to_sympy(c) * X**k for k, c in enumerate(p.coeffs)), sympy.Integer(0))


@st.composite
def _sqrt3_products(draw):
    """1-2 linear factors t - (a + b sqrt(-3)), the first with b != 0, and 0-2 rational quadratics.

    A quadratic is (t - a)^2 + 3 b^2 (roots a +- b sqrt(-3)), (t - a)^2 - 2 b^2
    (roots in Q(sqrt 2)) or a random monic one; every factor has multiplicity 1-2.
    """
    p = Polynomial([draw(st.sampled_from([Fraction(1), Fraction(-5, 3)]))])
    for k in range(draw(st.integers(1, 2))):
        a = draw(_coefficient)
        b = draw(_coefficient.filter(bool) if k == 0 else _coefficient)
        p = p * Polynomial([-QuadraticNumber(a, b, -3), 1]) ** draw(st.integers(1, 2))
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(_coefficient), draw(_coefficient.filter(bool))
        kind = draw(st.sampled_from(["splits", "sqrt2", "random"]))
        if kind == "random":
            q = Polynomial([draw(_coefficient), draw(_coefficient), 1])
        else:
            q = Polynomial([a * a + (3 if kind == "splits" else -2) * b * b, -2 * a, 1])
        p = p * q ** draw(st.integers(1, 2))
    assume(any(isinstance(c, QuadraticNumber) and c.b for c in p.coeffs))
    return p


def _expected_roots(p):
    """{root: multiplicity} from sympy's factors of p over Q(sqrt(-3)), or None when one has degree >= 2."""
    _lead, factors = sympy.factor_list(_expr(p), X, extension=SQRT_M3)
    if any(sympy.degree(f, X) >= 2 for f, _m in factors):
        return None
    want = {}
    for f, m in factors:
        c1, c0 = sympy.Poly(f, X).all_coeffs()
        want[-c0 / c1] = m
    return want


def _same_roots(got, want):
    """got, a list of (root, multiplicity), names each root in want once with its multiplicity."""
    assert len(got) == len(want)
    for r, m in got:
        hits = [w for w in want if sympy.expand(w - _root_to_sympy(r)) == 0]
        assert len(hits) == 1 and want[hits[0]] == m


@settings(max_examples=40, deadline=None)
@given(p=_sqrt3_products())
def test_roots_over_sqrt_minus_3_match_sympy(p):
    want = _expected_roots(p)
    if want is None:
        # a factor without roots in Q(sqrt(-3)): irreducible over the field, or roots in Q(sqrt 2)
        with pytest.raises(UnresolvedFactor):
            roots_in_quadratic_closure(p)
        return
    got = roots_in_quadratic_closure(p)
    assert len(got) == p.degree
    assert got == sorted(got, key=scalar_sort_key)
    assert all(type(r) is Fraction or (type(r) is QuadraticNumber and r.d == -3 and r.b) for r in got)
    _same_roots([(r, got.count(r)) for r in dict.fromkeys(got)], want)


def test_roots_over_sqrt_minus_3_with_a_sqrt_2_factor():
    # (t - sqrt(-3))^2 (t^2 - 2): the norm has the roots +-sqrt 2, which are roots of p too
    p = Polynomial([-QuadraticNumber(0, 1, -3), 1]) ** 2 * Polynomial([-2, 0, 1])
    with pytest.raises(UnresolvedFactor) as got:
        roots_in_quadratic_closure(p)
    assert got.value.factor == Polynomial([-2, 0, 1])
    assert roots_in_quadratic_closure(p / Polynomial([-2, 0, 1])) == [QuadraticNumber(0, 1, -3)] * 2


@settings(max_examples=40, deadline=None)
@given(p=st.one_of(_products(), _sqrt3_products()))
def test_indicial_roots_match_sympy(p):
    if any(isinstance(c, QuadraticNumber) and c.b for c in p.coeffs):
        want = _expected_roots(p)
    else:
        _lead, factors = sympy.factor_list(_to_sympy(p))
        want = None if any(f.degree() >= 3 for f, _m in factors) else sympy.roots(_to_sympy(p))
    if want is None:
        with pytest.raises(IrrationalExponent):
            indicial_roots(p)
        return
    got = indicial_roots(p)
    roots = [r for r, _m in got]
    assert len(set(roots)) == len(roots) and sum(m for _r, m in got) == p.degree
    _same_roots(got, want)
