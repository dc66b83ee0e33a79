"""Differential tests of the polynomial root machinery against sympy, a test-only oracle.

poly_gcd, squarefree_factor and roots_in_quadratic_closure run on products of
random rational linear, quadratic and cubic factors, so that repeated factors,
irrational quadratic roots and irreducible cubics all occur.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picardfuchs.arith import Polynomial, QuadraticNumber, poly_gcd, roots_in_quadratic_closure, squarefree_factor
from picardfuchs.errors import UnresolvedFactor

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
    lead = draw(st.sampled_from([Fraction(1), Fraction(-2), Fraction(3, 2)]))
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
def test_squarefree_factor_matches_sympy(p):
    got = {}
    for factor, mult in squarefree_factor(p):
        got[mult] = got.get(mult, ()) + (factor.monic().coeffs,)
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
