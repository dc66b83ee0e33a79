"""Hypothesis strategies for generated Fuchsian operators and rational maps, shared by the test modules."""

from fractions import Fraction

from hypothesis import strategies as st

from picardfuchs import ThetaOperator
from picardfuchs.arith import Polynomial, QuadraticNumber, RationalFunction


def linear_product(roots, scale=1):
    p = Polynomial([Fraction(scale)])
    for root in roots:
        p = p * Polynomial([-root, Fraction(1)])
    return p


# local exponents from a few classes mod 1, with repeats and integer gaps, so
# that resonances and logarithms are common
_exponent = st.builds(
    lambda base, gap: base + gap,
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5)]),
    st.integers(0, 2),
)
_small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def fuchsian_shapes(draw):
    """theta-operators of hypergeometric shape P_0 - t P_1 or Hadamard shape P_0 + t P_1 + t^2 P_2."""
    n = draw(st.integers(1, 4))
    p0 = linear_product(draw(st.lists(_exponent, min_size=n, max_size=n)))
    top = linear_product(
        [-e for e in draw(st.lists(_exponent, min_size=n, max_size=n))],
        draw(st.sampled_from([-27, -4, -1, Fraction(1, 2), 1, 16])),
    )
    if draw(st.booleans()):
        polys = [p0, top]
    else:
        middle = Polynomial(draw(st.lists(_small, min_size=1, max_size=n + 1)))
        polys = [p0, middle, top]
    return ThetaOperator.from_theta_polys(polys)


_coefficient = st.fractions(min_value=-2, max_value=2, max_denominator=2)


@st.composite
def rational_maps(draw):
    """phi = P/Q with deg P, deg Q <= 2, not constant."""
    num = Polynomial(draw(st.lists(_coefficient, min_size=1, max_size=3)))
    den = Polynomial(draw(st.lists(_coefficient, min_size=1, max_size=3))) or Polynomial((1,))
    if (num.derivative() * den - num * den.derivative()).is_zero:
        num = num + Polynomial((0, 1)) * den  # phi + s
    return RationalFunction(num, den)


# dressing a rational over Q(sqrt -3): kept, given a zero sqrt part (a
# QuadraticNumber equal to a Fraction), or given a nonzero sqrt part
_SQRT_M3 = QuadraticNumber(0, 1, -3)
_DRESSINGS = {
    "keep": lambda x, _b: x,
    "zero sqrt": lambda x, _b: QuadraticNumber(x, 0, -3),
    "sqrt": lambda x, b: x + b * _SQRT_M3,
}
_dressing_sets = st.sampled_from([("keep",), ("keep", "zero sqrt"), ("keep", "zero sqrt", "sqrt")])
_sqrt_parts = st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2)])


def _dressed(draw, x, kinds):
    return _DRESSINGS[draw(st.sampled_from(kinds))](x, draw(_sqrt_parts))


@st.composite
def quadratic_scalars(draw, kinds=("keep", "zero sqrt", "sqrt")):
    """A small rational, dressed over Q(sqrt -3)."""
    return _dressed(draw, draw(_small), kinds)


@st.composite
def quadratic_shapes(draw):
    """fuchsian_shapes() over Q(sqrt -3), not re-cleared, so every coefficient keeps the type it is drawn with.

    The operator is rational, or has zero-sqrt QuadraticNumbers among its
    Fractions, or also coefficients with a nonzero sqrt part.
    """
    op = draw(fuchsian_shapes())
    kinds = draw(_dressing_sets)
    return ThetaOperator([Polynomial([_dressed(draw, c, kinds) for c in p.coeffs]) for p in op.theta_coeffs])


@st.composite
def quadratic_maps(draw):
    """rational_maps() with each coefficient dressed over Q(sqrt -3), so some maps are quadratic."""
    phi = draw(rational_maps())
    kinds = draw(_dressing_sets)
    num, den = (Polynomial([_dressed(draw, c, kinds) for c in p.coeffs]) for p in (phi.num, phi.den))
    if (num.derivative() * den - num * den.derivative()).is_zero:
        num = num + Polynomial((0, 1)) * den
    return RationalFunction(num, den)
