"""Hypothesis strategies for generated Fuchsian operators and rational maps, shared by the test modules."""

from fractions import Fraction

from hypothesis import strategies as st

from picardfuchs import ThetaOperator
from picardfuchs.arith import Polynomial, RationalFunction


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
