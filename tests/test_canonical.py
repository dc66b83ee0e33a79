"""The strong canonical form: one owner, taken once on a derivative form.

Each check compares to_json(), which tells a QuadraticNumber from a Fraction
of equal value, so scalar types count.  The reference is the theta -> d ->
theta round trip in canonical_reference.py.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from picardfuchs import CATALOG, DERIVED_OPERATORS, MobiusMap, ThetaOperator, mobius, pullback_power, shift_exponents
from picardfuchs.arith import Polynomial, QuadraticNumber, collapse, scalar_to_json
from picardfuchs.optheta import canonical_from_d, d_from_theta, singular_points, translate
from picardfuchs.transform import descend_power, negate_variable, pullback_rational, translate_to_origin

from canonical_reference import reference_from_d, reference_normalized
from shapes import fuchsian_shapes, rational_maps


def _is_canonical(op):
    return op.normalized().to_json() == op.to_json()


_ALL_OPERATORS = {str(aid): rec.operator for aid, rec in CATALOG.items()}
_ALL_OPERATORS.update((name, rec.operator) for name, rec in DERIVED_OPERATORS.items())


@pytest.mark.parametrize("name", sorted(_ALL_OPERATORS))
def test_catalog_and_derived_operators_are_canonical(name):
    # the chains compare these with == against transform outputs
    op = _ALL_OPERATORS[name]
    assert _is_canonical(op)
    assert reference_normalized(op).to_json() == op.to_json()


# ---------------------------------------------------------------------------
# every transform returns a fixed point of normalized()

_small = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def _mobius_maps(draw):
    a, b, c, d = (draw(_small) for _ in range(4))
    assume(a * d != b * c)
    return MobiusMap(a, b, c, d)


@settings(max_examples=25, deadline=None)
@given(op=fuchsian_shapes(), m=_mobius_maps(), phi=rational_maps())
def test_coordinate_changes_return_canonical_operators(op, m, phi):
    assert _is_canonical(mobius(op, m))
    assert _is_canonical(pullback_rational(op, phi))


@settings(max_examples=25, deadline=None)
@given(op=fuchsian_shapes(), points=st.lists(_small, min_size=1, max_size=2, unique=True), eps=_small, a=_small)
def test_shifts_and_translations_return_canonical_operators(op, points, eps, a):
    assert _is_canonical(shift_exponents(op, {p: eps + i for i, p in enumerate(points)}))
    assert _is_canonical(translate_to_origin(op, a))


@settings(max_examples=25, deadline=None)
@given(op=fuchsian_shapes(), n=st.integers(1, 3))
def test_power_maps_and_negation_keep_canonical_operators_canonical(op, n):
    op = op.normalized()
    up = pullback_power(op, n)
    assert _is_canonical(up)
    assert _is_canonical(negate_variable(op))
    assert _is_canonical(descend_power(up, n))


# ---------------------------------------------------------------------------
# the one function agrees with the round trip it replaced

_QP = QuadraticNumber(Fraction(-1, 4), Fraction(1, 4), -3)
_roots = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3), _QP, _QP.conjugate()])


def _values(op):
    """to_json with a QuadraticNumber of zero sqrt part written as the Fraction it equals."""
    return [[scalar_to_json(collapse(c)) for c in p.coeffs] for p in op.theta_coeffs]


@settings(max_examples=40, deadline=None)
@given(
    op=fuchsian_shapes(),
    roots=st.lists(_roots, max_size=3),
    scale=st.sampled_from([Fraction(1), Fraction(-3, 2), QuadraticNumber(0, 1, -3), QuadraticNumber(2, 0, -3)]),
)
def test_canonical_from_d_matches_round_trip_on_cleared_forms(op, roots, scale):
    # a transform clears its denominators by a monic polynomial, with factors t and t - q alike
    factor = Polynomial((scale,))
    for r in roots:
        factor = factor * Polynomial((-r, 1))
    d_coeffs = [c * factor for c in d_from_theta(op).d_coeffs]
    got, want = canonical_from_d(d_coeffs), reference_from_d(d_coeffs)
    if all(type(c) is Fraction for c in factor.coeffs):
        assert got.to_json() == want.to_json()
    else:
        # Over Q(sqrt d) the type of a coefficient with zero sqrt part follows the
        # arithmetic path, in the round trip as here: dividing by a gcd with both
        # a factor t and a factor t - q can leave a Fraction where the round trip,
        # which strips the t first, leaves a QuadraticNumber.  The values agree.
        assert _values(got) == _values(want)


@settings(max_examples=40, deadline=None)
@given(op=fuchsian_shapes(), lift=st.integers(0, 2), scale=st.sampled_from([Fraction(1), Fraction(-2, 3), Fraction(5)]))
def test_normalized_matches_round_trip(op, lift, scale):
    # left factors scale * t^lift, and the common factor of operators like theta - t*theta
    raw = ThetaOperator([Polynomial(())] * lift + [p * scale for p in op.theta_coeffs])
    assert raw.normalized().to_json() == reference_normalized(raw).to_json()
    merged = ThetaOperator([op.theta_coeffs[0], -op.theta_coeffs[0]])
    assert merged.normalized().to_json() == reference_normalized(merged).to_json()


def _translation_cases():
    for aid in (33, 98, 248, 250):
        yield aid, next(p.value for p in singular_points(CATALOG[aid].operator) if not p.is_infinite and p.value)
    yield 266, next(p.value for p in singular_points(CATALOG[266].operator) if isinstance(p.value, QuadraticNumber))
    yield 4, QuadraticNumber(Fraction(1, 16), 0, -3)  # a rational value in quadratic dress


@pytest.mark.parametrize("aid, a", list(_translation_cases()))
def test_translate_to_origin_matches_round_trip(aid, a):
    op = CATALOG[aid].operator
    assert translate_to_origin(op, a).to_json() == reference_normalized(translate(op, collapse(a))).to_json()


def test_zero_operator_is_its_own_canonical_form():
    zero = ThetaOperator([[]])
    assert canonical_from_d([Polynomial(())]).to_json() == reference_normalized(zero).to_json()
    assert zero.normalized().to_json() == reference_normalized(zero).to_json()
