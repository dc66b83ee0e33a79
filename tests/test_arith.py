"""Scalar tower, polynomials, series: exact arithmetic foundations."""

import importlib.util
import math
import operator
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picardfuchs import SingularPoint, ThetaOperator, arith
from picardfuchs.arith import (
    Immutable,
    Polynomial,
    PowerSeries,
    QuadraticNumber,
    RationalFunction,
    as_scalar,
    collapse,
    conjugate_scalar,
    factorize,
    integer_rows,
    poly_gcd,
    quadratic_sqrt,
    roots_in_quadratic_closure,
    scalar_from_json,
    scalar_sort_key,
    scalar_to_json,
    squarefree_part,
    taylor_shift,
    zmul,
    zprimitive,
    zsquarefree,
)
from picardfuchs.errors import (
    FactorizationFailed,
    InexactDivision,
    InexactScalar,
    InvalidDiscriminant,
    InvalidPower,
    MixedFields,
    UnresolvedFactor,
    ZeroRadicand,
)
from picardfuchs.frobenius import GeneralizedSeries, LocalBasis, LocalMonodromyData
from picardfuchs.guess import GuessConfig, Recurrence
from picardfuchs.optheta import d_from_theta, riemann_symbol
from picardfuchs.period import PeriodSeries, TetraForm
from picardfuchs.qexp import OCTICS, EtaProductSpec, QSeries, TableReport, lookup_form
from picardfuchs.transform import MobiusMap, ShiftAssignment, YukawaData
from polynomial_reference import reference_compose, reference_divmod, reference_zmul
from scalar_reference import quadratic_op
from scalar_reference import taylor_shift as scalar_taylor_shift
from shapes import quadratic_scalars

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


# ---------------------------------------------------------------------------
# scalars


@given(rationals, rationals)
@settings(max_examples=60, deadline=None)
def test_quadratic_times_conjugate_is_norm(a, b):
    x = QuadraticNumber(a, b, 5)
    n = collapse(x * x.conjugate())
    assert isinstance(n, Fraction)
    assert n == a * a - 5 * b * b


# numerators and denominators up to 2^80, and small values that cancel often
_big_rationals = st.one_of(
    st.integers(-(2**80), 2**80),
    st.builds(Fraction, st.integers(-(2**80), 2**80), st.integers(1, 2**80)),
    st.sampled_from([0, 1, -2, Fraction(0), Fraction(1, 2), Fraction(-3, 4)]),
)
_TAGS = (-3, -1, 2, 5, -7)


@st.composite
def _kernel_operands(draw):
    """(x, y): a QuadraticNumber and a second operand, in either order.

    The second is another number of the field, a rational, x itself, -x, the
    conjugate of x (sums and products with a zero sqrt part), zero, or a
    number of another field.
    """
    d = draw(st.sampled_from(_TAGS))
    x = QuadraticNumber(draw(_big_rationals), draw(st.just(0) | _big_rationals), d)
    kind = draw(st.sampled_from(["field", "rational", "same", "negated", "conjugate", "zero", "other field"]))
    y = {
        "field": lambda: QuadraticNumber(draw(_big_rationals), draw(st.just(0) | _big_rationals), d),
        "rational": lambda: draw(_big_rationals),
        "same": lambda: x,
        "negated": lambda: QuadraticNumber(-x.a, -x.b, d),
        "conjugate": lambda: QuadraticNumber(x.a, -x.b, d),
        "zero": lambda: draw(st.sampled_from([0, Fraction(0), QuadraticNumber(0, 0, d)])),
        "other field": lambda: QuadraticNumber(draw(_big_rationals), 1, draw(st.sampled_from([e for e in _TAGS if e != d]))),
    }[kind]()
    return (y, x) if draw(st.booleans()) else (x, y)


_ERRORS = (ZeroDivisionError, MixedFields, InvalidPower)


def _kernel_outcome(compute):
    """(a, b, d) of the result, after checking its stored form; the type and message of an error."""
    try:
        r = compute()
    except _ERRORS as exc:
        return type(exc), str(exc)
    # the type rule: a QuadraticNumber operand gives a QuadraticNumber, also with zero sqrt part
    assert type(r) is QuadraticNumber
    assert {type(r.x), type(r.y), type(r.m)} == {int} and r.m > 0 and math.gcd(r.x, r.y, r.m) == 1
    assert type(r.a) is Fraction and type(r.b) is Fraction
    return r.a, r.b, r.d


def _reference_outcome(*args):
    """quadratic_op's (a, b, d), with the kernel's constructor switched off: the oracle runs none of the kernel."""
    with mock.patch.object(arith, "_quadratic", side_effect=AssertionError("the reference called the kernel")):
        try:
            return quadratic_op(*args)
        except _ERRORS as exc:
            return type(exc), str(exc)


_OPERATORS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "truediv": operator.truediv}


@given(_kernel_operands(), st.sampled_from(sorted(_OPERATORS)))
@settings(max_examples=600, deadline=None)
def test_quadratic_kernel_matches_fraction_pairs(operands, op):
    """+ - * / with int, Fraction or QuadraticNumber on either side (so reflected too): values, types, stored forms and errors."""
    x, y = operands
    assert _kernel_outcome(lambda: _OPERATORS[op](x, y)) == _reference_outcome(op, x, y)


@given(_kernel_operands(), st.integers(-2, 7) | st.just(Fraction(1, 2)))
@settings(max_examples=300, deadline=None)
def test_quadratic_kernel_unary_matches_fraction_pairs(operands, e):
    x = next(v for v in operands if isinstance(v, QuadraticNumber))
    assert _kernel_outcome(lambda: -x) == _reference_outcome("neg", x)
    assert _kernel_outcome(x.inverse) == _reference_outcome("inverse", x)
    assert _kernel_outcome(lambda: x**e) == _reference_outcome("pow", x, e)
    assert _kernel_outcome(x.conjugate) == (x.a, -x.b, x.d)
    assert type(x.norm()) is Fraction and x.norm() == x.a * x.a - x.d * x.b * x.b
    # one stored form: the value built from its parts or by arithmetic compares and hashes equal
    for twin in (QuadraticNumber(x.a, x.b, x.d), x * 3 / 3, (x + Fraction(1, 7)) - Fraction(1, 7), -(-x)):
        assert (twin.x, twin.y, twin.m) == (x.x, x.y, x.m) and twin == x and hash(twin) == hash(x)
    if not x.b:
        assert x == x.a and hash(x) == hash(x.a)
    for attr in ("x", "y", "m", "d", "a", "b"):
        with pytest.raises(AttributeError):
            setattr(x, attr, 1)


def test_quadratic_values_built_different_ways_are_equal():
    half = [QuadraticNumber(Fraction(2, 4), 0, -3), QuadraticNumber(Fraction(1, 2), 0, -3), QuadraticNumber(1, 0, -3) / 2]
    assert all((q.x, q.y, q.m) == (1, 0, 2) for q in half)
    for q in half + [QuadraticNumber(Fraction(1, 2), 0, 5)]:
        assert q == Fraction(1, 2) and q == half[0] and hash(q) == hash(Fraction(1, 2))
    root = QuadraticNumber(Fraction(-1, 4), Fraction(1, 4), -3)
    assert (root.x, root.y, root.m) == (-1, 1, 4) and root == QuadraticNumber(Fraction(2, -8), Fraction(-3, -12), -3)
    assert root != QuadraticNumber(Fraction(-1, 4), Fraction(1, 4), 5) and QuadraticNumber(0, 1, 2) / -2 == QuadraticNumber(0, Fraction(-1, 2), 2)


def test_quadratic_inverse():
    x = QuadraticNumber(Fraction(3), Fraction(-2), 2)
    assert collapse(x * x.inverse()) == 1
    with pytest.raises(ZeroDivisionError):
        QuadraticNumber(0, 0, 2).inverse()


@pytest.mark.parametrize("d", [0, 1])
def test_quadratic_tag_must_name_a_quadratic_field(d):
    with pytest.raises(InvalidDiscriminant):
        QuadraticNumber(0, 1, d)


def test_quadratic_tag_is_checked_under_optimize(run_optimized):
    code = (
        "from picardfuchs.arith import QuadraticNumber\n"
        "from picardfuchs.errors import InvalidDiscriminant\n"
        "for d in (0, 1):\n"
        "    try:\n"
        "        QuadraticNumber(0, 1, d)\n"
        "    except InvalidDiscriminant:\n"
        "        print('InvalidDiscriminant')\n"
    )
    assert run_optimized(code).split() == ["InvalidDiscriminant", "InvalidDiscriminant"]


@pytest.mark.parametrize("d", [4, 8, -12, 18, -4, 50])
def test_quadratic_tag_must_be_squarefree(d):
    with pytest.raises(InvalidDiscriminant, match="got %d" % d):
        QuadraticNumber(0, 1, d)
    with pytest.raises(InvalidDiscriminant):
        scalar_from_json({"a": "0", "b": "1", "d": d})


def test_squarefree_tags_are_accepted():
    for d in (-1, 2, -3, 5, 6, -15, 30):
        assert QuadraticNumber(0, 1, d).d == d
        assert scalar_from_json({"a": "1", "b": "1", "d": d}) == QuadraticNumber(1, 1, d)


def test_tag_with_large_prime_factors_is_decided_without_factoring():
    # 10000019 * 10000079: both primes lie beyond the cube root, so the tag is squarefree
    assert QuadraticNumber(0, 1, 10000019 * 10000079).d == 10000019 * 10000079
    with pytest.raises(InvalidDiscriminant, match="got %d" % 10000019**2):
        QuadraticNumber(0, 1, 10000019**2)
    # two primes near 10^10 lie beyond trial division, and the product is no square
    d = 10000000019 * 10000000033
    with pytest.raises(InvalidDiscriminant, match="cannot decide whether the quadratic field tag %d is squarefree" % d):
        scalar_from_json({"a": "0", "b": "1", "d": d})


def test_squarefree_tag_is_checked_under_optimize(run_optimized):
    code = (
        "from picardfuchs.arith import QuadraticNumber, scalar_from_json\n"
        "from picardfuchs.errors import InvalidDiscriminant\n"
        "for d in (4, 8, -12):\n"
        "    for make in (lambda: QuadraticNumber(0, 1, d), lambda: scalar_from_json({'a': '0', 'b': '1', 'd': d})):\n"
        "        try:\n"
        "            make()\n"
        "        except InvalidDiscriminant:\n"
        "            print('InvalidDiscriminant')\n"
    )
    assert run_optimized(code).split() == ["InvalidDiscriminant"] * 6


def test_collapse_strips_zero_irrational_part():
    x = QuadraticNumber(Fraction(7, 3), Fraction(0), 5)
    assert collapse(x) == Fraction(7, 3)
    assert isinstance(collapse(x), Fraction)


def test_quadratic_sqrt():
    assert quadratic_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    r = quadratic_sqrt(Fraction(8))
    assert isinstance(r, QuadraticNumber)
    assert collapse(r * r) == 8
    assert r.d == 2  # squarefree tag


@pytest.mark.parametrize(
    "case, error",
    [
        (lambda: QuadraticNumber(1, 1, 2) ** -1, InvalidPower),
        (lambda: QuadraticNumber(1, 1, 2) ** Fraction(1, 2), InvalidPower),
        (lambda: QuadraticNumber(0.5, 1, 2), InexactScalar),
        (lambda: QuadraticNumber(1, True, 2), InexactScalar),
        (lambda: QuadraticNumber(0, 1, 5.5), InexactScalar),
        (lambda: QuadraticNumber(0, 1, True), InexactScalar),
        (lambda: scalar_from_json(0.1), InexactScalar),
        (lambda: scalar_from_json(False), InexactScalar),
        (lambda: QuadraticNumber(0, 1, -3) + QuadraticNumber(0, 1, 5), MixedFields),
        # a shift checks its fields and its scalar at every degree, a constant and zero entries too
        (lambda: Polynomial([QuadraticNumber(1, 1, 2)]).shift(QuadraticNumber(0, 1, -3)), MixedFields),
        (lambda: Polynomial([1, QuadraticNumber(0, 0, 2), 1]).shift(QuadraticNumber(0, 1, -3)), MixedFields),
        (lambda: Polynomial([1, 1]).shift(0.5), InexactScalar),
        (lambda: Polynomial([]).shift(True), InexactScalar),
        (lambda: Polynomial([1, 1]) ** -2, InvalidPower),
        (lambda: quadratic_sqrt(Fraction(0)), ZeroRadicand),
        # 10000019 * 10000079: both factors lie beyond trial division
        (lambda: factorize(100000980001501), FactorizationFailed),
        # an unsupported operand is a TypeError, not an attribute read off it
        (lambda: PowerSeries([1, 2]) + "x", TypeError),
        (lambda: "x" + PowerSeries([1, 2]), TypeError),
        (lambda: PowerSeries([1, 2]) - "x", TypeError),
        (lambda: "x" - PowerSeries([1, 2]), TypeError),
        (lambda: PowerSeries([1, 2]) * "x", TypeError),
        (lambda: "x" * PowerSeries([1, 2]), TypeError),
        (lambda: divmod(Polynomial([1, 2]), "x"), TypeError),
        (lambda: Polynomial([1, 2]) // "x", TypeError),
        (lambda: Polynomial([1, 2]) % "x", TypeError),
        (lambda: Polynomial([1, 2]) / "x", TypeError),
    ],
    ids=[
        "quadratic-negative",
        "quadratic-fraction",
        "quadratic-float-part",
        "quadratic-bool-part",
        "quadratic-float-tag",
        "quadratic-bool-tag",
        "json-float",
        "json-bool",
        "mixed-fields",
        "shift-mixed-fields-constant",
        "shift-mixed-fields-zero-entry",
        "shift-float",
        "shift-bool-zero-polynomial",
        "polynomial-negative",
        "sqrt-zero",
        "factorize",
        "series-add-str",
        "series-radd-str",
        "series-sub-str",
        "series-rsub-str",
        "series-mul-str",
        "series-rmul-str",
        "polynomial-divmod-str",
        "polynomial-floordiv-str",
        "polynomial-mod-str",
        "polynomial-truediv-str",
    ],
)
def test_arithmetic_domain_errors(case, error):
    with pytest.raises(error) as got:
        case()
    assert str(got.value)


def test_arithmetic_domain_errors_under_optimize(run_optimized):
    code = (
        "from fractions import Fraction\n"
        "from picardfuchs.arith import Polynomial, QuadraticNumber, factorize, quadratic_sqrt\n"
        "from picardfuchs.errors import FactorizationFailed, InexactScalar, InvalidPower, ZeroRadicand\n"
        "cases = [\n"
        "    lambda: QuadraticNumber(1, 1, 2) ** -1,\n"
        "    lambda: QuadraticNumber(0, 1, 5.5),\n"
        "    lambda: Polynomial([1, 1]) ** -2,\n"
        "    lambda: quadratic_sqrt(Fraction(0)),\n"
        "    lambda: factorize(100000980001501),\n"
        "]\n"
        "for case in cases:\n"
        "    try:\n"
        "        case()\n"
        "    except (FactorizationFailed, InexactScalar, InvalidPower, ZeroRadicand) as exc:\n"
        "        print(type(exc).__name__)\n"
    )
    expected = ["InvalidPower", "InexactScalar", "InvalidPower", "ZeroRadicand", "FactorizationFailed"]
    assert run_optimized(code).split() == expected


_DOMAIN_CASES = [
    ("factorize(0)", "NonPositiveInteger"),
    ("factorize(-5)", "NonPositiveInteger"),
    ("squarefree_part(0)", "ZeroRadicand"),
    ("roots_in_quadratic_closure(Polynomial(()))", "ZeroPolynomial"),
    ("PowerSeries([1, 2], -1)", "TruncationTooLow"),
    ("Polynomial([1, 0, 1]) / Polynomial([1, 1])", "InexactDivision"),
]


def test_integer_polynomial_and_series_domains_under_optimize(run_optimized):
    # without the checks, -O loops forever on factorize(0) and squarefree_part(0),
    # factors -5 as if it were 5, and builds a series of order -1
    code = (
        "from picardfuchs import errors\n"
        "from picardfuchs.arith import Polynomial, PowerSeries, factorize, roots_in_quadratic_closure, squarefree_part\n"
        "for case in %r:\n"
        "    try:\n"
        "        eval(case)\n"
        "    except ValueError as exc:\n"
        "        print(type(exc).__name__, isinstance(exc, getattr(errors, type(exc).__name__)))\n"
    ) % ([case for case, _error in _DOMAIN_CASES],)
    assert run_optimized(code).splitlines() == ["%s True" % error for _case, error in _DOMAIN_CASES]


@pytest.mark.parametrize("divisor", [Polynomial([1, 1]), Polynomial([0, 0, 0, 1])], ids=["remainder", "higher-degree"])
def test_inexact_polynomial_division_raises(divisor):
    with pytest.raises(InexactDivision, match=r"^inexact polynomial division$"):
        Polynomial([1, 0, 1]) / divisor


def test_squarefree_part():
    # n = f^2 * d with d squarefree
    assert squarefree_part(8) == (2, 2)
    assert squarefree_part(9) == (3, 1)
    assert squarefree_part(-12) == (2, -3)


def test_scalar_sort_key_orders_conjugates():
    # a - b*sqrt(d) sorts before a + b*sqrt(d) for b > 0, d > 0
    lo = QuadraticNumber(1, -1, 2)
    hi = QuadraticNumber(1, 1, 2)
    assert scalar_sort_key(lo) < scalar_sort_key(hi)


def test_scalar_json_roundtrip():
    for x in (Fraction(-7, 3), QuadraticNumber(Fraction(1, 2), Fraction(-1, 4), -3)):
        assert collapse(as_scalar(scalar_from_json(scalar_to_json(x)))) == x


# ---------------------------------------------------------------------------
# polynomials


def P(*cs):
    return Polynomial([Fraction(c) for c in cs])


def test_polynomial_basics():
    p = P(1, 0, -1)  # 1 - t^2
    q = P(0, 1)
    assert (p * q).coeffs == P(0, 1, 0, -1).coeffs
    assert p(Fraction(2)) == -3
    assert p.derivative() == P(0, -2)
    assert p.compose(P(1, 1)) == P(0, -2, -1)  # 1 - (1+t)^2


# ---------------------------------------------------------------------------
# Taylor shift


def _compose_shift(coeffs, a):
    """Reference Taylor shift: Horner's rule on Polynomials (polynomial_reference), not Polynomial.compose."""
    return list(reference_compose(Polynomial(coeffs), Polynomial((a, 1))).coeffs)


def _field_scalars(d):
    """Fractions and elements of Q(sqrt d), with both kinds of zero.

    Parts from {-1, 0, 1} make partial sums cancel often, which is where a
    QuadraticNumber zero can arise inside the shift.
    """
    parts = st.one_of(st.integers(-1, 1).map(Fraction), small_rationals)
    return st.one_of(
        parts,
        st.builds(QuadraticNumber, parts, parts, st.just(d)),
        st.just(QuadraticNumber(0, 0, d)),
    )


shift_cases = st.sampled_from((-3, 2)).flatmap(
    lambda d: st.tuples(
        st.lists(_field_scalars(d), max_size=7),
        st.one_of(_field_scalars(d), st.integers(-4, 4)),
    )
)


def _types(cs):
    return [type(c) for c in cs]


@given(shift_cases)
@settings(max_examples=300, deadline=None)
def test_taylor_shift_matches_compose_value_and_type(case):
    coeffs, a = case
    got, want = list(Polynomial(coeffs).shift(a).coeffs), _compose_shift(coeffs, a)
    assert got == want
    assert _types(got) == _types(want)


@pytest.mark.parametrize(
    "coeffs, a",
    [
        # the partial result (t - sqrt2)^2 shifted by sqrt2 is t^2 + 0*t + 0, both zeros quadratic
        ([Fraction(1), Fraction(2), QuadraticNumber(0, -2, 2), Fraction(1)], QuadraticNumber(0, 1, 2)),
        # the partial result t + (-1 + 0*sqrt2) shifted by 1 has a quadratic zero at t^0
        ([Fraction(1), QuadraticNumber(-1, 0, 2), Fraction(1)], 1),
    ],
)
def test_taylor_shift_types_through_cancellation(coeffs, a):
    got, want = list(Polynomial(coeffs).shift(a).coeffs), _compose_shift(coeffs, a)
    assert got == want
    assert _types(got) == _types(want)


@given(st.lists(st.integers(-9, 9), max_size=8), st.integers(-5, 5))
@settings(max_examples=200, deadline=None)
def test_taylor_shift_keeps_integers_integral(coeffs, a):
    got = taylor_shift(coeffs, a)
    assert got == _compose_shift(coeffs, a)
    assert all(type(c) is int for c in got)


@given(st.lists(quadratic_scalars(), max_size=7), quadratic_scalars(), st.sampled_from(["Fraction", "int", "scalar"]))
@settings(max_examples=300, deadline=None)
def test_polynomial_shift_matches_the_scalar_horner(coeffs, a, kind):
    # integer rows and pairs with tags give the values and types of Horner's
    # rule on the scalars: zero entries, rational and quadratic shifts, the
    # zero polynomial
    a = {"Fraction": scalar_sort_key(a)[0], "int": int(scalar_sort_key(a)[0]), "scalar": a}[kind]
    p = Polynomial(coeffs)
    got, want = p.shift(a).coeffs, Polynomial(scalar_taylor_shift(p.coeffs, a)).coeffs
    assert got == want
    assert _types(got) == _types(want)


@given(shift_cases)
@settings(max_examples=100, deadline=None)
def test_shift_and_unshift_is_identity(case):
    coeffs, a = case
    p = Polynomial(coeffs)
    assert p.shift(a).shift(-a) == p


@pytest.mark.skipif(importlib.util.find_spec("sympy") is None, reason="sympy not installed")
@given(st.lists(rationals, max_size=8), rationals)
@settings(max_examples=60, deadline=None)
def test_taylor_shift_matches_sympy(coeffs, a):
    import sympy

    x = sympy.Symbol("x")
    ref = sympy.Poly(list(reversed(coeffs)) or [0], x, domain="QQ")
    shifted = ref.shift(sympy.Rational(a.numerator, a.denominator)).all_coeffs()
    want = [Fraction(int(c.p), int(c.q)) for c in reversed(shifted)]
    while want and not want[-1]:
        want.pop()
    got = list(Polynomial(coeffs).shift(a).coeffs)
    assert got == want
    assert all(type(c) is Fraction for c in got)


list_kernel_cases = st.sampled_from((-3, 2)).flatmap(
    lambda d: st.tuples(st.lists(_field_scalars(d), max_size=7), st.lists(_field_scalars(d), max_size=5))
)


@given(list_kernel_cases)
@settings(max_examples=300, deadline=None)
def test_list_kernels_match_the_polynomial_expressions_value_and_type(case):
    # in-place division, list Horner and stored first products make the
    # values and types of the Polynomial expressions they replace, zero-sqrt
    # QuadraticNumbers included
    a, b = case
    p, q = Polynomial(a), Polynomial(b)
    got, want = zmul(a, b), reference_zmul(a, b)
    assert got == want and _types(got) == _types(want)
    got, want = p.compose(q).coeffs, reference_compose(p, q).coeffs
    assert got == want and _types(got) == _types(want)
    if q.is_zero:
        return
    for got, want in zip(divmod(p, q), reference_divmod(p, q)):
        assert got.coeffs == want.coeffs and _types(got.coeffs) == _types(want.coeffs)


@pytest.mark.parametrize("d", [None, -3])
def test_divmod_and_compose_build_only_what_they_return(d, monkeypatch):
    s = QuadraticNumber(1, 1, d) if d else Fraction(1, 2)
    p, q = Polynomial([1, s, 3, 0, 5, s, 7]), Polynomial([s, 0, 2])
    init, built = Polynomial.__init__, []

    def counted(self, coeffs):
        built.append(self)
        init(self, coeffs)

    monkeypatch.setattr(Polynomial, "__init__", counted)
    quo, rem = divmod(p, q)
    assert len(built) == 2 and built[0] is quo and built[1] is rem
    built.clear()
    assert p.compose(q) is built[0] and len(built) == 1


def test_poly_gcd_is_monic():
    p = P(-1, 1) * P(2, 1) * P(2, 1)
    q = P(2, 1) * P(0, 3)
    g = poly_gcd(p, q)
    assert g == P(2, 1)


@given(st.lists(small_rationals, min_size=1, max_size=3), st.lists(small_rationals, min_size=2, max_size=3))
@settings(max_examples=40, deadline=None)
def test_zsquarefree_reassembles(pc, qc):
    p, q = Polynomial(pc), Polynomial(qc)
    if p.is_zero or q.is_zero or q.degree < 1:
        return
    (row,), _ = integer_rows([p * q * q])
    prim = zprimitive(row)
    back = [1]
    for factor, mult in zsquarefree(prim):
        for _ in range(mult):
            back = zmul(back, factor)
    assert back == prim


def test_rational_roots_with_multiplicity():
    p = P(-1, 1) * P(-1, 1) * P(3, 1) * P(0, 2)
    roots = roots_in_quadratic_closure(p)
    assert roots == [-3, 0, 1, 1]
    assert all(type(r) is Fraction for r in roots)


def test_roots_in_quadratic_closure():
    p = P(-2, 0, 1)  # t^2 - 2
    roots = roots_in_quadratic_closure(p)
    assert len(roots) == 2
    assert all(collapse(r * r) == 2 for r in roots)
    assert roots[0] == conjugate_scalar(roots[1])


def test_roots_in_two_quadratic_fields():
    # (2t^2 - 1)(t^2 + 1) has no rational root and no irreducible factor of degree >= 3
    roots = roots_in_quadratic_closure(P(-1, 0, 2) * P(1, 0, 1) * P(-3, 1))
    assert roots == sorted(roots, key=scalar_sort_key)
    assert {(type(r), getattr(r, "d", None)) for r in roots} == {(Fraction, None), (QuadraticNumber, 2), (QuadraticNumber, -1)}
    assert sorted(collapse(r * r) for r in roots) == [-1, -1, Fraction(1, 2), Fraction(1, 2), 9]


def test_irreducible_cubic_beside_a_quadratic_is_unresolved():
    with pytest.raises(UnresolvedFactor) as got:
        roots_in_quadratic_closure(P(-1, 2) * P(1, 0, 1) * P(-2, 0, 0, 1))
    # the primitive integer cofactor, not a rational multiple such as 2t^3 - 4
    assert got.value.factor == Polynomial([-2, 0, 0, 1])


# ---------------------------------------------------------------------------
# rational functions and series


def test_rational_function_normalizes():
    # common factors cancel and the denominator becomes monic
    r = RationalFunction(P(0, 2), P(0, 0, 4))
    assert r.num == P(Fraction(1, 2)) and r.den == P(0, 1)
    d = RationalFunction(P(1), P(0, 1)).derivative()
    assert d.num == P(-1) and d.den == P(0, 0, 1)


def test_power_series_truncation_floor():
    a = PowerSeries([1, 1, 1], 2)
    b = PowerSeries([1, -1], 1)
    assert (a * b).order == 1
    assert (a * b).coeffs == (Fraction(1), Fraction(0))



# ---------------------------------------------------------------------------
# value types: nothing can be set or deleted after construction


_LEGENDRE = ThetaOperator.from_theta_polys([P(0, 0, 1), P(-4, -16, -16)])
VALUES = [
    QuadraticNumber(1, 2, -3),
    P(1, 2),
    RationalFunction(P(1), P(0, 1)),
    PowerSeries([1, 2], 1),
    GeneralizedSeries(SingularPoint(0), Fraction(0), [[1]], 0),
    LocalBasis(SingularPoint(0), [], None),
    LocalMonodromyData([]),
    GuessConfig(1, 1, 10),
    Recurrence(_LEGENDRE),
    SingularPoint(0),
    _LEGENDRE,
    d_from_theta(_LEGENDRE),
    riemann_symbol(_LEGENDRE),
    TetraForm({(0, 0, 0, 0): 1}, 3),
    PeriodSeries([1]),
    QSeries([1, 2], 1),
    EtaProductSpec(1, [(4, 2)]),
    lookup_form("f32"),
    TableReport("f32", []),
    OCTICS[250],
    MobiusMap(1, 0, 0, 1),
    ShiftAssignment({Fraction(1): Fraction(1, 2)}),
    YukawaData([(Fraction(1), 1)]),
]


def test_every_value_type_is_checked():
    assert {type(v) for v in VALUES} == set(Immutable.__subclasses__())


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_value_types_are_immutable(value):
    name = type(value).__name__
    for attr in type(value).__slots__:
        before = getattr(value, attr)
        with pytest.raises(AttributeError, match="%s is immutable" % name):
            setattr(value, attr, None)
        with pytest.raises(AttributeError, match="%s is immutable" % name):
            delattr(value, attr)
        assert getattr(value, attr) is before
    with pytest.raises(AttributeError, match="%s is immutable" % name):
        value.unknown = 1
