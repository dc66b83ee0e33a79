"""Conifold period expansion over the vanishing tetrahedron."""

import json
from fractions import Fraction
from math import prod

import pytest

import period_reference as ref

from picardfuchs import TetraForm, ThetaOperator, conifold_expand, verify_annihilation
from picardfuchs.arith import Polynomial, QuadraticNumber
from picardfuchs.catalog_data import TETRA_DEMO
from picardfuchs.errors import InvalidTetraForm, NegativeExponent, VanishingConstantTerm
from picardfuchs.period import simplex_monomial_integral
from picardfuchs.transform import translate_to_origin
from picardfuchs import CATALOG, errors


def test_simplex_integral_base_case():
    assert simplex_monomial_integral(0, 0, 0) == 1


def test_simplex_integral_symmetry():
    for a, b, c in ((1, 2, 3), (0, 4, 1), (2, 2, 5)):
        v = simplex_monomial_integral(a, b, c)
        assert v == simplex_monomial_integral(b, c, a)
        assert v == simplex_monomial_integral(c, a, b)
        assert v == simplex_monomial_integral(b, a, c)


def test_simplex_integral_recurrence_spot():
    # raising one exponent multiplies by (2a+1)/(2(a+b+c+2))
    a, b, c = 2, 1, 3
    lhs = simplex_monomial_integral(a + 1, b, c)
    rhs = simplex_monomial_integral(a, b, c) * Fraction(2 * a + 1, 2 * (a + b + c + 2))
    assert lhs == rhs


def test_constant_form_expands_to_one():
    ps = conifold_expand(TetraForm.one(12))
    assert ps.coeffs == (Fraction(1),) + (Fraction(0),) * 12
    assert ps.unit == 1 and ps.conditions == ()


def test_vanishing_constant_term_rejected():
    with pytest.raises(VanishingConstantTerm):
        conifold_expand(TetraForm({(1, 0, 0, 0): 1}, 5))


def test_square_scaling_twists_the_series():
    f = TetraForm.from_planes(TETRA_DEMO["planes"], truncation=8)
    base = conifold_expand(f)
    scaled = conifold_expand(f.scaled(9))
    assert scaled.coeffs == tuple(c / 3 for c in base.coeffs)


def test_nonsquare_leading_value_records_the_unit():
    f = TetraForm.from_planes(TETRA_DEMO["planes"], scale=2, truncation=6)
    ps = conifold_expand(f)
    assert "NonSquareLeadingValue" in ps.conditions
    assert type(ps.unit) is QuadraticNumber  # the unit reader takes it as it is
    unit_sq = ps.unit * ps.unit
    from picardfuchs.arith import collapse

    assert collapse(unit_sq) == Fraction(1, 2)


def test_truncation_is_monotone():
    f = TetraForm.from_planes(TETRA_DEMO["planes"], truncation=14)
    long = conifold_expand(f)
    short = conifold_expand(f.with_truncation(7))
    assert long.coeffs[:8] == short.coeffs


def test_tetra_form_json_roundtrip():
    f = TetraForm.from_planes(TETRA_DEMO["planes"], truncation=9)
    back = TetraForm.from_json(json.loads(json.dumps(f.to_json())))
    assert back.terms == f.terms and back.truncation == f.truncation


def test_from_planes_multiplies_out():
    planes = ((1, 1, 0, 0, 0), (1, 0, 1, 0, 0))
    f = TetraForm.from_planes(planes, truncation=5)
    # (1+x)(1+y) = 1 + x + y + xy
    assert f.terms == {
        (0, 0, 0, 0): 1,
        (1, 0, 0, 0): 1,
        (0, 1, 0, 0): 1,
        (1, 1, 0, 0): 1,
    }
    values = (2, 3, 7, 11)
    assert sum(c * prod(v**e for v, e in zip(values, key)) for key, c in f.terms.items()) == 12


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TetraForm({(0, 0, 0, 0): 1, (1, 0, 0): 1}), "four nonnegative exponents"),
        (lambda: TetraForm({(0, 0, -1, 1): 1}), "four nonnegative exponents"),
        (lambda: TetraForm({(0, 0, 0, 0): 1}, truncation=-1), "truncation must be nonnegative"),
        (lambda: TetraForm.from_planes([(1, 1, 0, 0)]), "five coefficients"),
        # integer fields are read exactly, never truncated
        (lambda: TetraForm({(1.5, 0, 0, 0): 1}), "an exponent must be an integer, got 1.5"),
        (lambda: TetraForm({(0, 0, 0, 0): 1}, truncation=True), "truncation must be an integer, got True"),
        (lambda: TetraForm.from_json({"P": {"0,0,0,0": "1"}, "truncation": 2.5}), "truncation must be an integer, got 2.5"),
        (lambda: TetraForm.from_json({"P": {"0,0,0,0": "1"}, "truncation": True}), "truncation must be an integer, got True"),
        (lambda: TetraForm.from_json({"P": {"0,0,0,0": "1", "1.5,0,0,0": "1"}}), "an exponent key must hold integers a,b,c,d, got '1.5,0,0,0'"),
    ],
)
def test_malformed_tetra_form_rejected(build, message):
    with pytest.raises(InvalidTetraForm, match=message):
        build()


def test_inexact_tetra_fields_rejected_under_optimize(run_optimized):
    code = (
        "from picardfuchs import TetraForm\n"
        "from picardfuchs.errors import InvalidTetraForm\n"
        "for build in (lambda: TetraForm({(1.5, 0, 0, 0): 1}), lambda: TetraForm.from_json({'P': {'0,0,0,0': '1'}, 'truncation': 2.5})):\n"
        "    try:\n"
        "        build()\n"
        "    except InvalidTetraForm:\n"
        "        print('InvalidTetraForm')\n"
    )
    assert run_optimized(code).split() == ["InvalidTetraForm"] * 2


# (expression, error class, message) of period's readers: each raised
# KeyError, TypeError, a bare ValueError or AttributeError before
_READER_IMPORTS = (
    "from picardfuchs import CATALOG, TetraForm, conifold_expand, verify_annihilation\n"
    "PS = conifold_expand(TetraForm.one(3))\n"
)
READER_CHECKS = [
    ("TetraForm.from_json({})", "InvalidTetraForm", "P must map exponent keys 'a,b,c,d' to coefficients, not a NoneType"),
    ("TetraForm.from_json([])", "InvalidTetraForm", "P must map exponent keys 'a,b,c,d' to coefficients, not a NoneType"),
    ("TetraForm.from_json({'P': {'0,0,0,0': None}})", "InvalidTetraForm", "a coefficient must be a string or a number, got None"),
    ("TetraForm.from_json({'P': {'0,0,0,0': 0.5}})", "InexactScalar", "a scalar must be exact, not the float 0.5"),
    # a coefficient string that is no rational raised a bare ValueError or ZeroDivisionError
    ("TetraForm.from_json({'P': {'0,0,0,0': 'abc'}})", "InvalidTetraForm", "a coefficient string must be a rational number, got 'abc'"),
    ("TetraForm.from_json({'P': {'0,0,0,0': '1/0'}})", "InvalidTetraForm", "a coefficient string must be a rational number, got '1/0'"),
    ("TetraForm([(0, 0, 0, 0)], 3)", "InvalidTetraForm", "a term must pair a sequence of exponents with a coefficient, got (0, 0, 0, 0)"),
    ("TetraForm([(0, 1)], 3)", "InvalidTetraForm", "a term must pair a sequence of exponents with a coefficient, got (0, 1)"),
    ("verify_annihilation(CATALOG[33].operator, PS.coeffs)", "InvalidPeriodSeries", "the annihilation check needs a PeriodSeries, got a tuple"),
]


@pytest.mark.parametrize("expr, name, message", READER_CHECKS, ids=[e for e, _n, _m in READER_CHECKS])
def test_period_readers_raise_typed_errors(expr, name, message):
    namespace = {}
    exec(_READER_IMPORTS, namespace)
    with pytest.raises(getattr(errors, name)) as info:
        eval(expr, namespace)
    assert str(info.value) == message


def test_period_readers_raise_typed_errors_under_optimize(run_optimized):
    code = _READER_IMPORTS + "".join(
        "try:\n    %s\nexcept ValueError as exc:\n    print(type(exc).__name__)\n" % expr for expr, _n, _m in READER_CHECKS
    )
    assert run_optimized(code).split() == [name for _e, name, _m in READER_CHECKS]


def test_catalog_operator_annihilates_demo_series():
    # moderate truncation here; the acceptance run uses the full 40 terms
    f = TetraForm.from_planes(TETRA_DEMO["planes"], truncation=16)
    ps = conifold_expand(f)
    op = translate_to_origin(
        CATALOG[TETRA_DEMO["arrangement"]].operator, TETRA_DEMO["base_point"]
    )
    assert verify_annihilation(op, ps) == ps.truncation + 1 - op.r


def test_wrong_operator_fails_fast():
    f = TetraForm.from_planes(TETRA_DEMO["planes"], truncation=10)
    ps = conifold_expand(f)
    wrong = CATALOG[4].operator
    assert verify_annihilation(wrong, ps) < 4


def test_negative_simplex_exponent_rejected():
    with pytest.raises(NegativeExponent):
        simplex_monomial_integral(-1, 0, 0)


def test_negative_simplex_exponent_rejected_under_optimize(run_optimized):
    code = (
        "from picardfuchs.period import simplex_monomial_integral\n"
        "from picardfuchs.errors import NegativeExponent\n"
        "try:\n"
        "    simplex_monomial_integral(0, -2, 1)\n"
        "except NegativeExponent:\n"
        "    print('NegativeExponent')\n"
    )
    assert run_optimized(code).strip() == "NegativeExponent"


def test_simplex_integral_matches_factorial_formula():
    for a, b, c in ((0, 0, 0), (1, 2, 3), (7, 0, 4), (12, 5, 9)):
        assert simplex_monomial_integral(a, b, c) == ref.simplex_integral(a, b, c)
