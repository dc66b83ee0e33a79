"""Typed errors: every input check raises an errors.py class, under any interpreter flag."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import picardfuchs
from picardfuchs import CATALOG, FORMS, PowerSeries, SingularPoint, classify_point, eta_product, local_basis, verify_form_table
from picardfuchs import errors, optheta

_IMPORTS = (
    "import json\n"
    "from picardfuchs.arith import Polynomial, QuadraticNumber, RationalFunction\n"
    "from picardfuchs import CATALOG\n"
    "from picardfuchs.catalog import dump_catalog, load_catalog, verify_catalog\n"
    "from picardfuchs.frobenius import GeneralizedSeries, annihilation_order, classify_point, local_basis\n"
    "from picardfuchs.optheta import indicial_polynomial, local_operator, riemann_symbol\n"
    "from picardfuchs.guess import recurrence_from_operator\n"
    "from picardfuchs.optheta import SingularPoint, ThetaOperator\n"
    "from picardfuchs.period import PeriodSeries, TetraForm\n"
    "from picardfuchs.qexp import QSeries, count_double_octic\n"
    "from picardfuchs.transform import MobiusMap\n"
    "SURD = QuadraticNumber(1, 1, 2)\n"
    "OP = CATALOG[33].operator\n"
    "PLANES = [(1, 0, 0, 0)] * 7\n"
    "ROW = [['1'], [], [], []]\n"
    "REC = recurrence_from_operator(ThetaOperator.from_json({'form': 'theta', 'coeffs': [['0', '0', '1'], ['-1']]}))\n"
    "def with_octic(octic):\n"
    "    doc = json.loads(dump_catalog())\n"
    "    doc['arrangements'][0]['octic'] = octic\n"
    "    return json.dumps(doc)\n"
)
# (expression, error class, message) of the checks that once raised a bare
# ValueError or a builtins TypeError, or read a float or a bool as a number
TYPED_CHECKS = [
    ("GeneralizedSeries(SingularPoint(0), 0, [[0], [0]], 1).leading", "ZeroSeries", "zero generalized series"),
    (
        "ThetaOperator.from_json({'form': 'weird', 'coeffs': [['1']]})",
        "UnknownOperatorForm",
        "unknown operator form 'weird'",
    ),
    (
        "load_catalog(json.dumps(dict(json.loads(dump_catalog()), version=0)))",
        "CatalogVersionMismatch",
        "catalog version 0, expected 1",
    ),
    ("count_double_octic([(True, 0, 0, 0)] + PLANES, 7)", "InexactScalar", "a scalar must be exact, not the bool True"),
    ("count_double_octic({(8, 0, 0, 0): 0.1}, 7)", "InexactScalar", "a scalar must be exact, not the float 0.1"),
    ("TetraForm.from_planes([(1, 1, 0, 0, 0)], scale=0.5)", "InexactScalar", "a scalar must be exact, not the float 0.5"),
    ("TetraForm.one().scaled(0.5)", "InexactScalar", "a scalar must be exact, not the float 0.5"),
    ("TetraForm({(0, 0, 0, 0): SURD})", "NonrationalScalar", "a tetra-form coefficient must be rational, got 1+sqrt(2)"),
    ("TetraForm.one().scaled(SURD)", "NonrationalScalar", "a tetra-form scale must be rational, got 1+sqrt(2)"),
    ("TetraForm.from_planes([(SURD, 1, 0, 0, 0)])", "NonrationalScalar", "a plane coefficient must be rational, got 1+sqrt(2)"),
    ("TetraForm.from_planes([], scale=SURD)", "NonrationalScalar", "a tetra-form scale must be rational, got 1+sqrt(2)"),
    ("count_double_octic({(8, 0, 0, 0): SURD}, 7)", "NonrationalScalar", "an octic coefficient must be rational, got 1+sqrt(2)"),
    ("count_double_octic([(SURD, 0, 0, 0)] + PLANES, 7)", "NonrationalScalar", "an octic coefficient must be rational, got 1+sqrt(2)"),
    ("PeriodSeries([1, SURD])", "NonrationalScalar", "a period coefficient must be rational, got 1+sqrt(2)"),
    # a q-series truncation: True was kept and 1.5 raised a builtins TypeError (-1: tests/test_qexp.py)
    ("QSeries([1, 2], True)", "InvalidTruncation", "the truncation must be an integer, got True"),
    ("QSeries([1, 2], 1.5)", "InvalidTruncation", "the truncation must be an integer, got 1.5"),
    # a period unit was kept as a float or a bool
    ("PeriodSeries([1, 2], unit=1.5)", "InexactScalar", "a scalar must be exact, not the float 1.5"),
    ("PeriodSeries([1, 2], unit=True)", "InexactScalar", "a scalar must be exact, not the bool True"),
    # a recurrence index: 2.5 gave floats, True was read as 1 and 5.0 raised a builtins TypeError
    ("REC.coefficients(2.5)", "InexactScalar", "a scalar must be exact, not the float 2.5"),
    ("REC.coefficients(True)", "InexactScalar", "a scalar must be exact, not the bool True"),
    ("REC.extend([1, 4], True)", "InvalidTruncation", "the last index must be an integer, got True"),
    ("REC.extend([1, 4], 5.0)", "InvalidTruncation", "the last index must be an integer, got 5.0"),
    (
        "annihilation_order(ThetaOperator.from_json({'form': 'theta', 'coeffs': [['0', '0', '1'], ['1']]}),"
        " SingularPoint(0), GeneralizedSeries(SingularPoint(0), 0, [[5]], 0))",
        "TruncationTooLow",
        "truncation 0 below the operator's t-degree 1",
    ),
    # a series around 0 read as if it were around 1
    (
        "annihilation_order(ThetaOperator.from_json({'form': 'theta', 'coeffs': [['0', '0', '1'], ['1']]}),"
        " SingularPoint(1), GeneralizedSeries(SingularPoint(0), 0, [[5], [0]], 1))",
        "PointMismatch",
        "a series around 0 checked at 1",
    ),
    # a catalog octic is read from JSON as exact integer strings, eight planes of four
    (
        "load_catalog(with_octic([[['1/2'], [], [], []]] + [ROW] * 7))",
        "InvalidOctic",
        "an octic coefficient must be a list of integer strings, got ['1/2']",
    ),
    (
        "load_catalog(with_octic([[['1.5'], [], [], []]] + [ROW] * 7))",
        "InvalidOctic",
        "an octic coefficient must be a list of integer strings, got ['1.5']",
    ),
    (
        "load_catalog(with_octic([[[True], [], [], []]] + [ROW] * 7))",
        "InvalidOctic",
        "an octic coefficient must be a list of integer strings, got [True]",
    ),
    ("load_catalog(with_octic([ROW] * 7))", "InvalidOctic", "an arrangement needs eight planes of four coefficients"),
    ("load_catalog(with_octic(5))", "InvalidOctic", "an octic must be a list of planes, got 5"),
    # an evaluation point: 0.5 gave the float 2.0 and True was read as 1
    ("Polynomial([1, 2])(0.5)", "InexactScalar", "a scalar must be exact, not the float 0.5"),
    ("Polynomial([1, 2])(True)", "InexactScalar", "a scalar must be exact, not the bool True"),
    ("RationalFunction(Polynomial([1]), Polynomial([1, 2]))(0.5)", "InexactScalar", "a scalar must be exact, not the float 0.5"),
    # a point that is not a SingularPoint is read as SingularPoint(point); a
    # plain int raised AttributeError: 'int' object has no attribute 'is_infinite'
    ("local_basis(OP, 1.5)", "InexactScalar", "a scalar must be exact, not the float 1.5"),
    ("classify_point(OP, True)", "InexactScalar", "a scalar must be exact, not the bool True"),
    ("local_operator(OP, 1.5)", "InexactScalar", "a scalar must be exact, not the float 1.5"),
    ("indicial_polynomial(OP, True)", "InexactScalar", "a scalar must be exact, not the bool True"),
    # a string point raised the builtins TypeError of as_scalar
    ("local_basis(OP, '3')", "InvalidPoint", "a point must be a SingularPoint or an exact scalar, got '3'"),
    ("classify_point(OP, '3')", "InvalidPoint", "a point must be a SingularPoint or an exact scalar, got '3'"),
    ("local_operator(OP, '3')", "InvalidPoint", "a point must be a SingularPoint or an exact scalar, got '3'"),
    ("indicial_polynomial(OP, '3')", "InvalidPoint", "a point must be a SingularPoint or an exact scalar, got '3'"),
    ("MobiusMap(0, 1, 1, -1)('3')", "InvalidPoint", "a point must be a SingularPoint or an exact scalar, got '3'"),
    ("SingularPoint('3')", "InvalidPoint", "a point must be a SingularPoint or an exact scalar, got '3'"),
    # a string scalar of a tetra form raised the builtins TypeError of as_scalar
    ("TetraForm({(0, 0, 0, 0): 'abc'})", "InvalidTetraForm", "a tetra-form coefficient must be an exact scalar, got 'abc'"),
    ("TetraForm.one().scaled('2')", "InvalidTetraForm", "a tetra-form scale must be an exact scalar, got '2'"),
    ("TetraForm.from_planes([('1', 0, 0, 0, 0)])", "InvalidTetraForm", "a plane coefficient must be an exact scalar, got '1'"),
    # a flag: any truthy object was read as True
    ("riemann_symbol(OP, with_log_check='no')", "InvalidFlag", "with_log_check must be True or False, got 'no'"),
    ("riemann_symbol(OP, with_log_check=1)", "InvalidFlag", "with_log_check must be True or False, got 1"),
    ("verify_catalog(include_chains='no')", "InvalidFlag", "include_chains must be True or False, got 'no'"),
]


@pytest.mark.parametrize("expr, name, message", TYPED_CHECKS, ids=[name for _e, name, _m in TYPED_CHECKS])
def test_check_raises_its_typed_error(expr, name, message):
    namespace = {}
    exec(_IMPORTS, namespace)
    with pytest.raises(getattr(errors, name)) as info:
        eval(expr, namespace)
    assert isinstance(info.value, ValueError) and str(info.value) == message


def test_typed_errors_under_optimize(run_optimized):
    code = _IMPORTS + "".join(
        "try:\n    %s\nexcept ValueError as exc:\n    print(type(exc).__name__)\n" % expr for expr, _n, _m in TYPED_CHECKS
    )
    assert run_optimized(code).split() == [name for _e, name, _m in TYPED_CHECKS]


def test_package_has_no_assert_and_no_bare_value_error():
    # python -O strips asserts, and a bare ValueError cannot be told apart
    # from other failures; KeyError, TypeError and ZeroDivisionError keep
    # their Python meaning and stay allowed
    found = []
    for path in sorted(Path(picardfuchs.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d assert" % (path.name, node.lineno))
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    found.append("%s:%d raise ValueError" % (path.name, node.lineno))
    assert found == []


def _lcm_of_denominators(source):
    """Lines of the lcm calls in `source` that read a .denominator: a clearing of denominators."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and "lcm" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
        and any(isinstance(sub, ast.Attribute) and sub.attr == "denominator" for arg in node.args for sub in ast.walk(arg))
    ]


def test_denominators_are_cleared_only_in_arith():
    # arith.integer_rows is the one place that clears denominators; a copy of
    # it elsewhere is found, in either spelling of lcm
    assert _lcm_of_denominators("D = math.lcm(*(a.denominator for a in series))\nE = lcm(x.denominator, 2)\n") == [1, 2]
    found = [
        "%s:%d" % (path.name, line)
        for path in sorted(Path(picardfuchs.__file__).parent.glob("*.py"))
        if path.name != "arith.py"
        for line in _lcm_of_denominators(path.read_text())
    ]
    assert found == []


# every reader of a truncation N, with its message
_TRUNCATION_READERS = {
    "local_basis": (lambda N: local_basis(CATALOG[33].operator, SingularPoint(0), N), "the truncation"),
    "classify_point": (lambda N: classify_point(CATALOG[33].operator, SingularPoint(0), N), "the truncation"),
    "eta_product": (lambda N: eta_product(FORMS["f32"].eta, N), "the truncation"),
    "verify_form_table": (lambda N: verify_form_table("f32", N), "the truncation"),
    "PowerSeries": (lambda N: PowerSeries([1, 2], N), "the truncation order"),
}


@pytest.mark.parametrize("value", [30.5, True, Fraction(30), "30"], ids=["float", "bool", "Fraction", "str"])
@pytest.mark.parametrize("reader", list(_TRUNCATION_READERS))
def test_truncation_readers_reject_non_integers(reader, value):
    # True was read as 1, and the others raised a builtins TypeError from a
    # slice, a range or a comparison
    call, what = _TRUNCATION_READERS[reader]
    with pytest.raises(errors.InvalidTruncation) as info:
        call(value)
    assert isinstance(info.value, ValueError) and str(info.value) == "%s must be an integer, got %r" % (what, value)


@pytest.mark.parametrize("value", [0, 1, Fraction(1), None], ids=["0", "1", "Fraction", "None"])
def test_a_scalar_point_reads_as_a_singular_point(value):
    op = CATALOG[33].operator
    point = SingularPoint(value)
    assert optheta.local_operator(op, value) == optheta.local_operator(op, point)
    assert optheta.indicial_polynomial(op, value) == optheta.indicial_polynomial(op, point)
    basis = local_basis(op, value, 12)
    assert basis.point == point and basis.exponents() == local_basis(op, point, 12).exponents()
    assert classify_point(op, value, 12) == classify_point(op, point, 12)
