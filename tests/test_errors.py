"""Typed errors: every input check raises an errors.py class, under any interpreter flag."""

import ast
from pathlib import Path

import pytest

import picardfuchs
from picardfuchs import errors

_IMPORTS = (
    "import json\n"
    "from picardfuchs.catalog import dump_catalog, load_catalog\n"
    "from picardfuchs.frobenius import GeneralizedSeries\n"
    "from picardfuchs.optheta import SingularPoint, ThetaOperator\n"
)
# (expression, error class, message) of the checks that once raised a bare ValueError
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
