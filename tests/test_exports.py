"""The export contract of the package: the names of `__all__`, resolved on first access."""

import importlib
import sys

import pytest

import picardfuchs

# defining submodule -> exported names, in the order of __all__
EXPORTS = {
    "arith": ["Polynomial", "PowerSeries", "QuadraticNumber", "RationalFunction"],
    "catalog": [
        "CATALOG",
        "CHAINS",
        "DERIVED_OPERATORS",
        "ArrangementRecord",
        "DerivedOperatorRecord",
        "dump_catalog",
        "load_catalog",
        "reproduce_reduction",
        "verify_catalog",
    ],
    "frobenius": ["PointType", "classify_point", "local_basis"],
    "guess": ["GuessConfig", "guess_operator", "recurrence_from_operator"],
    "optheta": [
        "INFINITY",
        "DOperator",
        "RiemannSymbol",
        "SingularPoint",
        "ThetaOperator",
        "fuchs_defect",
        "riemann_symbol",
    ],
    "period": ["PeriodSeries", "TetraForm", "conifold_expand", "verify_annihilation"],
    "qexp": ["FORMS", "count_double_octic", "eta_product", "verify_form_table"],
    "transform": ["MobiusMap", "descend_quadratic", "mobius", "pullback_power", "shift_exponents", "yukawa"],
}
DEFINED_IN = {name: module for module, names in EXPORTS.items() for name in names}


def test_all_is_unchanged():
    assert picardfuchs.__all__ == list(DEFINED_IN)


@pytest.mark.parametrize("name", list(DEFINED_IN))
def test_export_is_the_defining_object(name):
    defined = getattr(importlib.import_module("picardfuchs." + DEFINED_IN[name]), name)
    assert picardfuchs.__getattr__(name) is defined  # the first-access path, cached or not
    assert getattr(picardfuchs, name) is defined


def test_star_import_binds_the_defining_objects():
    scope = {}
    exec("from picardfuchs import *", scope)
    del scope["__builtins__"]
    assert sorted(scope) == sorted(DEFINED_IN)
    for name, value in scope.items():
        assert value is getattr(sys.modules["picardfuchs." + DEFINED_IN[name]], name), name


def test_dir_lists_every_export():
    assert set(DEFINED_IN) <= set(dir(picardfuchs))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'picardfuchs' has no attribute 'no_such_name'$"):
        picardfuchs.no_such_name


def test_submodules_still_import_by_name(run_fresh):
    # in a new interpreter, so that neither submodule is loaded before the import
    code = (
        "import sys\n"
        "from picardfuchs import optheta, cli\n"
        "print(optheta is sys.modules['picardfuchs.optheta'], cli is sys.modules['picardfuchs.cli'])\n"
    )
    assert run_fresh(code).split() == ["True", "True"]
