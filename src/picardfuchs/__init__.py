"""Exact local analysis, transformation, and reconstruction of Fuchsian operators.

The exports below resolve on first access (PEP 562): `import picardfuchs`
loads no submodule, and `picardfuchs.CATALOG` imports `picardfuchs.catalog`
only when it is read.  A resolved name is cached in the package namespace.
"""

import importlib

# exported name -> defining submodule, in the order of __all__
_EXPORTS = {
    "Polynomial": "arith",
    "PowerSeries": "arith",
    "QuadraticNumber": "arith",
    "RationalFunction": "arith",
    "CATALOG": "catalog",
    "CHAINS": "catalog",
    "DERIVED_OPERATORS": "catalog",
    "ArrangementRecord": "catalog",
    "DerivedOperatorRecord": "catalog",
    "dump_catalog": "catalog",
    "load_catalog": "catalog",
    "reproduce_reduction": "catalog",
    "verify_catalog": "catalog",
    "PointType": "frobenius",
    "classify_point": "frobenius",
    "local_basis": "frobenius",
    "GuessConfig": "guess",
    "guess_operator": "guess",
    "recurrence_from_operator": "guess",
    "INFINITY": "optheta",
    "DOperator": "optheta",
    "RiemannSymbol": "optheta",
    "SingularPoint": "optheta",
    "ThetaOperator": "optheta",
    "fuchs_defect": "optheta",
    "riemann_symbol": "optheta",
    "PeriodSeries": "period",
    "TetraForm": "period",
    "conifold_expand": "period",
    "verify_annihilation": "period",
    "FORMS": "qexp",
    "count_double_octic": "qexp",
    "eta_product": "qexp",
    "verify_form_table": "qexp",
    "MobiusMap": "transform",
    "descend_quadratic": "transform",
    "mobius": "transform",
    "pullback_power": "transform",
    "shift_exponents": "transform",
    "yukawa": "transform",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    # any other name raises, so `from picardfuchs import optheta` imports the submodule
    if name not in _EXPORTS:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _EXPORTS[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
