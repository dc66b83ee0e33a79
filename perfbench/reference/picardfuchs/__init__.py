"""Exact local analysis, transformation, and reconstruction of Fuchsian operators."""

from .arith import (
    Polynomial,
    PowerSeries,
    QuadraticNumber,
    RationalFunction,
)
from .catalog import (
    CATALOG,
    CHAINS,
    DERIVED_OPERATORS,
    ArrangementRecord,
    DerivedOperatorRecord,
    dump_catalog,
    load_catalog,
    reproduce_reduction,
    verify_catalog,
)
from .frobenius import PointType, classify_point, local_basis
from .guess import GuessConfig, guess_operator, recurrence_from_operator
from .optheta import (
    INFINITY,
    DOperator,
    RiemannSymbol,
    SingularPoint,
    ThetaOperator,
    fuchs_defect,
    riemann_symbol,
)
from .period import PeriodSeries, TetraForm, conifold_expand, verify_annihilation
from .qexp import FORMS, count_double_octic, eta_product, verify_form_table
from .transform import (
    MobiusMap,
    descend_quadratic,
    mobius,
    pullback_power,
    shift_exponents,
    yukawa,
)

__all__ = [
    "Polynomial",
    "PowerSeries",
    "QuadraticNumber",
    "RationalFunction",
    "CATALOG",
    "CHAINS",
    "DERIVED_OPERATORS",
    "ArrangementRecord",
    "DerivedOperatorRecord",
    "dump_catalog",
    "load_catalog",
    "reproduce_reduction",
    "verify_catalog",
    "PointType",
    "classify_point",
    "local_basis",
    "GuessConfig",
    "guess_operator",
    "recurrence_from_operator",
    "INFINITY",
    "DOperator",
    "RiemannSymbol",
    "SingularPoint",
    "ThetaOperator",
    "fuchs_defect",
    "riemann_symbol",
    "PeriodSeries",
    "TetraForm",
    "conifold_expand",
    "verify_annihilation",
    "FORMS",
    "count_double_octic",
    "eta_product",
    "verify_form_table",
    "MobiusMap",
    "descend_quadratic",
    "mobius",
    "pullback_power",
    "shift_exponents",
    "yukawa",
]
