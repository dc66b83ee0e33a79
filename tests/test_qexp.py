"""Eta products, the form registry, and double octic point counts."""

from fractions import Fraction

import pytest

from picardfuchs import CATALOG, count_double_octic, eta_product, verify_form_table
from picardfuchs.errors import BadReduction, EvenPrime, InvalidOctic, NotPrime
from picardfuchs.qexp import FORMS, EtaProductSpec, lookup_form

ETA_FORMS = ("f32", "16", "8", "6/1", "8/1")


def _fibre_planes(family, parameter):
    octic = CATALOG[family].octic
    return [tuple(c(Fraction(parameter)) for c in plane) for plane in octic]


def _expand(planes):
    terms = {(0, 0, 0, 0): Fraction(1)}
    for plane in planes:
        new = {}
        for mono, coef in terms.items():
            for axis, c in enumerate(plane):
                if c == 0:
                    continue
                key = tuple(mono[i] + (i == axis) for i in range(4))
                new[key] = new.get(key, Fraction(0)) + coef * c
        terms = new
    return terms


def test_eta_product_splits_multiplicatively():
    whole = EtaProductSpec(1, ((4, 2), (8, 2)))
    left = EtaProductSpec(1, ((4, 2),))
    right = EtaProductSpec(0, ((8, 2),))
    n = 40
    assert (
        eta_product(whole, n).coeffs
        == (eta_product(left, n) * eta_product(right, n)).coeffs
    )


def test_stated_coefficients():
    q = eta_product(lookup_form("f32").eta, 30)
    assert (q.coefficient(5), q.coefficient(29)) == (-2, -10)
    assert eta_product(lookup_form("6/1").eta, 18).coefficient(17) == -126


def test_lookup_aliases():
    rec = FORMS["f32"]
    assert lookup_form("f_32") is rec
    assert lookup_form("f_{32}") is rec
    with pytest.raises(KeyError):
        lookup_form("f99")


def test_every_eta_table_verifies():
    for name in ETA_FORMS:
        report = verify_form_table(name)
        assert report.passed, report.lines()


def test_table_only_forms_have_no_eta():
    for name in ("12/1", "32/1", "32/2", "h"):
        assert lookup_form(name).eta is None


def test_count_is_permutation_invariant():
    planes = _fibre_planes(250, 0)
    assert count_double_octic(planes, 5) == 153
    assert count_double_octic(list(reversed(planes)), 5) == 153


def test_count_square_scaling_invariant():
    planes = _fibre_planes(250, 0)
    scaled = [tuple(4 * c for c in planes[0])] + planes[1:]
    assert count_double_octic(scaled, 5) == 153
    # a non-residue twist genuinely changes the surface
    twisted = [tuple(2 * c for c in planes[0])] + planes[1:]
    assert count_double_octic(twisted, 5) != 153


def test_monomial_input_matches_planes():
    planes = _fibre_planes(250, 0)
    assert count_double_octic(_expand(planes), 7) == count_double_octic(planes, 7)


def test_even_prime_rejected():
    with pytest.raises(EvenPrime):
        count_double_octic(_fibre_planes(250, 0), 2)


@pytest.mark.parametrize("p", [9, 4489])  # 4489 = 67^2 has no factor below 64
def test_composite_modulus_rejected(p):
    with pytest.raises(NotPrime):
        count_double_octic(_fibre_planes(250, 0), p)


def test_composite_modulus_rejected_under_optimize(run_optimized):
    code = (
        "from picardfuchs import count_double_octic\n"
        "from picardfuchs.errors import NotPrime\n"
        "try:\n"
        "    count_double_octic([(1, 0, 0, 0)] * 8, 9)\n"
        "except NotPrime:\n"
        "    print('NotPrime')\n"
    )
    assert run_optimized(code).strip() == "NotPrime"


@pytest.mark.parametrize(
    "octic, message",
    [
        ({(7, 0, 0, 0): 1, (0, 0, 0, 8): 1}, "homogeneous of degree 8"),
        ({(8, 0, 0): 1}, "four nonnegative exponents"),
        ({(9, -1, 0, 0): 1}, "four nonnegative exponents"),
        ([(1, 0, 0, 0)] * 7, "eight linear forms"),
        ([(1, 0, 0)] * 8, "eight linear forms"),
    ],
)
def test_malformed_octic_rejected(octic, message):
    with pytest.raises(InvalidOctic, match=message):
        count_double_octic(octic, 5)


@pytest.mark.parametrize(
    "octic",
    [
        [(Fraction(1, 5), 1, 0, 0)] + [(1, 0, 0, 0)] * 7,
        {(8, 0, 0, 0): Fraction(1, 5), (0, 8, 0, 0): 1},
    ],
    ids=["planes", "monomials"],
)
def test_coefficient_with_bad_reduction_rejected(octic):
    with pytest.raises(BadReduction, match=r"^coefficient 1/5 has bad reduction mod 5$"):
        count_double_octic(octic, 5)


# checks that hold under python -O: (statement, error type)
QEXP_CHECKS = [
    ("QSeries([1, 2, 3], 2).coefficient(-1)", "CoefficientOutOfRange"),
    ("QSeries([1, 2, 3], 2).coefficient(3)", "CoefficientOutOfRange"),
    ("QSeries([1, 2, 3], 2) * 3", "TypeError"),
    ("_inverse_unit(QSeries([2, 1], 1))", "NonUnitConstantTerm"),
    ("EtaProductSpec(0, [(0, 1)])", "InvalidEtaProduct"),
    ("EtaProductSpec(1, [(4, 0)])", "InvalidEtaProduct"),
    ("EtaProductSpec(-1, [(4, 2)])", "InvalidEtaProduct"),
    ("eta_product(EtaProductSpec(1, [(4, 2)]), 0)", "TruncationTooLow"),
    ("FormRecord('x', 2, (2, 3), (1,))", "InvalidFormRecord"),
    ("FormRecord('x', 2, (3, 2), (1, 1))", "InvalidFormRecord"),
    ("verify_form_table('f32', N=10)", "TruncationTooLow"),
    ("verify_form_table('12/1')", "NoEtaProduct"),
    ("count_double_octic([(Fraction(1, 5), 1, 0, 0)] + [(1, 0, 0, 0)] * 7, 5)", "BadReduction"),
]
QEXP_IMPORTS = (
    "from fractions import Fraction\n"
    "from picardfuchs.qexp import QSeries, EtaProductSpec, FormRecord, _inverse_unit, count_double_octic, eta_product, verify_form_table\n"
    "from picardfuchs.errors import *\n"
)


@pytest.mark.parametrize("statement, error", QEXP_CHECKS)
def test_qexp_input_checks(statement, error):
    scope = {}
    exec(QEXP_IMPORTS, scope)
    with pytest.raises(eval(error, scope)):
        eval(statement, scope)


def test_qexp_input_checks_under_optimize(run_optimized):
    lines = [QEXP_IMPORTS]
    for statement, error in QEXP_CHECKS:
        lines.append("try:\n    %s\n    print('accepted')\nexcept %s:\n    print('%s')\n" % (statement, error, error))
    assert run_optimized("".join(lines)).split() == [error for _s, error in QEXP_CHECKS]
