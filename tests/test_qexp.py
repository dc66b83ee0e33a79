"""Eta products, the form registry, and double octic point counts."""

from fractions import Fraction

import pytest

import period_reference as ref
from picardfuchs import CATALOG, Polynomial, count_double_octic, eta_product, verify_form_table
from picardfuchs.errors import BadReduction, EvenPrime, InvalidOctic, NotPrime
from picardfuchs.qexp import FORMS, OCTICS, RIGID_FIBRES, Arrangement, EtaProductSpec, lookup_form

ETA_FORMS = ("f32", "16", "8", "6/1", "8/1")
LINEAR_OCTICS = [aid for aid in sorted(OCTICS) if aid != 248]


def _fibre_planes(family, parameter):
    return OCTICS[family].at(Fraction(parameter))


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


def _a(name, p):
    rec = FORMS[name]
    return rec.table[rec.primes.index(p)]


def test_cm_relations_of_the_stored_tables_and_the_false_note_on_8():
    # f32, 16 and 32/1 share the Hecke character of Q(i); "8" is the weight-3
    # CM form of Q(sqrt(-2)), with a_p = 2(a^2 - 2b^2) for p = a^2 + 2b^2
    odd = [p for p in FORMS["32/1"].primes if p > 2]
    assert odd == [3, 5, 7, 11, 13, 17, 19, 23]
    for p in odd:
        f = _a("f32", p)
        if p % 4 == 1:
            assert (_a("16", p), _a("32/1", p)) == (f * f - 2 * p, f ** 3 - 3 * p * f)
        else:
            assert (f, _a("16", p), _a("32/1", p)) == (0, 0, 0)
        norms = [(a, b) for a in range(1, p) for b in range(1, p) if a * a + 2 * b * b == p]
        assert bool(norms) == (p % 8 in (1, 3))
        assert _a("8", p) == (2 * (norms[0][0] ** 2 - 2 * norms[0][1] ** 2) if norms else 0)
    # the stored note calls "8" the tensor square of f32, but that square is
    # 16; no sign twist turns a_5(f32)^2 - 10 = -6 into a_5(8) = 0, and the
    # relation fails up to sign at every odd stored prime
    assert "tensor square of the f32 representation" in FORMS["8"].notes
    assert (_a("f32", 5) ** 2 - 2 * 5, _a("16", 5), _a("8", 5)) == (-6, -6, 0)
    assert [p for p in odd if abs(_a("8", p)) != abs(_a("f32", p) ** 2 - 2 * p)] == odd


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


def test_catalog_reads_the_octic_registry():
    # 24 arrangements of eight planes of four integer t-polynomials, iterated as planes; 248 is text
    assert sorted(OCTICS) == sorted(CATALOG)
    for aid, rec in CATALOG.items():
        assert rec.octic is OCTICS[aid]
    assert OCTICS[248] == "xyzv(x+z+v)(x+y+z)(x+(y+1)y-tz+v)(y-z-v)"
    for aid in LINEAR_OCTICS:
        planes = list(OCTICS[aid])
        assert isinstance(OCTICS[aid], Arrangement) and [len(plane) for plane in planes] == [4] * 8
        assert all(isinstance(c, Polynomial) and all(a.denominator == 1 for a in c) for plane in planes for c in plane)


def test_arrangements_compare_by_their_planes():
    # 266 and 273 share an operator but not an octic
    for aid in LINEAR_OCTICS:
        copy = Arrangement.from_json(OCTICS[aid].to_json())
        assert copy is not OCTICS[aid] and copy == OCTICS[aid] and hash(copy) == hash(OCTICS[aid])
    assert OCTICS[266] != OCTICS[273] and OCTICS[4] != OCTICS[4].to_json()
    assert len({OCTICS[aid] for aid in LINEAR_OCTICS}) == len(LINEAR_OCTICS)


@pytest.mark.parametrize("shorthand", [(True, 0), True, (0, False), (1, True)], ids=["tuple-true", "true", "tuple-false", "t-true"])
def test_a_bool_in_a_shorthand_raises_after_its_int_twin_is_built(shorthand):
    # the coefficient polynomials are shared by their checked int tuples, and
    # (True, 0) compares and hashes equal to the (1, 0) that OCTICS already built
    planes = [(1, 0, 0, (1, 0)), (1, 0, 0, 0), (1, 0, 0, 1), (1, 0, 0, (1, 1))]
    assert Arrangement(*planes * 2) == Arrangement(*planes * 2)
    with pytest.raises(InvalidOctic, match=r"^an octic coefficient must be an integer, got (True|False)$"):
        Arrangement(*[(1, 0, 0, shorthand)] * 8)


def _oracle_planes(octic, t):
    """The fibre at t from the JSON of the octic, by Polynomial and not by Arrangement.at."""
    return [tuple(Polynomial([Fraction(s) for s in c])(t) for c in plane) for plane in octic.to_json()]


@pytest.mark.parametrize("family", LINEAR_OCTICS)
def test_every_family_counts_like_the_per_point_reference(family):
    # denominators 3 and 2 are prime to both primes
    octic = OCTICS[family]
    for t in (0, 1, -2, Fraction(1, 3), Fraction(-3, 2)):
        for p in (5, 7):
            assert count_double_octic(octic.at(t), p) == ref.count_double_octic(_oracle_planes(octic, t), p), (t, p)


@pytest.mark.parametrize("fibre", sorted(RIGID_FIBRES))
def test_every_rigid_fibre_counts_like_the_per_point_reference(fibre):
    family, t = RIGID_FIBRES[fibre]
    octic = OCTICS[family]
    for p in (5, 7):
        assert count_double_octic(octic.at(t), p) == ref.count_double_octic(_oracle_planes(octic, t), p), p


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
    # coefficients are not truncated: 1.5 is no integer, True no 1
    ("QSeries([1.5, True, 2], 2)", "InexactScalar"),
    ("QSeries([1, True, 2], 2)", "InexactScalar"),
    ("_inverse_unit(QSeries([2, 1], 1))", "NonUnitConstantTerm"),
    # a truncation below 0 gave the empty series
    ("QSeries([1, 2], -1)", "TruncationTooLow"),
    ("EtaProductSpec(0, [(0, 1)])", "InvalidEtaProduct"),
    ("EtaProductSpec(1, [(4, 0)])", "InvalidEtaProduct"),
    ("EtaProductSpec(-1, [(4, 2)])", "InvalidEtaProduct"),
    # integer fields are not truncated: (4, 2.5) is no eta factor, True no power
    ("EtaProductSpec(1, ((4, 2.5),))", "InvalidEtaProduct"),
    ("EtaProductSpec(True, ((4, 2),))", "InvalidEtaProduct"),
    ("count_double_octic({(1.5, 2.5, 2, 3): 1}, 7)", "InvalidOctic"),
    ("count_double_octic({(8, 0, 0, 0): 1}, 7.0)", "NotPrime"),
    ("eta_product(EtaProductSpec(1, [(4, 2)]), 0)", "TruncationTooLow"),
    ("FormRecord('x', 2, (2, 3), (1,))", "InvalidFormRecord"),
    ("FormRecord('x', 2, (3, 2), (1, 1))", "InvalidFormRecord"),
    ("verify_form_table('f32', N=10)", "TruncationTooLow"),
    ("verify_form_table('12/1')", "NoEtaProduct"),
    ("count_double_octic([(Fraction(1, 5), 1, 0, 0)] + [(1, 0, 0, 0)] * 7, 5)", "BadReduction"),
    # an arrangement is eight planes of four exact integer t-polynomials
    ("Arrangement(*[(1, 0, 0, 0)] * 7)", "InvalidOctic"),
    ("Arrangement(*[(1, 0, 0)] * 8)", "InvalidOctic"),
    ("Arrangement(*[(1, 0, 0, (0, True))] * 8)", "InvalidOctic"),
    ("Arrangement(*[(1, 0, 0, 0.5)] * 8)", "InvalidOctic"),
    ("Arrangement(*[(1, 0, 0, Fraction(1, 2))] * 8)", "InvalidOctic"),
    # a coefficient read from JSON is a list of integer strings, never one string read digit by digit
    ("Arrangement.from_json([[['1'], ['0'], ['0'], '12']] * 8)", "InvalidOctic"),
    ("Arrangement.from_json([[['1'], ['0'], ['0'], ['+1']]] * 8)", "InvalidOctic"),
    ("Arrangement.from_json({'planes': []})", "InvalidOctic"),
]
QEXP_IMPORTS = (
    "from fractions import Fraction\n"
    "from picardfuchs.qexp import QSeries, Arrangement, EtaProductSpec, FormRecord, _inverse_unit, count_double_octic, eta_product, verify_form_table\n"
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
