"""The stored operator catalog, derived operators, and reduction chains."""

import hashlib
import json
from fractions import Fraction

import pytest

from picardfuchs import (
    CATALOG,
    CHAINS,
    DERIVED_OPERATORS,
    SingularPoint,
    dump_catalog,
    load_catalog,
    reproduce_reduction,
    verify_catalog,
)
from picardfuchs.catalog import CatalogReport, CheckResult, EntryReport, _check_entry, _even_descent
from picardfuchs.errors import ChainBroken, NotEven, UnclassifiedPattern
from test_catalog_mutants import mutate

HALF = Fraction(1, 2)


def _table_by_str(rec):
    return {str(p): v for p, v in rec.symbol_table().items()}


def test_census():
    assert len(CATALOG) == 25
    assert len(DERIVED_OPERATORS) == 5
    assert len(CHAINS) == 11


def test_operator_orders():
    assert {rec.operator.order for rec in CATALOG.values()} == {2, 4}


def test_entry_4_symbol():
    assert _table_by_str(CATALOG[4]) == {
        "0": (0, 0),
        "1": (0, 0),
        "oo": (HALF, HALF),
    }


def test_entry_243_singular_points():
    assert sorted(_table_by_str(CATALOG[243])) == ["0", "1", "2", "3/2", "oo"]


def test_entry_198_exponents_at_infinity():
    tbl = _table_by_str(CATALOG[198])
    assert tbl["oo"] == (HALF, HALF, Fraction(5, 2), Fraction(5, 2))


def test_decorations_align_with_points():
    for rec in CATALOG.values():
        if rec.decorations is not None:
            assert len(rec.decorations) == len(rec.symbol_table())
        assert len(rec.labels) == len(rec.symbol_table())


def test_operator_266_identical_to_273():
    assert CATALOG[266].operator == CATALOG[273].operator


def test_catalog_json_round_trips_to_built_records():
    # the catalog is stored once, in catalog_data; its JSON dump (the default,
    # and the indented one `pf catalog dump` prints) must read back unchanged
    for text in (None, dump_catalog(indent=1)):
        cat, der = load_catalog(text)
        assert sorted(cat) == sorted(CATALOG)
        assert sorted(der) == sorted(DERIVED_OPERATORS)
        for k, rec in CATALOG.items():
            assert cat[k].to_json() == rec.to_json()
            assert cat[k] == rec
        for k, rec in DERIVED_OPERATORS.items():
            assert der[k].to_json() == rec.to_json()
            assert der[k] == rec


def test_symbol_check_reads_printed_columns_up_to_order():
    # the column at 1 matches up to order, so only the slip at 2 is reported:
    # NOTED on a record that lists 2 among its printed discrepancy points
    rec = CATALOG[33]
    printed = {SingularPoint(1): (1, HALF, HALF, 0), SingularPoint(2): (0, 1, 1, 3)}
    rec = rec._replace(symbol=tuple((p, printed.get(p, exps)) for p, exps in rec.symbol))
    noted = DERIVED_OPERATORS["descent-98"]._replace(
        operator=rec.operator, symbol=rec.symbol, labels=rec.labels, printed_discrepancy_points=(SingularPoint(2),)
    )
    check = _check_entry(noted)[0]
    assert check == CheckResult("symbol", "NOTED", "printed (0,1,1,3) at 2, operator gives (0,1,1,2)")
    check = _check_entry(rec)[0]
    assert check == CheckResult("symbol", "FAIL", "mismatch at [2]")


def test_dump_catalog_is_versioned_json():
    doc = json.loads(dump_catalog(indent=None))
    assert doc["version"] == 1
    assert len(doc["arrangements"]) == 25


def test_reduction_chain_reproduces():
    rep = reproduce_reduction("33to70")
    assert rep.ok
    assert rep.name == "33to70"
    assert rep.format()


def test_descent_of_an_odd_operator_breaks_the_chain():
    # descend_quadratic's NotEven is the one evenness test of the descent step
    op = CATALOG[4].operator
    with pytest.raises(ChainBroken) as info:
        _even_descent(op)
    assert str(info.value) == "reduction chain broken at step: quadratic descent (operator is not even)"
    assert isinstance(info.value.__cause__, NotEven)


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: CATALOG[4], "operator"),
        (lambda: DERIVED_OPERATORS["descent-98"], "operator"),
        (lambda: CheckResult("symbol", "PASS"), "status"),
        (lambda: EntryReport("arrangement", 4, (CheckResult("symbol", "PASS"),)), "checks"),
        (lambda: CatalogReport(()), "entries"),
        (lambda: reproduce_reduction("33to70").steps[0], "operator"),
        (lambda: reproduce_reduction("33to70"), "ok"),
    ],
    ids=["arrangement", "derived", "check", "entry", "catalog-report", "chain-step", "reduction-report"],
)
def test_catalog_records_are_immutable(make, field):
    rec = make()
    with pytest.raises(AttributeError):
        setattr(rec, field, None)
    with pytest.raises(AttributeError):
        rec.extra = None  # a record keeps no instance dict


def test_unknown_chain_lists_candidates():
    with pytest.raises(KeyError) as exc:
        reproduce_reduction("nonsense")
    assert "33to70" in str(exc.value)


def test_verification_finds_each_points_exponents_once(monkeypatch):
    # riemann_symbol once per entry; the Fuchs check reads that symbol (128 candidate points)
    from picardfuchs import optheta

    calls = []
    exponents_at = optheta.exponents_at

    def counted(op, point):
        calls.append(point)
        return exponents_at(op, point)

    monkeypatch.setattr(optheta, "exponents_at", counted)
    assert verify_catalog().ok
    assert len(calls) == 128


def test_verification_classifies_each_printed_column_once(monkeypatch):
    # the labels and no-MUM rows share one classify_point per printed column (128 columns)
    from picardfuchs import catalog

    calls = []
    classify_point = catalog.classify_point

    def counted(op, point):
        calls.append(point)
        return classify_point(op, point)

    monkeypatch.setattr(catalog, "classify_point", counted)
    assert verify_catalog().ok
    assert len(calls) == sum(len(rec.symbol) for rec in [*CATALOG.values(), *DERIVED_OPERATORS.values()]) == 128


def test_verification_output_is_pinned():
    # SHA-256 of the text report and of the canonical JSON of the report with chains
    text = verify_catalog().format()
    doc = json.dumps(verify_catalog(include_chains=True).to_json(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a2fbbe2f3c370f9e875f6ea7d77432990f57952155c87a46dbf699083c95f13d"
    )
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "362b7dd99baa1825f6aedfca900e4afc4f4f53eccb8db382a40070174525e2d6"
    )


def test_a_classification_error_is_a_labels_fail_and_a_bug_propagates(monkeypatch):
    # an analysis error (a ValueError of errors.py) is the entry's labels FAIL;
    # any other exception is a bug and stops the run
    from picardfuchs import catalog

    classify_point = catalog.classify_point

    def unclassified_at_1(op, point):
        if op is CATALOG[4].operator and point == SingularPoint(1):
            raise UnclassifiedPattern((0, 0), [2])
        return classify_point(op, point)

    monkeypatch.setattr(catalog, "classify_point", unclassified_at_1)
    assert [line for line in verify_catalog().lines() if not line.startswith("PASS")] == [
        "FAIL arrangement 4 [labels: 1: expected K, got error: "
        "UnclassifiedPattern('unclassified local pattern: exponents [0, 0], blocks [2]')]"
    ]

    def broken(op, point):
        raise TypeError("a bug in the classifier")

    monkeypatch.setattr(catalog, "classify_point", broken)
    with pytest.raises(TypeError, match="^a bug in the classifier$"):
        verify_catalog()


# (arrangement, theta coefficient change, error text): one mutant per analysis error of riemann_symbol
_ANALYSIS_ERROR_MUTANTS = [
    (35, (0, 0, 1), "IrrationalExponent('indicial factor with unsupported roots: Polynomial(4*t^4-8*t^3+5*t^2-t+1)')"),
    (98, (2, 3, 1),
     "IrregularSingularity('irregular singular point 1: indicial polynomial of degree 3 below the order 4')"),
    (198, (4, 4, 2),
     "UnresolvedFactor('factor with roots outside the supported fields: Polynomial(9*t^4+48*t^3+104*t^2+96*t+32)')"),
]


def test_an_analysis_error_fails_the_rows_that_read_the_symbol(monkeypatch):
    # a ValueError from riemann_symbol is the FAIL of symbol and fuchs, with its
    # text; profile, labels and no-MUM still run on the same entry
    for aid, change, _error in _ANALYSIS_ERROR_MUTANTS:
        monkeypatch.setitem(CATALOG, aid, mutate(CATALOG[aid], "coeff", change))
    failed = {e.key: e.checks for e in verify_catalog().entries if not e.ok}
    assert sorted(failed) == [35, 98, 198]
    for aid, _change, error in _ANALYSIS_ERROR_MUTANTS:
        symbol, profile, fuchs, labels, no_mum = failed[aid]
        assert symbol == CheckResult("symbol", "FAIL", "error: " + error)
        assert fuchs == CheckResult("fuchs", "FAIL", "error: " + error)
        assert (profile.name, labels.name, labels.status) == ("profile", "labels", "FAIL")
        assert no_mum == CheckResult("no-MUM", "PASS")
    assert failed[35][3].detail == "0: expected C, got error: " + _ANALYSIS_ERROR_MUTANTS[0][2]
    # the third mutant changes the top coefficient, so its printed points are no longer roots
    assert [failed[aid][1] for aid in (35, 98, 198)] == [
        CheckResult("profile", "PASS"),
        CheckResult("profile", "PASS"),
        CheckResult("profile", "FAIL", "no root at [-1, -2]"),
    ]


def test_full_verification_passes():
    rep = verify_catalog(include_chains=True)
    assert rep.ok
    lines = rep.format().splitlines()
    assert lines[-1] == "catalog: PASS"
    assert all(line.startswith("PASS") for line in lines[:-1])


def _columns(sym):
    """{point: exponents} of a symbol's genuine points, as strings."""
    return {str(p): " ".join(str(e) for e in exps) for p, exps, _g in sym.genuine()}


_Q3 = "0 1 3 4"
_C = "0 1 1 2"
_SIXTHS = "1/6 2/3 2/3 7/6"
_THIRDS = "0 1/3 1 4/3"
# the exponent tables after each step of 266chain; steps 1 and 2 have
# coefficients in Q(sqrt(-3)) and points in Q(sqrt(-3))
CHAIN_266_TABLES = [
    {
        "-1": _C, "-1/2": _SIXTHS, "-1/4-1/4*sqrt(-3)": _Q3, "-1/4": _C,
        "-1/4+1/4*sqrt(-3)": _Q3, "0": _SIXTHS, "1/2": _C, "oo": _SIXTHS,
    },
    {
        "-1": _C, "-1/2-1/2*sqrt(-3)": _SIXTHS, "-1/2+1/2*sqrt(-3)": _SIXTHS, "0": _Q3,
        "1/2-1/2*sqrt(-3)": _C, "1/2+1/2*sqrt(-3)": _C, "1": _SIXTHS, "oo": _Q3,
    },
    {"-1": _C, "0": _THIRDS, "1": _SIXTHS, "oo": _THIRDS},
    {"-1": _C, "0": _THIRDS, "1": _SIXTHS, "oo": _THIRDS},
]


def test_266_chain_step_tables():
    rep = reproduce_reduction("266chain")
    assert rep.ok
    assert [_columns(step.symbol()) for step in rep.steps] == CHAIN_266_TABLES
