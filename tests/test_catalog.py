"""The stored operator catalog, derived operators, and reduction chains."""

from fractions import Fraction

import json
import pytest

from picardfuchs import (
    CATALOG,
    CHAINS,
    DERIVED_OPERATORS,
    dump_catalog,
    load_catalog,
    reproduce_reduction,
    verify_catalog,
)
from picardfuchs.catalog import CatalogReport, CheckResult, EntryReport

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
        for k, rec in DERIVED_OPERATORS.items():
            assert der[k].to_json() == rec.to_json()


def test_dump_catalog_is_versioned_json():
    doc = json.loads(dump_catalog(indent=None))
    assert doc["version"] == 1
    assert len(doc["arrangements"]) == 25


def test_reduction_chain_reproduces():
    rep = reproduce_reduction("33to70")
    assert rep.ok
    assert rep.name == "33to70"
    assert rep.format()


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
