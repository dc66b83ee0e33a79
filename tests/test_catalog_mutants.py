"""Seeded mutants of the catalog records, and the verify-catalog rows that catch each.

Each mutant changes one record in one way: one theta coefficient of its
operator by +-1 or +-2, one printed exponent by +1, or two labels or two
decorations swapped.  MUTANTS pins the rows of catalog._ENTRY_CHECKS that
FAIL on each; an empty tuple means no row catches it.  No row reads the
decorations yet, and some single-coefficient mutants pass every row, so a
new check shows what it catches as a change to this table.

The set was drawn once with random.Random(40) and is stored as it is, so it
does not move with the random module.
"""

import pytest

from picardfuchs import CATALOG, DERIVED_OPERATORS
from picardfuchs.arith import Polynomial
from picardfuchs.catalog import _check_entry
from picardfuchs.optheta import ThetaOperator

RECORDS = {**CATALOG, **DERIVED_OPERATORS}


def _swap(values, a, b):
    values = list(values)
    values[a], values[b] = values[b], values[a]
    return tuple(values)


def mutate(rec, kind, args):
    """rec with one change: "coeff" (i, j, d) adds d to [t^i theta^j]; "exponent" (col, k)
    adds 1 to the k-th printed exponent of column col; "labels" and "decorations" (a, b) swap two."""
    if kind == "coeff":
        i, j, d = args
        rows = [list(p.coeffs) for p in rec.operator.theta_coeffs]
        rows[i] += [0] * (j + 1 - len(rows[i]))
        rows[i][j] += d
        return rec._replace(operator=ThetaOperator([Polynomial(row) for row in rows]))
    if kind == "exponent":
        col, k = args
        point, exps = rec.symbol[col]
        column = (point, exps[:k] + (exps[k] + 1,) + exps[k + 1:])
        return rec._replace(symbol=rec.symbol[:col] + (column,) + rec.symbol[col + 1:])
    return rec._replace(**{kind: _swap(getattr(rec, kind), *args)})


# (record, kind, args, rows that FAIL)
MUTANTS = [
    # one theta coefficient of an order-two operator
    (72, "coeff", (2, 2, -2), ("symbol", "profile", "labels")),
    (13, "coeff", (1, 2, -1), ("symbol", "profile", "labels")),
    (13, "coeff", (1, 1, 2), ("symbol", "labels")),
    (270, "coeff", (0, 2, -1), ("symbol", "profile", "labels")),
    (4, "coeff", (0, 2, 2), ("symbol", "profile", "labels")),
    (270, "coeff", (0, 0, 1), ("symbol", "labels")),
    (4, "coeff", (1, 1, -1), ("symbol", "labels")),
    (270, "coeff", (2, 2, -2), ("symbol", "profile", "fuchs", "labels")),
    (72, "coeff", (0, 1, 1), ("symbol", "labels")),
    (13, "coeff", (0, 1, -1), ("symbol", "labels")),
    (261, "coeff", (1, 2, 1), ("symbol", "profile", "labels")),
    (72, "coeff", (0, 2, -1), ("symbol", "profile", "labels")),
    (72, "coeff", (1, 2, -2), ("symbol", "profile", "labels")),
    (13, "coeff", (0, 2, -2), ("symbol", "profile", "labels")),
    (4, "coeff", (1, 2, 1), ("symbol", "profile", "labels")),
    (4, "coeff", (0, 0, 2), ("symbol", "labels")),
    # one theta coefficient of an order-four operator
    (70, "coeff", (0, 3, 1), ("symbol", "fuchs", "labels")),
    ("descent-35", "coeff", (1, 2, -1), ("symbol", "labels")),
    (197, "coeff", (0, 1, 2), ("symbol", "fuchs", "labels")),
    (247, "coeff", (3, 0, 2), ("symbol", "fuchs", "labels")),
    (248, "coeff", (4, 0, 2), ("labels",)),
    (71, "coeff", (1, 1, 2), ()),
    (248, "coeff", (1, 1, 1), ("symbol", "labels")),
    (252, "coeff", (0, 1, 1), ("symbol", "fuchs", "labels")),
    (247, "coeff", (1, 0, -1), ("labels",)),
    (247, "coeff", (0, 4, -1), ("symbol", "profile", "fuchs", "labels")),
    (248, "coeff", (3, 3, 2), ("symbol", "fuchs", "labels")),
    (258, "coeff", (2, 4, -1), ("symbol", "profile", "fuchs", "labels")),
    (153, "coeff", (5, 3, -2), ("symbol", "fuchs", "labels")),
    (247, "coeff", (1, 2, -2), ("symbol", "labels")),
    (258, "coeff", (2, 3, 2), ("symbol", "fuchs", "labels")),
    (266, "coeff", (8, 0, 1), ("labels",)),
    ("descent-153", "coeff", (1, 2, -2), ("symbol", "labels")),
    (97, "coeff", (1, 4, -2), ("symbol", "profile", "fuchs", "labels")),
    (153, "coeff", (4, 4, -2), ("symbol", "profile", "fuchs", "labels")),
    (258, "coeff", (0, 2, -2), ("symbol", "fuchs", "labels")),
    (247, "coeff", (1, 4, -2), ("symbol", "profile", "fuchs", "labels")),
    (152, "coeff", (5, 2, -1), ("symbol", "fuchs", "labels")),
    (266, "coeff", (9, 3, 2), ("symbol", "fuchs", "labels")),
    (153, "coeff", (5, 1, 1), ("symbol", "fuchs", "labels")),
    # one printed exponent
    (152, "exponent", (3, 0), ("symbol",)),
    (250, "exponent", (3, 3), ("symbol",)),
    (252, "exponent", (3, 1), ("symbol",)),
    (70, "exponent", (3, 2), ("symbol",)),
    (98, "exponent", (3, 3), ("symbol",)),
    (152, "exponent", (1, 3), ("symbol",)),
    (72, "exponent", (2, 0), ("symbol",)),
    (270, "exponent", (3, 1), ("symbol",)),
    # two labels swapped
    (153, "labels", (1, 2), ("labels",)),
    (152, "labels", (0, 2), ("labels",)),
    (247, "labels", (0, 2), ("labels",)),
    (248, "labels", (2, 4), ("labels",)),
    (35, "labels", (0, 2), ("labels",)),
    (72, "labels", (0, 1), ("labels",)),
    # two decorations swapped: no row reads them
    (97, "decorations", (2, 3), ()),
    (97, "decorations", (0, 2), ()),
    (33, "decorations", (0, 3), ()),
    (153, "decorations", (1, 2), ()),
    (266, "decorations", (2, 3), ()),
    (33, "decorations", (1, 3), ()),
]


@pytest.mark.parametrize(
    "key, kind, args, rows",
    MUTANTS,
    ids=["%s-%s-%s" % (key, kind, "_".join(map(str, args))) for key, kind, args, _rows in MUTANTS],
)
def test_mutant_fails_exactly_the_pinned_rows(key, kind, args, rows):
    rec = mutate(RECORDS[key], kind, args)
    assert rec != RECORDS[key]
    assert tuple(c.name for c in _check_entry(rec) if c.status == "FAIL") == rows
