"""Arrangement catalog: records, consistency verification, reduction replays.

The catalog holds one record per arrangement (octic, operator, printed
exponent table, decorations, expected degeneration labels, Hodge numbers)
plus the derived three-point operators and the transformation chains that
connect them.  verify_catalog runs the rows of _ENTRY_CHECKS (symbol,
profile, fuchs, labels, no-MUM) on each record, computing its Riemann symbol
and column labels once, and reports one pass/fail line per entry: a known
printed slip is NOTED with the recomputed value, and an analysis error (a
ValueError) is the FAIL of each row that meets it.  reproduce_reduction
replays a chain step by step and checks its endpoint.

Both record types are namedtuples over one base, whose to_json and
from_json walk the fields in order: a field's JSON form is defined once,
in _FIELD_JSON, and a field not named there is stored as it is.
"""

import json
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, partial

from . import catalog_data
from .arith import (
    Polynomial,
    QuadraticNumber,
    RationalFunction,
    _exact_flag,
    collapse,
    scalar_from_json,
    scalar_to_json,
)
from .errors import CatalogVersionMismatch, ChainBroken, NotEven
from .frobenius import classify_point
from .optheta import (
    INFINITY,
    SingularPoint,
    ThetaOperator,
    riemann_symbol,
    top_profile,
)
from .qexp import OCTICS, Arrangement
from .transform import (
    MobiusMap,
    descend_power,
    descend_quadratic,
    mobius,
    negate_variable,
    pullback_power,
    pullback_rational,
    shift_exponents,
    translate_to_origin,
)

CATALOG_VERSION = 1


def _point(p):
    return INFINITY if p is None else SingularPoint(p)


def _symbol(cols):
    """The printed columns of a catalog_data row as ((SingularPoint, exponent tuple), ...)."""
    return tuple((_point(p), tuple(exps)) for p, exps in cols)


# ---------------------------------------------------------------------------
# records


def _symbol_to_json(symbol):
    return [{"point": p.to_json(), "exponents": [scalar_to_json(e) for e in exps]} for p, exps in symbol]


def _symbol_from_json(rows):
    return tuple(
        (SingularPoint.from_json(row["point"]), tuple(scalar_from_json(e) for e in row["exponents"])) for row in rows
    )


# record field -> (to JSON, from JSON); a field not named here is stored as it is
_FIELD_JSON = {
    "operator": (ThetaOperator.to_json, ThetaOperator.from_json),
    "octic": (
        lambda octic: octic if isinstance(octic, str) else octic.to_json(),
        lambda data: data if isinstance(data, str) else Arrangement.from_json(data),
    ),
    "symbol": (_symbol_to_json, _symbol_from_json),
    "decorations": (
        lambda dec: None if dec is None else list(dec),
        lambda data: None if data is None else tuple(data),
    ),
    "labels": (list, tuple),
    "printed_discrepancy_points": (
        lambda points: [p.to_json() for p in points],
        lambda data: tuple(SingularPoint.from_json(p) for p in data),
    ),
}
_AS_IS = (lambda x: x,) * 2


class _Record:
    """Base of the two catalog records; their JSON keys are the namedtuple fields, in order."""

    __slots__ = ()

    def symbol_table(self):
        return dict(self.symbol)

    def to_json(self):
        return {f: _FIELD_JSON.get(f, _AS_IS)[0](v) for f, v in zip(self._fields, self)}

    @classmethod
    def from_json(cls, data):
        return cls(*(_FIELD_JSON.get(f, _AS_IS)[1](data[f]) for f in cls._fields))


class ArrangementRecord(_Record, namedtuple("ArrangementRecord", "id operator octic symbol decorations labels h11 h12 notes")):
    """One arrangement: geometry data, operator, and the printed tables.

    `octic` is qexp.OCTICS[id]: an Arrangement, or the printed text of 248
    (sic).  `symbol` is ((SingularPoint, exponent tuple), ...) in printed
    column order; `decorations` is a tuple aligned with its columns, or None;
    `labels` holds the expected degeneration label of each column.
    """

    __slots__ = ()


class DerivedOperatorRecord(
    _Record,
    namedtuple(
        "DerivedOperatorRecord",
        "name operator symbol decorations labels source chain printed_discrepancy_points notes",
    ),
):
    """A three-point operator produced from an arrangement by a chain.

    `symbol` holds the printed columns, which may contain documented slips;
    `printed_discrepancy_points` are the columns where print and operator
    differ.  `source` is the arrangement id the chain starts from, and
    replaying the chain named `chain` must reproduce `operator`.
    """

    __slots__ = ()


CATALOG = {
    aid: ArrangementRecord(aid, catalog_data.OPERATORS[aid], OCTICS[aid], _symbol(cols), *rest)
    for aid, (cols, *rest) in catalog_data.ARRANGEMENT_TABLES.items()
}
DERIVED_OPERATORS = {
    name: DerivedOperatorRecord(name, op, _symbol(cols), dec, labels, src, chain, tuple(map(_point, points)), notes)
    for name, (op, cols, dec, labels, src, chain, points, notes) in catalog_data.DERIVED.items()
}


# ---------------------------------------------------------------------------
# verification


class CheckResult(namedtuple("CheckResult", "name status detail", defaults=("",))):
    """One named check of an entry; `status` is PASS, FAIL or NOTED."""

    __slots__ = ()


class EntryReport(namedtuple("EntryReport", "kind key checks")):
    """The checks of one record; `kind` is "arrangement", "derived" or "chain"."""

    __slots__ = ()

    @property
    def ok(self):
        return all(c.status != "FAIL" for c in self.checks)

    def line(self):
        """The PASS/FAIL line, with the FAIL details in brackets, else the NOTED ones."""
        shown = [c for c in self.checks if c.status == "FAIL"] or [c for c in self.checks if c.status == "NOTED"]
        extra = " [%s]" % "; ".join("%s: %s" % (c.name, c.detail or "failed") for c in shown) if shown else ""
        return "%s %s %s%s" % ("PASS" if self.ok else "FAIL", self.kind, self.key, extra)

    def to_json(self):
        return {"kind": self.kind, "key": self.key, "ok": self.ok, "checks": [c._asdict() for c in self.checks]}


class CatalogReport(namedtuple("CatalogReport", "entries")):
    """The entry reports of one verify_catalog run."""

    __slots__ = ()

    @property
    def ok(self):
        return all(e.ok for e in self.entries)

    def lines(self):
        return [e.line() for e in self.entries]

    def format(self):
        out = self.lines()
        out.append("catalog: %s" % ("PASS" if self.ok else "FAIL"))
        return "\n".join(out)

    def to_json(self):
        return {"ok": self.ok, "entries": [e.to_json() for e in self.entries]}


def _fmt_exps(exps):
    return "(" + ",".join(str(e) for e in exps) + ")"


def _error(exc):
    return "error: %r" % (exc,)


class _Entry:
    """A record under check; its Riemann symbol and column labels are computed on first read."""

    def __init__(self, rec):
        self.rec = rec

    @cached_property
    def riemann(self):
        return riemann_symbol(self.rec.operator)

    @cached_property
    def labels(self):
        """The label classify_point gives each printed column, or the text of its analysis error."""
        out = []
        for p, _exps in self.rec.symbol:
            try:
                out.append(str(classify_point(self.rec.operator, p)))
            except ValueError as exc:  # an analysis error, as errors.py defines them
                out.append(_error(exc))
        return out


def _symbol_check(e):
    printed = e.rec.symbol_table()
    wrong, extra = e.riemann.mismatches(printed)
    if extra or set(wrong) - set(getattr(e.rec, "printed_discrepancy_points", ())):
        return "mismatch at %s" % (sorted(set(wrong) | set(extra), key=SingularPoint.sort_key),)
    got = {p: _fmt_exps(exps) for p, exps in e.riemann.table().items()}
    parts = ["printed %s at %s, operator gives %s" % (_fmt_exps(printed[p]), p, got.get(p, "no point")) for p in wrong]
    return "NOTED" if wrong else "PASS", "; ".join(parts)


def _profile_check(e):
    # transcription cross-check: the top profile vanishes exactly at the
    # printed finite points (0 and infinity are always candidates)
    ell = top_profile(e.rec.operator)
    bad = [p for p, _ in e.rec.symbol if not p.is_infinite and p.value != 0 and ell(p.value) != 0]
    return "no root at %s" % (bad,) if bad else ""


def _fuchs_check(e):
    n = e.rec.operator.order
    defect = e.riemann.fuchs_defect()
    return "" if defect == -n * (n - 1) else "defect %s" % (defect,)


def _labels_check(e):
    rows = zip(e.rec.symbol, e.rec.labels, e.labels)
    return "; ".join("%s: expected %s, got %s" % (p, want, got) for (p, _), want, got in rows if want != got)


# (name, check) in report order: a check returns its FAIL detail, empty when
# it passes, or a (status, detail) pair
_ENTRY_CHECKS = (
    ("symbol", _symbol_check),
    ("profile", _profile_check),
    ("fuchs", _fuchs_check),
    ("labels", _labels_check),
    ("no-MUM", lambda e: "MUM point present" if "MUM" in e.labels else ""),
)


def _check_entry(rec):
    """One CheckResult per row of _ENTRY_CHECKS; a row that raises an analysis error (a ValueError) FAILs."""
    entry = _Entry(rec)
    checks = []
    for name, check in _ENTRY_CHECKS:
        try:
            out = check(entry)
        except ValueError as exc:
            out = _error(exc)
        status, detail = out if isinstance(out, tuple) else ("FAIL" if out else "PASS", out)
        checks.append(CheckResult(name, status, detail))
    return tuple(checks)


def verify_catalog(include_chains=False):
    """Recompute everything recomputable; one report entry per record."""
    include_chains = _exact_flag(include_chains, "include_chains")
    records = [("arrangement", aid, CATALOG[aid]) for aid in sorted(CATALOG)]
    records += [("derived", name, rec) for name, rec in DERIVED_OPERATORS.items()]
    entries = [EntryReport(kind, key, _check_entry(rec)) for kind, key, rec in records]
    if include_chains:
        for name in CHAINS:
            try:
                rep = reproduce_reduction(name)
            except ChainBroken as exc:
                check = CheckResult("replay", "FAIL", str(exc))
            else:
                check = CheckResult("replay", "PASS" if rep.ok else "FAIL", rep.detail)
            entries.append(EntryReport("chain", name, (check,)))
    return CatalogReport(tuple(entries))


# ---------------------------------------------------------------------------
# reduction chains


class ChainStep(namedtuple("ChainStep", "description operator")):
    """The operator after one described step of a reduction chain."""

    __slots__ = ()

    def symbol(self):
        return riemann_symbol(self.operator)


class ReductionReport(namedtuple("ReductionReport", "name ok steps target detail", defaults=("",))):
    """A replayed chain: its steps, and whether the endpoint meets `target`."""

    __slots__ = ()

    def format(self):
        out = ["chain %s -> %s: %s" % (self.name, self.target, "PASS" if self.ok else "FAIL")]
        if self.detail:
            out.append("  " + self.detail)
        for step in self.steps:
            out.append("  after %s:" % step.description)
            for line in step.symbol().format().splitlines():
                out.append("    " + line)
        return "\n".join(out)

    def to_json(self):
        return {
            "name": self.name,
            "target": self.target,
            "ok": self.ok,
            "detail": self.detail,
            "steps": [
                {"description": s.description, "operator": s.operator.to_json(), "symbol": s.symbol().to_json()}
                for s in self.steps
            ],
        }


def _operator(ref):
    """The operator of an arrangement id or of a derived operator name."""
    return CATALOG[ref].operator if isinstance(ref, int) else DERIVED_OPERATORS[ref].operator


def _even_descent(op):
    """descend_quadratic of an even operator, checked by pulling it back along u = s^2."""
    try:
        down = descend_quadratic(op)
    except NotEven as exc:
        raise ChainBroken("quadratic descent", "operator is not even") from exc
    if pullback_power(down, 2) != op:
        raise ChainBroken("quadratic descent", "square pullback does not restore the operator")
    return down


def _rational_times_sqrt_minus_3(op):
    """sqrt(-3) * op, which must be a rational operator, with Fraction coefficients."""
    op = op.scale(QuadraticNumber(0, Fraction(1), -3))
    for p in op.theta_coeffs:
        for c in p:
            if isinstance(c, QuadraticNumber) and c.y:
                raise ChainBroken("rationality", "cube descent did not reduce to sqrt(-3) times a rational operator")
    return op.map_coeffs(lambda c: Fraction(collapse(c)))


def _lifts_reduction_266(op):
    # the last 2:1 step is ramified over the two remaining fibers, so it is
    # checked through the pullback identity rather than an even descent;
    # the sqrt(-3) scaling leaves op outside the canonical form
    rho = RationalFunction(Polynomial((0, 1)), Polynomial((9, -18, 9)))
    return op.normalized() == pullback_rational(_operator("reduction-266"), rho)


def _is_operator(ref):
    return lambda op: op == _operator(ref)


def _has_table(table):
    return lambda op: riemann_symbol(op).same_table(table)


# name -> (start, target, label, steps): the start is an arrangement id or a
# derived operator name, each (description, step) maps the operator to the
# next one, and the target tests the endpoint
_CHAIN_TABLE = {
    "33to70": (33, _is_operator(70), "arrangement 70", [("t -> -t", negate_variable)]),
    "97to98": (97, _is_operator(98), "arrangement 98", [
        ("shift exponents at 0 by +1/2", partial(shift_exponents, shifts={0: Fraction(1, 2)})),
        ("substitute t = 1/(s - 1)", partial(mobius, m=MobiusMap(0, 1, 1, -1))),
    ]),
    "98descent": (98, _is_operator("descent-98"), "descent-98", [
        ("substitute t = s + 1/2", partial(translate_to_origin, a=Fraction(1, 2))),
        ("descend u = s^2", _even_descent),
        ("substitute u = 4w + 1/4", partial(mobius, m=MobiusMap(4, Fraction(1, 4), 0, 1))),
    ]),
    "35descent": (35, _is_operator("descent-35"), "descent-35", [
        ("shift exponents at -1 by +1/2", partial(shift_exponents, shifts={-1: Fraction(1, 2)})),
        ("substitute t = (1 - s)/(1 + s)", partial(mobius, m=MobiusMap(-1, 1, 1, 1))),
        ("descend u = s^2", _even_descent),
        ("substitute u = -8w", partial(mobius, m=MobiusMap(-8, 0, 0, 1))),
    ]),
    "35descent2": ("descent-35-further", _is_operator("descent-35"), "descent-35", [
        ("pull back along t = 2s^2/(8s + 1)",
         partial(pullback_rational, phi=RationalFunction(Polynomial((0, 0, 2)), Polynomial((1, 8))))),
        ("shift exponents at -1/8 by -1/8", partial(shift_exponents, shifts={Fraction(-1, 8): Fraction(-1, 8)})),
    ]),
    "152pullback": ("descent-98", _is_operator(152), "arrangement 152", [
        ("pull back along t = -(s + 1)^2/(16(s - 1)^2)",
         partial(pullback_rational, phi=RationalFunction(Polynomial((-1, -2, -1)), Polynomial((16, -32, 16))))),
        ("shift exponents at 1 by -1/2", partial(shift_exponents, shifts={1: Fraction(-1, 2)})),
    ]),
    "153descent": (153, _is_operator("descent-153"), "descent-153", [
        ("shift exponents at -2 by +1/2", partial(shift_exponents, shifts={-2: Fraction(1, 2)})),
        ("substitute t = -2s/(s + 1)", partial(mobius, m=MobiusMap(-2, 0, 1, 1))),
        ("descend u = s^2", _even_descent),
    ]),
    "248descent": (248, _has_table({
        SingularPoint(0): (0, 0, 1, 1),
        SingularPoint(Fraction(1, 4)): (0, 1, 1, 2),
        SingularPoint(1): (0, 1, 1, 2),
        INFINITY: (Fraction(1, 4), Fraction(1, 2), Fraction(1, 2), Fraction(3, 4)),
    }), "expected exponent table", [
        ("substitute t = s - 1", partial(translate_to_origin, a=-1)),
        ("descend u = s^2", _even_descent),
    ]),
    "250descent": (250, _has_table({
        SingularPoint(0): (0, Fraction(1, 2), Fraction(3, 2), 2),
        SingularPoint(1): (0, Fraction(1, 2), Fraction(1, 2), 1),
        SingularPoint(9): (0, 1, 1, 2),
        INFINITY: (Fraction(1, 4), Fraction(1, 4), Fraction(3, 4), Fraction(3, 4)),
    }), "expected exponent table", [
        ("substitute t = s - 1/2", partial(translate_to_origin, a=Fraction(-1, 2))),
        ("descend u = s^2", _even_descent),
        ("substitute u = w/4", partial(mobius, m=MobiusMap(Fraction(1, 4), 0, 0, 1))),
    ]),
    "266identical273": (266, _is_operator(273), "arrangement 273", [("no transformation", lambda op: op)]),
    "266chain": (266, _lifts_reduction_266, "pullback of reduction-266 along u/(9(u - 1)^2)", [
        ("shift exponents at -1/2 and 0 by +1/6",
         partial(shift_exponents, shifts={Fraction(-1, 2): Fraction(1, 6), 0: Fraction(1, 6)})),
        # sends the two quadratic points to 0 and infinity, the three shifted
        # columns to cube roots of 1, the remaining three points to cube
        # roots of -1
        ("substitute t = (q- s - q+)/(s - 1)", partial(mobius, m=MobiusMap(catalog_data.Q_MINUS, -catalog_data.Q_PLUS, 1, -1))),
        ("descend u = s^3", partial(descend_power, n=3)),
        ("scale by sqrt(-3)", _rational_times_sqrt_minus_3),
    ]),
}


def _replay(start, target, label, steps):
    """(steps taken, whether the endpoint meets the target, label) for one chain of _CHAIN_TABLE."""
    op = _operator(start)
    taken = []
    for description, step in steps:
        op = step(op)
        taken.append(ChainStep(description, op))
    return taken, target(op), label


CHAINS = {name: partial(_replay, *chain) for name, chain in _CHAIN_TABLE.items()}


def reproduce_reduction(name):
    """Replay a stored chain; the endpoint must match its recorded target."""
    if name not in CHAINS:
        raise KeyError("unknown chain %r (have: %s)" % (name, ", ".join(sorted(CHAINS))))
    steps, ok, target = CHAINS[name]()
    detail = "" if ok else "endpoint does not match %s" % target
    return ReductionReport(name=name, ok=ok, steps=tuple(steps), target=target, detail=detail)


# ---------------------------------------------------------------------------
# JSON resource


def catalog_to_json():
    return {
        "version": CATALOG_VERSION,
        "arrangements": [CATALOG[aid].to_json() for aid in sorted(CATALOG)],
        "derived": [DERIVED_OPERATORS[n].to_json() for n in DERIVED_OPERATORS],
        "chains": sorted(CHAINS),
    }


def dump_catalog(indent=None):
    return json.dumps(catalog_to_json(), indent=indent)


def load_catalog(text=None):
    """Parse the JSON resource back into records; defaults to dump_catalog()."""
    data = json.loads(dump_catalog() if text is None else text)
    if data["version"] != CATALOG_VERSION:
        raise CatalogVersionMismatch("catalog version %r, expected %r" % (data["version"], CATALOG_VERSION))
    arrangements = {row["id"]: ArrangementRecord.from_json(row) for row in data["arrangements"]}
    derived = {row["name"]: DerivedOperatorRecord.from_json(row) for row in data["derived"]}
    return arrangements, derived
