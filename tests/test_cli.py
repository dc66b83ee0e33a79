"""End-to-end checks of the pf command line."""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picardfuchs import (
    CATALOG,
    CHAINS,
    DERIVED_OPERATORS,
    TetraForm,
    MobiusMap,
    classify_point,
    descend_quadratic,
    frobenius,
    local_basis,
    mobius,
    pullback_power,
    riemann_symbol,
    shift_exponents,
    yukawa,
)
from picardfuchs.catalog_data import TETRA_DEMO
from picardfuchs.cli import main
from picardfuchs.errors import ChainBroken
from picardfuchs.qexp import OCTICS
from picardfuchs.frobenius import jordan_structure


def _op_file(tmp_path, aid, name="op.json"):
    path = tmp_path / name
    path.write_text(json.dumps(CATALOG[aid].operator.to_json()))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_symbol_text(tmp_path, capsys):
    code, out, _ = _run(capsys, ["symbol", _op_file(tmp_path, 4)])
    lines = out.splitlines()
    assert code == 0
    assert len({len(l) for l in lines}) == 1
    assert any("1/2" in l for l in lines)


def test_symbol_json_lists_points(tmp_path, capsys):
    code, out, _ = _run(capsys, ["symbol", "--json", _op_file(tmp_path, 243)])
    assert code == 0
    doc = json.loads(out)
    assert {col["point"] for col in doc} == {"0", "1", "3/2", "2", "oo"}
    assert all(col["genuine"] for col in doc)


def test_symbol_reads_stdin(monkeypatch, capsys):
    payload = json.dumps(CATALOG[4].operator.to_json())
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out, _ = _run(capsys, ["symbol", "-"])
    assert code == 0 and out


def test_operator_without_genuine_points(tmp_path, capsys):
    # theta: exponent 0 at 0 and at infinity, no logarithm, so nothing is genuine
    path = tmp_path / "theta.json"
    path.write_text(json.dumps({"form": "theta", "coeffs": [["0", "1"]]}))
    for command in ("symbol", "classify"):
        assert _run(capsys, [command, str(path)]) == (0, "(no genuine singular points)\n", "")
        assert _run(capsys, [command, "--json", str(path)]) == (0, "[]\n", "")


def test_classify_marks_apparent_point(tmp_path, capsys):
    code, out, _ = _run(capsys, ["classify", _op_file(tmp_path, 250)])
    assert code == 0
    row = next(l for l in out.splitlines() if l.startswith("-1/2"))
    assert "Apparent" in row and "0,1,3,4" in row


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("aid", [4, 266])
def test_classify_builds_each_basis_once(tmp_path, capsys, monkeypatch, aid, as_json):
    op = CATALOG[aid].operator
    rows = []
    for point in riemann_symbol(op).points():
        basis = local_basis(op, point)
        blocks = "[%s]" % ",".join(map(str, jordan_structure(basis).all_blocks()))
        exps = ",".join(str(e) for e in basis.exponents())
        rows.append((str(point), exps, blocks, str(classify_point(op, point))))
    if as_json:
        want = json.dumps([{"point": p, "exponents": e, "blocks": b, "label": l} for p, e, b, l in rows]) + "\n"
    else:
        widths = [max(len(r[i]) for r in rows) for i in range(3)]
        want = "".join(
            "%s  %s  %s  %s\n" % (p.ljust(widths[0]), e.ljust(widths[1]), b.ljust(widths[2]), l) for p, e, b, l in rows
        )
    calls = []

    def counted(inner):
        def wrapper(*args, **kwargs):
            calls.append(args[1])
            return inner(*args, **kwargs)

        return wrapper

    # pf classify imports local_basis from frobenius when it runs, so it reaches this wrapper too
    monkeypatch.setattr(frobenius, "local_basis", counted(frobenius.local_basis))
    riemann_symbol(op)  # its logarithm checks build some bases of their own
    by_symbol = len(calls)
    del calls[:]
    code, out, _ = _run(capsys, ["classify"] + (["--json"] if as_json else []) + [_op_file(tmp_path, aid)])
    assert code == 0 and out == want
    assert len(calls) == by_symbol + len(rows)


def test_transform_mobius_reaches_catalog_twin(tmp_path, capsys):
    code, out, _ = _run(
        capsys,
        ["transform", _op_file(tmp_path, 33), "--mobius=-1,0,0,1", "--json"],
    )
    assert code == 0
    assert json.loads(out) == CATALOG[70].operator.to_json()


def test_transform_out_writes_file(tmp_path, capsys):
    target = tmp_path / "doubled.json"
    code, out, _ = _run(
        capsys,
        ["transform", _op_file(tmp_path, 4), "--pullback", "2", "--out", str(target)],
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text()) == pullback_power(CATALOG[4].operator, 2).to_json()


# each transform step on its success path, against the library call it stands for;
# the command imports its transforms when it runs, so a missing name shows only here
@pytest.mark.parametrize(
    "op, flags, want",
    [
        (CATALOG[97].operator, ["--shift", "0=1/2"], lambda op: shift_exponents(op, {0: Fraction(1, 2)})),
        (CATALOG[98].operator, ["--mobius=0,1,1,-1"], lambda op: mobius(op, MobiusMap(0, 1, 1, -1))),
        (CATALOG[4].operator, ["--pullback", "2"], lambda op: pullback_power(op, 2)),
        (pullback_power(CATALOG[4].operator, 2), ["--descend"], descend_quadratic),
        (CATALOG[33].operator, ["--yukawa"], yukawa),
    ],
    ids=["shift", "mobius", "pullback", "descend", "yukawa"],
)
def test_transform_step_matches_the_library(tmp_path, capsys, op, flags, want):
    path = tmp_path / "op.json"
    path.write_text(json.dumps(op.to_json()))
    code, out, err = _run(capsys, ["transform", str(path), "--json"] + flags)
    assert (code, err) == (0, "")
    assert json.loads(out) == want(op).to_json()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--pullback", "0"], "pf: --pullback needs a positive integer\n"),
        (["--pullback", "-2"], "pf: --pullback needs a positive integer\n"),
        # shift_exponents would add the two shifts; a dict kept only the last
        (["--shift", "0=1/2,0=1/3"], "pf: --shift gives the point 0 twice\n"),
        (["--shift", "1/2=1,2/4=1/3"], "pf: --shift gives the point 1/2 twice\n"),
        # an empty value is a malformed flag, not an absent one
        (["--shift="], "pf: --shift items look like point=eps, got ''\n"),
        (["--mobius="], "pf: --mobius needs four comma-separated rationals a,b,c,d\n"),
    ],
    ids=["pullback-zero", "pullback-negative", "shift-repeated", "shift-repeated-unreduced", "shift-empty", "mobius-empty"],
)
def test_transform_rejects_bad_flags(tmp_path, capsys, flags, message):
    code, out, err = _run(capsys, ["transform", _op_file(tmp_path, 4)] + flags)
    assert (code, out, err) == (2, "", message)


def test_transform_yukawa(tmp_path, capsys):
    code, out, _ = _run(capsys, ["transform", _op_file(tmp_path, 33), "--yukawa", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert {f["point"]: f["exponent"] for f in doc} == {
        "0": "-2",
        "1": "-2",
        "2": "-1",
    }


def test_period_expands_demo_form(tmp_path, capsys):
    form = TetraForm.from_planes(TETRA_DEMO["planes"], truncation=6)
    path = tmp_path / "form.json"
    path.write_text(json.dumps(form.to_json()))
    code, out, _ = _run(capsys, ["period", "--poly", str(path), "--terms", "4"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["A"]) == 5 and doc["A"][0] == "1"


def test_guess_recovers_operator(tmp_path, capsys):
    series = [str(Fraction(comb(2 * n, n)) ** 2) for n in range(30)]
    path = tmp_path / "series.json"
    path.write_text(json.dumps({"A": series}))
    code, out, _ = _run(
        capsys, ["guess", "--series", str(path), "--max-order", "2", "--max-degree", "1", "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["form"] == "theta" and len(doc["coeffs"]) == 2


def test_guess_empty_box_exits_one(tmp_path, capsys):
    path = tmp_path / "primes.json"
    path.write_text(json.dumps([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113]))
    code, out, err = _run(
        capsys, ["guess", "--series", str(path), "--max-order", "2", "--max-degree", "2"]
    )
    assert code == 1 and out == "" and "no annihilating operator" in err


def test_qexp_text_rows(capsys):
    code, out, _ = _run(capsys, ["qexp", "--form", "f_32", "--terms", "30"])
    assert code == 0
    assert "5\t-2" in out.splitlines()


def test_qexp_table_only_form_is_usage_error(capsys):
    code, _, err = _run(capsys, ["qexp", "--form", "32/1"])
    assert code == 2 and "eta" in err


def test_count_recorded_fibre(capsys):
    code, out, _ = _run(capsys, ["count", "--arrangement", "69", "--prime", "5"])
    assert code == 0 and out.strip() == "153"


def test_count_composite_prime_is_usage_error(capsys):
    code, _, err = _run(capsys, ["count", "--arrangement", "69", "--prime", "9"])
    assert code == 2 and "prime" in err


def test_count_fibre_rejects_parameter(capsys):
    code, _, err = _run(
        capsys, ["count", "--arrangement", "69", "--parameter", "1", "--prime", "5"]
    )
    assert code == 2 and "takes no --parameter" in err


def test_count_needs_exactly_one_source(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--prime", "5"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["count", "--arrangement", "999", "--prime", "5"],
            "pf: unknown arrangement 999 (families: 4, 13, 33, 34, 35, 70, 71, 72, 97, 98, 152, 153, 197, 198, "
            "243, 247, 248, 250, 252, 258, 261, 264, 266, 270, 273; fibres: 69, 93, 240, 245)\n",
        ),
        (["count", "--arrangement", "248", "--prime", "5"], "pf: the stored octic of 248 is not a product of linear forms\n"),
        (
            ["count", "--arrangement", "248", "--parameter", "1", "--prime", "5"],
            "pf: the stored octic of 248 is not a product of linear forms\n",
        ),
        (["count", "--arrangement", "250", "--prime", "5"], "pf: family 250 needs --parameter\n"),
    ],
    ids=["unknown", "248", "248-parameter", "no-parameter"],
)
def test_count_arrangement_usage_errors(capsys, argv, message):
    assert _run(capsys, argv) == (2, "", message)


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["93"], {"prime": 23, "count": 12526, "family": 250, "parameter": "-1", "arrangement": 93}),
        (["250", "--parameter", "1/2"], {"prime": 23, "count": 12936, "family": 250, "parameter": "1/2", "arrangement": 250}),
    ],
)
def test_count_arrangement_json(capsys, argv, doc):
    code, out, err = _run(capsys, ["count", "--arrangement", *argv, "--prime", "23", "--json"])
    assert (code, err) == (0, "") and out == json.dumps(doc) + "\n"


def test_count_octic_file(tmp_path, capsys):
    planes = [[str(c) for c in plane] for plane in OCTICS[250].at(0)]
    path = tmp_path / "octic.json"
    path.write_text(json.dumps({"planes": planes}))
    code, out, _ = _run(capsys, ["count", "--octic", str(path), "--prime", "5", "--json"])
    assert code == 0
    assert json.loads(out)["count"] == 153


def test_malformed_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = _run(capsys, ["symbol", str(path)])
    assert code == 2 and err.startswith("pf: ")


@pytest.mark.parametrize(
    "doc, message",
    [
        # indicial polynomial t^3 - 2 at 0: no exponent in a quadratic field
        ({"form": "theta", "coeffs": [["-2", "0", "0", "1"], ["1", "1", "1", "1"]]}, "indicial factor"),
        # sqrt(1) is no quadratic irrational
        ({"form": "theta", "coeffs": [["0", "0", {"a": "0", "b": "1", "d": 1}], ["1", "1"]]}, "quadratic field tag"),
    ],
)
def test_unanalysable_operator_is_usage_error(tmp_path, capsys, doc, message):
    path = tmp_path / "op.json"
    path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, ["symbol", str(path)])
    assert code == 2 and err.startswith("pf: ") and message in err


MALFORMED_FILES = [
    # monomials of degrees 7 and 8
    (["count", "--octic", "{}", "--prime", "5"], {"7,0,0,0": "1", "0,0,0,8": "1"}, "pf: octic must be homogeneous of degree 8\n"),
    # a tetra-form key with three exponents
    (["period", "--poly", "{}"], {"0,0,0,0": "1", "1,0,0": "1"}, "needs four nonnegative exponents (x, y, z, t)\n"),
    # the zero operator
    (["transform", "{}", "--mobius=0,1,1,0"], {"coeffs": [[]]}, "pf: transform produced the zero operator\n"),
    # 1 + t, of order 0
    (["transform", "{}", "--yukawa"], {"coeffs": [["1"], ["1"]]}, "pf: order-zero operator has no coupling\n"),
    # indicial constant 10000019 * 10000079: both primes lie beyond trial division
    (
        ["symbol", "{}"],
        {"form": "theta", "coeffs": [["-100000980001501", "0", "1"], ["1", "1", "1"]]},
        "pf: cannot factor 100000980001501\n",
    ),
    # guessing boxes below their bounds, and the zero series
    (["guess", "--series", "{}", "--max-degree", "-1"], ["1"] * 30, "pf: max_degree must be at least 0, got -1\n"),
    (["guess", "--series", "{}", "--margin", "0"], ["1"] * 60, "pf: margin must be at least 1 (one surplus equation), got 0\n"),
    (
        ["guess", "--series", "{}", "--max-order", "1", "--max-degree", "1"],
        ["0"] * 30,
        "pf: the zero series is annihilated by every operator\n",
    ),
    # inputs whose parsing raised TypeError, AttributeError or ZeroDivisionError
    (["count", "--octic", "{}", "--prime", "7"], {"planes": 5}, "pf: octic file needs eight planes of four coefficients\n"),
    (["period", "--poly", "{}"], {"P": 5}, "P must map exponent keys 'a,b,c,d' to coefficients, not a int\n"),
    (["period", "--poly", "{}"], {"P": {"0,0,0,0": "abc"}}, "a coefficient string must be a rational number, got 'abc'\n"),
    (["period", "--poly", "{}"], {"P": {"0,0,0,0": "1/0"}}, "a coefficient string must be a rational number, got '1/0'\n"),
    (["symbol", "{}"], {"form": "theta", "coeffs": [["1/0", "1"]]}, "is not an operator file: Fraction(1, 0)\n"),
    # D + t: exp(-t^2/2) has an irregular singularity at infinity
    (
        ["symbol", "{}"],
        {"form": "d", "coeffs": [["0", "1"], ["1"]]},
        "pf: irregular singular point oo: indicial polynomial of degree 0 below the order 1\n",
    ),
    (["classify", "{}"], {"coeffs": [["1"], ["2"]]}, "pf: an operator of order 0 has no exponents and no local solutions\n"),
    # theta^2 sqrt(4) - 4 + t(theta^2 + theta + 1): "sqrt(4)" is no quadratic irrational
    (
        ["symbol", "{}"],
        {"form": "theta", "coeffs": [["-4", "0", {"a": "0", "b": "1", "d": 4}], ["1", "1", "1"]]},
        "quadratic field tag must be squarefree and not 0 or 1, got 4\n",
    ),
    # a tag whose two prime factors near 10^10 lie beyond trial division
    (
        ["symbol", "{}"],
        {"form": "theta", "coeffs": [["-4", "0", {"a": "0", "b": "1", "d": 100000000520000000627}], ["1", "1", "1"]]},
        "is not an operator file: cannot decide whether the quadratic field tag 100000000520000000627 is squarefree\n",
    ),
    # coefficients sqrt(-3) and sqrt(5) lie in two different fields
    (
        ["symbol", "{}"],
        {"form": "theta", "coeffs": [["0", "0", {"a": "0", "b": "1", "d": -3}], ["1", "1", {"a": "0", "b": "1", "d": 5}]]},
        "pf: mixed discriminants -3 and 5\n",
    ),
    # JSON floats have no exact reading: 0.1 is not 1/10, and a tag of 5.5 is not 5
    (
        ["symbol", "{}"],
        {"form": "theta", "coeffs": [["0", "0", "4"], ["-1", "-4", 0.1]]},
        "is not an operator file: a scalar must be exact, not the float 0.1\n",
    ),
    (
        ["symbol", "{}"],
        {"form": "theta", "coeffs": [["0", "0", {"a": 0.1, "b": "1", "d": -3}], ["1", "1", "1"]]},
        "is not an operator file: a scalar must be exact, not the float 0.1\n",
    ),
    (
        ["symbol", "{}"],
        {"form": "theta", "coeffs": [["0", "0", {"a": "0", "b": "1", "d": 5.5}], ["1", "1", "1"]]},
        "is not an operator file: a quadratic field tag must be an integer, got 5.5\n",
    ),
    # the same readers for series, tetra forms and octics: 0.1 as a JSON float is not 1/10
    (["guess", "--series", "{}"], [1, 0.1] + ["0"] * 58, "pf: bad series coefficient: a scalar must be exact, not the float 0.1\n"),
    (
        ["period", "--poly", "{}"],
        {"P": {"0,0,0,0": 1, "1,0,0,0": 0.1}, "truncation": 3},
        "is not a tetra-form file: a scalar must be exact, not the float 0.1\n",
    ),
    # and integer fields are read exactly: a truncation of 2.5 or true is no order
    (
        ["period", "--poly", "{}"],
        {"P": {"0,0,0,0": "1"}, "truncation": 2.5},
        "is not a tetra-form file: truncation must be an integer, got 2.5\n",
    ),
    (
        ["period", "--poly", "{}"],
        {"P": {"0,0,0,0": "1"}, "truncation": True},
        "is not a tetra-form file: truncation must be an integer, got True\n",
    ),
    (
        ["period", "--poly", "{}"],
        {"P": {"0,0,0,0": "1", "1.5,0,0,0": "1"}},
        "is not a tetra-form file: an exponent key must hold integers a,b,c,d, got '1.5,0,0,0'\n",
    ),
    (
        ["count", "--octic", "{}", "--prime", "5"],
        {"8,0,0,0": 1, "0,0,0,8": 0.1},
        "pf: octic file is neither planes nor monomials: a scalar must be exact, not the float 0.1\n",
    ),
    (
        ["count", "--octic", "{}", "--prime", "5"],
        {"planes": [["1", "0", "0", "0"]] * 7 + [[0.1, "1", "0", "0"]]},
        "pf: not a rational number: 0.1 (a scalar must be exact, not the float 0.1)\n",
    ),
    # octic key parts are read as exact integers, with count_double_octic's error
    (["count", "--octic", "{}", "--prime", "5"], {"1.5,0,0,6.5": 1}, "pf: an octic exponent must be an integer, got '1.5'\n"),
    (["count", "--octic", "{}", "--prime", "5"], {"a,b,c,d": 1}, "pf: an octic exponent must be an integer, got 'a'\n"),
    # D^2 + D and (t - 1)^2 D^2 + D: Yukawa couplings that are not rational
    (["transform", "{}", "--yukawa"], {"form": "d", "coeffs": [["0"], ["1"], ["1"]]}, "pf: subleading ratio does not vanish at infinity\n"),
    (
        ["transform", "{}", "--yukawa"],
        {"form": "d", "coeffs": [["0"], ["1"], ["1", "-2", "1"]]},
        "pf: higher-order pole in the subleading ratio\n",
    ),
]
_MALFORMED_IDS = [
    "octic",
    "tetra",
    "transform-zero",
    "yukawa-order-0",
    "symbol-unfactorable",
    "guess-degree",
    "guess-margin",
    "guess-zero",
    "octic-planes-not-a-list",
    "tetra-P-not-an-object",
    "tetra-letter-coefficient",
    "tetra-zero-denominator",
    "operator-zero-denominator",
    "symbol-irregular",
    "classify-order-0",
    "symbol-tag-not-squarefree",
    "symbol-tag-undecided",
    "symbol-mixed-fields",
    "symbol-float-coefficient",
    "symbol-float-quadratic-part",
    "symbol-float-tag",
    "guess-float-coefficient",
    "tetra-float-coefficient",
    "tetra-float-truncation",
    "tetra-bool-truncation",
    "tetra-fractional-exponent-key",
    "octic-monomials-float-coefficient",
    "octic-planes-float-coefficient",
    "octic-fractional-exponent-key",
    "octic-letter-exponent-key",
    "yukawa-subleading-at-infinity",
    "yukawa-higher-order-pole",
]


@pytest.mark.parametrize("argv, doc, message", MALFORMED_FILES, ids=_MALFORMED_IDS)
def test_malformed_input_file_is_usage_error(tmp_path, capsys, argv, doc, message):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, [a.format(path) for a in argv])
    assert code == 2 and not out
    assert err.startswith("pf: ") and err.endswith(message)


@pytest.mark.parametrize("argv, doc, message", MALFORMED_FILES, ids=_MALFORMED_IDS)
def test_malformed_input_file_is_usage_error_under_optimize(tmp_path, run_optimized, argv, doc, message):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    code = (
        "import sys\n"
        "from picardfuchs.cli import main\n"
        "sys.stderr = sys.stdout\n"
        "print('exit', main(%r))\n" % [a.format(path) for a in argv]
    )
    out = run_optimized(code)
    assert out.startswith("pf: ") and out.endswith(message + "exit 2\n")


def test_count_parameter_with_zero_denominator_is_usage_error(capsys):
    code, out, err = _run(capsys, ["count", "--arrangement", "250", "--parameter", "1/0", "--prime", "7"])
    assert code == 2 and not out and err.startswith("pf: not a rational number: '1/0'")


# ---------------------------------------------------------------------------
# malformed files: every rejection is a "pf: " line and exit 2, never a traceback

_junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-30, 30),
    st.sampled_from([0.5, -2.0, float("inf"), float("nan")]),
    st.text(max_size=5),
    st.sampled_from(["1/0", "1/2", "-3", "0", "x", "1e2", "2/-4", ""]),
)
_keys = st.one_of(st.text(max_size=5), st.sampled_from(["form", "coeffs", "P", "planes", "A", "truncation", "a", "b", "d"]))
_json = st.recursive(_junk, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_keys, inner, max_size=3), max_leaves=10)
_rational = st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/2", "3"])
_scalar = st.one_of(
    _rational,
    st.fixed_dictionaries({"a": _rational, "b": _rational, "d": st.sampled_from([-3, 2, 5, 0, 1, "x"])}),
    _junk,
)
_operator = st.fixed_dictionaries(
    {
        "form": st.sampled_from(["theta", "d", "weird"]),
        "coeffs": st.lists(st.lists(_scalar, max_size=3), max_size=3) | _json,
    }
)
_monomial = st.sampled_from(["8,0,0,0", "0,4,4,0", "1,1,1,5", "7,0,0,0", "1,2", "a,b,c,d", "-1,9,0,0"])
_octic = st.one_of(
    st.fixed_dictionaries({"planes": st.lists(st.lists(_scalar, max_size=5), max_size=9) | _json}),
    st.dictionaries(_monomial, _scalar, max_size=3),
)
_tetra = st.fixed_dictionaries(
    {"P": st.dictionaries(st.sampled_from(["0,0,0,0", "1,0,0,0", "0,0,0,1", "1,0,0", "x"]), _scalar, max_size=3) | _json},
    optional={"truncation": _junk},
)
_series = st.lists(_scalar, max_size=8) | st.fixed_dictionaries({"A": st.lists(_scalar, max_size=8) | _json})

_FUZZ_CASES = st.one_of(
    st.tuples(st.sampled_from([["symbol", "{}"], ["classify", "{}"], ["transform", "{}", "--yukawa"]]), _operator | _json),
    st.tuples(st.just(["count", "--octic", "{}", "--prime", "5"]), _octic | _json),
    st.tuples(st.just(["period", "--poly", "{}", "--terms", "2"]), _tetra | _json),
    st.tuples(st.just(["guess", "--series", "{}", "--max-order", "1", "--max-degree", "1", "--margin", "1"]), _series | _json),
)


def _main_on_file(argv, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.format(path) for a in argv])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(case=_FUZZ_CASES)
def test_malformed_files_never_raise(case):
    argv, doc = case
    code, out, err = _main_on_file(argv, doc)
    if code == 0:
        assert out and not err
    elif code == 1:
        # not a rejection: the series was read, and nothing in the box annihilates it
        assert argv[0] == "guess" and err.startswith("no annihilating operator")
    else:
        assert code == 2 and not out and err.startswith("pf: ")


def test_verify_forms(capsys):
    code, out, _ = _run(capsys, ["verify-forms"])
    assert code == 0
    assert out.splitlines()[-1] == "forms: PASS"
    assert "table data only" in out


def test_reproduce_chain(capsys):
    code, out, _ = _run(capsys, ["reproduce", "97to98"])
    assert code == 0 and "97to98" in out


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("name", list(CHAINS))
def test_reproduce_every_chain_exits_zero(capsys, name, as_json):
    code, out, err = _run(capsys, ["reproduce"] + (["--json"] if as_json else []) + [name])
    assert code == 0 and not err
    if as_json:
        assert json.loads(out)["ok"] is True
    else:
        assert out.startswith("chain %s -> " % name) and ": PASS" in out.splitlines()[0]


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_verify_catalog_reports_a_broken_chain(capsys, monkeypatch, as_json):
    def broken():
        raise ChainBroken("quadratic descent", "operator is not even")

    monkeypatch.setitem(CHAINS, "98descent", broken)
    code, out, err = _run(capsys, ["verify-catalog", "--chains"] + (["--json"] if as_json else []))
    detail = "reduction chain broken at step: quadratic descent (operator is not even)"
    assert code == 1 and not err
    if as_json:
        entries = json.loads(out)["entries"]
        assert len(entries) == len(CATALOG) + len(DERIVED_OPERATORS) + len(CHAINS)
        chains = {e["key"]: e for e in entries if e["kind"] == "chain"}
        assert list(chains) == list(CHAINS)
        assert chains["98descent"]["checks"] == [{"name": "replay", "status": "FAIL", "detail": detail}]
        assert all(e["ok"] for key, e in chains.items() if key != "98descent")
    else:
        lines = out.splitlines()
        assert "FAIL chain 98descent [replay: %s]" % detail in lines
        assert "PASS chain 266chain" in lines and lines[-1] == "catalog: FAIL"


def test_reproduce_unknown_chain(capsys):
    code, _, err = _run(capsys, ["reproduce", "nope"])
    assert code == 2 and "33to70" in err


def test_catalog_dump(capsys):
    code, out, _ = _run(capsys, ["catalog", "dump", "--indent", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["version"] == 1 and len(doc["arrangements"]) == 25


# run one command in a new interpreter: what `import picardfuchs` loads, the exit code,
# the picardfuchs modules loaded after the command, and whether `dataclasses` was loaded
_LOADED_BY_COMMAND = """
import contextlib, io, json, sys
import picardfuchs
package = sorted(m for m in sys.modules if m.startswith("picardfuchs."))
from picardfuchs.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(%r)
loaded = sorted(m[len("picardfuchs."):] for m in sys.modules if m.startswith("picardfuchs."))
print(json.dumps([package, code, loaded, "dataclasses" in sys.modules]))
"""

# what importing picardfuchs.cli loads; guess and period stay for the benchmark tracer
_CLI_MODULES = ["arith", "cli", "errors", "guess", "optheta", "period"]
_CATALOG_MODULES = ["catalog", "catalog_data", "frobenius", "qexp", "transform"]


def test_each_command_loads_only_what_it_needs(tmp_path, run_fresh):
    series = tmp_path / "series.json"
    series.write_text(json.dumps([str(comb(2 * n, n) ** 2) for n in range(30)]))
    form = tmp_path / "form.json"
    form.write_text(json.dumps(TetraForm.from_planes(TETRA_DEMO["planes"], truncation=6).to_json()))
    commands = [
        (["symbol", _op_file(tmp_path, 4)], []),
        (["symbol", _op_file(tmp_path, 33, "op33.json")], []),
        (["classify", _op_file(tmp_path, 4), "--json"], ["frobenius"]),
        (["transform", _op_file(tmp_path, 98, "op98.json"), "--mobius=0,1,1,-1"], ["transform"]),
        (["qexp", "--form", "6/1", "--terms", "20"], ["qexp"]),
        (["guess", "--series", str(series), "--max-order", "2", "--max-degree", "1"], []),
        (["period", "--poly", str(form), "--terms", "4"], []),
        (["verify-forms"], ["qexp"]),
        (["count", "--arrangement", "69", "--prime", "23"], ["qexp"]),
        (["verify-catalog"], _CATALOG_MODULES),
        (["reproduce", "33to70"], _CATALOG_MODULES),
        (["catalog", "dump"], _CATALOG_MODULES),
    ]
    for argv, extra in commands:
        package, code, loaded, dataclasses = json.loads(run_fresh(_LOADED_BY_COMMAND % (argv,)))
        assert package == []
        assert (code, loaded, dataclasses) == (0, sorted(_CLI_MODULES + extra), False), argv
