"""Command line front end, installed as `pf`.

Exit codes: 0 on success, 1 when a verification subcommand finds a mismatch
(or a guess finds nothing), 2 on usage errors such as malformed JSON, unknown
names, or inputs a transformation or an analysis cannot accept.  Structured
output is available everywhere via --json; file arguments accept "-" for stdin.
"""

import argparse
import json
import os
import sys

# `catalog` is imported only by the commands that read it.  The computational
# modules stay at module level: perfbench/tracer.py patches them in
# sys.modules right after importing this module.
from .arith import _exact_fraction
from .errors import ChainBroken, InvalidOctic
from .frobenius import classify_basis, jordan_structure, local_basis
from .guess import GuessConfig, guess_operator
from .optheta import ThetaOperator, riemann_symbol
from .period import TetraForm, conifold_expand
from .qexp import FORMS, OCTICS, RIGID_FIBRES, count_double_octic, eta_product, lookup_form, verify_form_table
from .transform import (
    MobiusMap,
    descend_quadratic,
    mobius,
    pullback_power,
    shift_exponents,
    yukawa,
)


class UsageError(Exception):
    """Bad input from the command line; reported on stderr with exit code 2."""


# ---------------------------------------------------------------------------
# input parsing


def _load_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise UsageError("malformed JSON in %s: %s" % (path, exc))


def _load_operator(path):
    data = _load_json(path)
    try:
        return ThetaOperator.from_json(data)
    except (ArithmeticError, KeyError, TypeError, ValueError) as exc:
        raise UsageError("%s is not an operator file: %s" % (path, exc))


def _fraction(value):
    """An exact rational from command-line text or a JSON value; a float or a bool has no exact reading."""
    try:
        return _exact_fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise UsageError("not a rational number: %r (%s)" % (value, exc))


def _parse_mobius(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError("--mobius needs four comma-separated rationals a,b,c,d")
    a, b, c, d = (_fraction(p) for p in parts)
    return MobiusMap(a, b, c, d)


def _parse_shifts(text):
    shifts = {}
    for item in text.split(","):
        if "=" not in item:
            raise UsageError("--shift items look like point=eps, got %r" % item)
        point, eps = item.split("=", 1)
        if point.strip() in ("oo", "inf"):
            raise UsageError("the shift at infinity is implied; give finite points only")
        a = _fraction(point)
        if a in shifts:
            raise UsageError("--shift gives the point %s twice" % a)
        shifts[a] = _fraction(eps)
    if not shifts:
        raise UsageError("--shift got no assignments")
    return shifts


def _emit(args, obj, text):
    print(json.dumps(obj) if args.json else text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_symbol(args):
    op = _load_operator(args.operator)
    sym = riemann_symbol(op)
    genuine = not args.all
    _emit(args, sym.to_json(genuine_only=genuine), sym.format(genuine_only=genuine))
    return 0


def _cmd_classify(args):
    op = _load_operator(args.operator)
    sym = riemann_symbol(op)
    rows = []
    for point in sym.points():
        basis = local_basis(op, point)
        exps = ",".join(str(e) for e in basis.exponents())
        blocks = jordan_structure(basis).all_blocks()
        label = str(classify_basis(basis, blocks))
        rows.append((str(point), exps, "[%s]" % ",".join(map(str, blocks)), label))
    if args.json:
        print(
            json.dumps(
                [
                    {"point": p, "exponents": e, "blocks": b, "label": l}
                    for p, e, b, l in rows
                ]
            )
        )
        return 0
    if not rows:
        print(sym.format())  # the line pf symbol prints for an empty table
        return 0
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    for p, e, b, l in rows:
        print("%s  %s  %s  %s" % (p.ljust(widths[0]), e.ljust(widths[1]), b.ljust(widths[2]), l))
    return 0


def _cmd_transform(args):
    op = _load_operator(args.operator)
    if args.shift is not None:
        op = shift_exponents(op, _parse_shifts(args.shift))
    if args.mobius is not None:
        op = mobius(op, _parse_mobius(args.mobius))
    if args.pullback is not None:
        if args.pullback < 1:
            raise UsageError("--pullback needs a positive integer")
        op = pullback_power(op, args.pullback)
    if args.descend:
        op = descend_quadratic(op)
    if args.yukawa:
        data = yukawa(op)
        _emit(args, data.to_json(), repr(data))
        return 0
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(op.to_json(), fh)
            fh.write("\n")
        return 0
    _emit(args, op.to_json(), repr(op))
    return 0


def _cmd_period(args):
    data = _load_json(args.poly)
    try:
        if isinstance(data, dict) and "P" in data:
            form = TetraForm.from_json(data)
        else:
            form = TetraForm.from_json({"P": data})
    except (ArithmeticError, KeyError, TypeError, ValueError) as exc:
        raise UsageError("%s is not a tetra-form file: %s" % (args.poly, exc))
    if args.terms is not None:
        if args.terms < 0:
            raise UsageError("--terms must be nonnegative")
        form = form.with_truncation(args.terms)
    ps = conifold_expand(form)
    # the emitted object is always JSON; --json adds nothing here
    print(json.dumps(ps.to_json()))
    return 0


def _cmd_guess(args):
    data = _load_json(args.series)
    if isinstance(data, dict):
        data = data.get("A")
    if not isinstance(data, list):
        raise UsageError("series file must hold a list of rationals or {\"A\": [...]}")
    try:
        series = [_exact_fraction(c) for c in data]
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise UsageError("bad series coefficient: %s" % exc)
    cfg = GuessConfig(args.max_order, args.max_degree, args.margin)
    op = guess_operator(series, cfg)
    if op is None:
        print(
            "no annihilating operator within order %d, degree %d" % (args.max_order, args.max_degree),
            file=sys.stderr,
        )
        return 1
    _emit(args, op.to_json(), repr(op))
    return 0


def _cmd_qexp(args):
    try:
        rec = lookup_form(args.form)
    except KeyError as exc:
        raise UsageError(exc.args[0])
    if rec.eta is None:
        raise UsageError("form %r has a coefficient table but no eta product" % rec.name)
    if args.terms < 1:
        raise UsageError("--terms must be positive")
    qs = eta_product(rec.eta, args.terms)
    if args.json:
        print(json.dumps({"form": rec.name, "truncation": qs.truncation, "coeffs": list(qs.coeffs)}))
        return 0
    for n, c in enumerate(qs.coeffs):
        print("%d\t%d" % (n, c))
    return 0


def _octic_exponent(part):
    """One part of an octic monomial key "a,b,c,d" as an int, with count_double_octic's error for any other text."""
    try:
        return int(part)
    except ValueError:
        raise InvalidOctic("an octic exponent must be an integer, got %r" % part) from None


def _count_input(args):
    if args.octic:
        data = _load_json(args.octic)
        if isinstance(data, dict) and "planes" in data:
            rows = data["planes"]
            if not isinstance(rows, list) or [len(r) if isinstance(r, list) else None for r in rows] != [4] * 8:
                raise UsageError("octic file needs eight planes of four coefficients")
            return [tuple(_fraction(c) for c in row) for row in rows], None, None
        if isinstance(data, dict):
            keys = [tuple(map(_octic_exponent, key.split(","))) for key in data]
            try:
                terms = dict(zip(keys, map(_exact_fraction, data.values())))
            except (ArithmeticError, TypeError, ValueError) as exc:
                raise UsageError("octic file is neither planes nor monomials: %s" % exc)
            return terms, None, None
        raise UsageError("octic file must be a JSON object")
    aid = args.arrangement
    parameter = None if args.parameter is None else _fraction(args.parameter)
    if aid in RIGID_FIBRES:
        if parameter is not None:
            raise UsageError("arrangement %d is a recorded fibre; it takes no --parameter" % aid)
        aid, parameter = RIGID_FIBRES[aid]
    if aid not in OCTICS:
        known = [", ".join(map(str, sorted(ids))) for ids in (OCTICS, RIGID_FIBRES)]
        raise UsageError("unknown arrangement %d (families: %s; fibres: %s)" % (args.arrangement, *known))
    octic = OCTICS[aid]
    if isinstance(octic, str):
        raise UsageError("the stored octic of %d is not a product of linear forms" % aid)
    if parameter is None:
        raise UsageError("family %d needs --parameter" % aid)
    return octic.at(parameter), aid, parameter


def _cmd_count(args):
    f8, aid, parameter = _count_input(args)
    n = count_double_octic(f8, args.prime)
    if args.json:
        out = {"prime": args.prime, "count": n}
        if aid is not None:
            out["family"] = aid
            out["parameter"] = str(parameter)
        if args.arrangement is not None:
            out["arrangement"] = args.arrangement
        print(json.dumps(out))
    else:
        print(n)
    return 0


def _cmd_verify_forms(args):
    reports = []
    skipped = []
    for name in sorted(FORMS):
        rec = FORMS[name]
        if rec.eta is None:
            skipped.append(name)
            continue
        reports.append(verify_form_table(name))
    ok = all(r.passed for r in reports)
    if args.json:
        print(
            json.dumps(
                {
                    "passed": ok,
                    "reports": [r.to_json() for r in reports],
                    "table_only": skipped,
                }
            )
        )
    else:
        for r in reports:
            for line in r.lines():
                print(line)
        for name in skipped:
            print("%s  stored as table data only, nothing to expand" % name)
        print("forms: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def _cmd_verify_catalog(args):
    from .catalog import verify_catalog

    report = verify_catalog(include_chains=args.chains)
    print(json.dumps(report.to_json()) if args.json else report.format())
    return 0 if report.ok else 1


def _cmd_reproduce(args):
    from .catalog import reproduce_reduction

    try:
        report = reproduce_reduction(args.chain)
    except KeyError as exc:
        raise UsageError(exc.args[0])
    print(json.dumps(report.to_json()) if args.json else report.format())
    return 0 if report.ok else 1


def _cmd_catalog_dump(args):
    from .catalog import dump_catalog

    print(dump_catalog(indent=args.indent))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pf",
        description="Exact operator tables, transformations, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit machine-readable JSON")
        return p

    p = add("symbol", _cmd_symbol, "print the exponent table of an operator")
    p.add_argument("operator", help="operator JSON file, or - for stdin")
    p.add_argument("--all", action="store_true", help="include points with trivial exponents and no logs")

    p = add("classify", _cmd_classify, "label every singular point of an operator")
    p.add_argument("operator", help="operator JSON file, or - for stdin")

    p = add(
        "transform",
        _cmd_transform,
        "apply shift, mobius, power pullback, and quadratic descent, in that order",
    )
    p.add_argument("operator", help="operator JSON file, or - for stdin")
    p.add_argument("--shift", metavar="P=E,...", help="exponent shifts at finite points")
    p.add_argument(
        "--mobius",
        metavar="A,B,C,D",
        help="substitute t = (A s + B)/(C s + D); write --mobius=-1,... for a leading minus",
    )
    p.add_argument("--pullback", type=int, metavar="N", help="substitute t = s^N")
    p.add_argument("--descend", action="store_true", help="write an even operator in u = t^2")
    p.add_argument("--yukawa", action="store_true", help="print the coupling factorization instead")
    p.add_argument("--out", metavar="FILE", help="write the operator JSON to FILE")

    p = add("period", _cmd_period, "expand the period of a vanishing tetrahedron")
    p.add_argument("--poly", required=True, metavar="FILE", help="tetra-form JSON file")
    p.add_argument("--terms", type=int, metavar="N", help="truncation order")

    p = add("guess", _cmd_guess, "search for the minimal annihilating operator of a series")
    p.add_argument("--series", required=True, metavar="FILE", help="JSON list of rationals, or {\"A\": [...]}")
    p.add_argument("--max-order", type=int, default=4, metavar="N")
    p.add_argument("--max-degree", type=int, default=9, metavar="N")
    p.add_argument("--margin", type=int, default=10, metavar="N", help="extra verification terms")

    p = add("qexp", _cmd_qexp, "expand a registered eta product")
    p.add_argument("--form", required=True, help="form name, e.g. 8/1 or f32")
    p.add_argument("--terms", type=int, default=50, metavar="N")

    p = add("count", _cmd_count, "count points of the double octic over a prime field")
    p.add_argument("--arrangement", type=int, help="catalog family id or recorded fibre id")
    p.add_argument("--parameter", help="family parameter value")
    p.add_argument("--octic", metavar="FILE", help="JSON octic: {\"planes\": [[..]x8]} or monomials")
    p.add_argument("--prime", type=int, required=True)

    p = add("verify-forms", _cmd_verify_forms, "compare eta expansions with the stored prime tables")

    p = add("verify-catalog", _cmd_verify_catalog, "recompute the catalog tables and labels")
    p.add_argument("--chains", action="store_true", help="also replay every reduction chain")

    p = add("reproduce", _cmd_reproduce, "replay a named reduction chain with intermediate tables")
    p.add_argument("chain", help="chain name; an unknown name lists the available ones")

    p = sub.add_parser("catalog", help="catalog resource operations")
    csub = p.add_subparsers(dest="subcommand", required=True, metavar="subcommand")
    d = csub.add_parser("dump", help="print the embedded catalog JSON")
    d.set_defaults(func=_cmd_catalog_dump)
    d.add_argument("--indent", type=int, default=1)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "count" and (args.arrangement is None) == (args.octic is None):
        parser.error("count needs exactly one of --arrangement or --octic")
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except UsageError as exc:
        print("pf: %s" % exc, file=sys.stderr)
        return 2
    except ChainBroken as exc:
        print("pf: %s" % exc, file=sys.stderr)
        return 1
    except ValueError as exc:
        # every analysis error in errors.py is a ValueError: bad input, not a crash
        print("pf: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # keep the interpreter's final stdout flush from reporting it again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
