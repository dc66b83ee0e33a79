"""The three workloads: inputs from a seed, one item at a time, exact outputs.

Imported only inside a worker interpreter, after a `picardfuchs` package is
on the path: the program under test from `src`, or the frozen reference copy
in perfbench/reference.  A workload is a list of items named by string keys.
`items(seed)` gives the keys of one pass in seed order, `universe()` every key
any seed can produce (the reference digests cover all of them), `setup(keys)`
builds the inputs before the clock starts, `compute(key, inputs)` does the
item's work, and `judge(key, inputs, result)` turns the result into its exact
output in canonical JSON and says whether it passes the workload's own
mathematical checks.  `run_item` times one item with the judging off the
clock.
"""

import json
import os
import random
import time
import traceback
from fractions import Fraction

from commands import CLI_COMMANDS, cli_keys
from picardfuchs import (
    CATALOG,
    CHAINS,
    GuessConfig,
    TetraForm,
    conifold_expand,
    count_double_octic,
    guess_operator,
    reproduce_reduction,
    verify_annihilation,
)
from picardfuchs.arith import scalar_sort_key, scalar_to_json
from picardfuchs.catalog_data import TETRA_DEMO
from picardfuchs.frobenius import annihilation_order, local_basis
from picardfuchs.optheta import SingularPoint
from picardfuchs.qexp import FORMS, verify_form_table
from picardfuchs.transform import translate_to_origin

CLI_DEFAULT_BOX = GuessConfig(4, 9, 10)


def canon(x):
    """Exact output as JSON data; scalars keep their type (see digest.py)."""
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, dict):
        return {str(k): canon(v) for k, v in x.items()}
    if hasattr(x, "to_json"):
        return canon(x.to_json())
    return scalar_to_json(x)


def run_item(workload, key, inputs, tracer=None):
    """Compute one item; judge its output off the clock.

    Returns {key, s, output, ok, error}: s is the compute time, output the
    canonical exact output (None after an exception).
    """
    record = {"key": key, "s": None, "output": None, "ok": False, "error": None}
    if tracer:
        tracer.start()
    start = time.perf_counter_ns()
    try:
        result = workload.compute(key, inputs)
    except Exception:
        record["error"] = traceback.format_exc()
    record["s"] = (time.perf_counter_ns() - start) * 1e-9
    if tracer:
        tracer.stop()
    if record["error"] is None:
        try:
            record["output"], record["ok"] = workload.judge(key, inputs, result)
        except Exception:
            record["error"] = traceback.format_exc()
    return record


# ---------------------------------------------------------------------------
# local-solutions: one cold local_basis per printed point, then annihilation


def _distinct_arrangements():
    seen = []
    for aid in sorted(CATALOG):
        op = CATALOG[aid].operator
        if any(op == other for other in seen):
            continue  # 273 repeats 266
        seen.append(op)
        yield aid


def _point_key(aid, point, n):
    return "%d@%s" % (aid, point) if n is None else "%d@%s,N=%d" % (aid, point, n)


# every printed point of all 24 distinct operators takes 30-40 s a pass, more
# than a run can afford twice (once for the program, once for the reference);
# the operators with five or more printed points (243, 248, 250, 258, 266)
# are left out, except one of the two conjugate quadratic points of 266, the
# only quadratic points of the catalog.  At its default truncation that point
# alone takes 5 s, a single sample too large for a pass of 10 s to average
# out, so it is taken at N = 16, the smallest truncation it allows (1.2 s).
MAX_PRINTED_POINTS = 4
QUADRATIC_POINT = (266, "-1/4+1/4*sqrt(-3)", 16)


def _printed_points():
    """(arrangement, point, printed exponents, truncation or None for the default) of the points kept."""
    q_aid, q_point, q_n = QUADRATIC_POINT
    for aid in _distinct_arrangements():
        for p, exps in CATALOG[aid].symbol:
            if len(CATALOG[aid].symbol) <= MAX_PRINTED_POINTS:
                yield aid, p, exps, None
            elif (aid, str(p)) == (q_aid, q_point):
                yield aid, p, exps, q_n


class LocalSolutions:
    """Printed points of the distinct operators, each once, at default N but for the quadratic one."""

    name = "local-solutions"

    def universe(self):
        return [_point_key(aid, p, n) for aid, p, _exps, n in _printed_points()]

    def items(self, seed):
        keys = self.universe()
        random.Random(seed).shuffle(keys)
        return keys

    def setup(self, keys):
        points = {
            _point_key(aid, p, n): (CATALOG[aid].operator, p, exps, n) for aid, p, exps, n in _printed_points()
        }
        return {key: points[key] for key in keys}

    def compute(self, key, inputs):
        op, point, _exps, n = inputs[key]
        basis = local_basis(op, point, n)
        return basis, [annihilation_order(op, point, sol) for sol in basis.solutions]

    def judge(self, key, inputs, result):
        _op, _point, printed, _n = inputs[key]
        basis, orders = result
        exps = basis.exponents()
        ok = exps == sorted(printed, key=scalar_sort_key)
        r = basis.local_op.r
        ok = ok and all(o == sol.truncation - r for o, sol in zip(orders, basis.solutions))
        output = {
            "exponents": canon(exps),
            "solutions": [
                {"alpha": canon(s.alpha), "truncation": s.truncation, "table": canon(s.table)}
                for s in basis.solutions
            ],
            "orders": orders,
        }
        return output, ok


# ---------------------------------------------------------------------------
# reductions: the toolkit outside Frobenius

# guessed operators, one from each of four cost groups of the catalog:
# (4, 13), (34, 72, 261, 264, 270), (33, 35, 70), (97, 152, 198)
GUESSED = (4, 72, 35, 97)
# primes for arrangement 69; a count costs time and memory in proportion to p^3
PRIMES = (13, 43, 73)
# arrangement 69 is the fibre of family 250 at parameter 0
FIBRE_69 = (250, Fraction(0))
ETA_FORMS = tuple(sorted(name for name, rec in FORMS.items() if rec.eta is not None))
# one expansion, at 40 terms: at 50 it alone took a quarter of the pass, and a
# second, smaller one put the item percentiles on the gap between task sizes
CONIFOLD_TERMS = (40,)


class Reductions:
    """The same 24 tasks in every pass; the seed orders them within each kind.

    A seed that picked different tasks would move the pass time and the item
    percentiles by the choice alone.
    """

    name = "reductions"

    def _kinds(self):
        return [
            ["chain:%s" % name for name in CHAINS],
            ["guess:%d" % aid for aid in GUESSED],
            ["forms:%s" % name for name in ETA_FORMS],
            ["conifold:%d" % n for n in CONIFOLD_TERMS],
            ["count:%d" % p for p in PRIMES],
        ]

    def universe(self):
        return [key for kind in self._kinds() for key in kind]

    def items(self, seed):
        """Task kinds in a fixed order, tasks shuffled within each kind.

        A fixed kind order keeps what a task leaves behind (the integral
        cache of conifold_expand, the heap after a large point count) the same
        for every seed, so later tasks run under the same conditions.
        """
        rng = random.Random(seed)
        keys = []
        for kind in self._kinds():
            rng.shuffle(kind)
            keys += kind
        return keys

    def setup(self, keys):
        inputs = {}
        for key in keys:
            kind, arg = key.split(":", 1)
            if kind == "conifold":
                form = TetraForm.from_planes(TETRA_DEMO["planes"], truncation=int(arg))
                op = translate_to_origin(CATALOG[TETRA_DEMO["arrangement"]].operator, TETRA_DEMO["base_point"])
                inputs[key] = (form, op)
            elif kind == "guess":
                inputs[key] = holomorphic_series(CATALOG[int(arg)].operator, CLI_DEFAULT_BOX.required_terms())
            elif kind == "count":
                family, parameter = FIBRE_69
                inputs[key] = [tuple(c(parameter) for c in plane) for plane in CATALOG[family].octic]
        return inputs

    def compute(self, key, inputs):
        kind, arg = key.split(":", 1)
        if kind == "chain":
            return reproduce_reduction(arg)
        if kind == "conifold":
            form, op = inputs[key]
            ps = conifold_expand(form)
            return ps, op, verify_annihilation(op, ps)
        if kind == "guess":
            return guess_operator(inputs[key], CLI_DEFAULT_BOX)
        if kind == "forms":
            return verify_form_table(arg)
        return count_double_octic(inputs[key], int(arg))

    def judge(self, key, inputs, result):
        kind, arg = key.split(":", 1)
        if kind == "chain":
            steps = [[s.description, canon(s.operator)] for s in result.steps]
            return {"ok": result.ok, "target": result.target, "steps": steps}, result.ok
        if kind == "conifold":
            ps, op, order = result
            return {"series": canon(ps), "order": order}, order == ps.truncation + 1 - op.r
        if kind == "guess":
            want = CATALOG[int(arg)].operator
            ok = result is not None and result.normalized() == want.normalized()
            return canon(result), ok
        if kind == "forms":
            return canon(result), result.passed
        return result, isinstance(result, int)


def holomorphic_series(op, terms):
    """The power series solution at 0 with constant term 1, `terms` coefficients."""
    basis = local_basis(op, SingularPoint(0), terms - 1)
    sol = next(s for s in basis.solutions if s.alpha == 0 and s.is_log_free() and s.coeff(0, 0) == 1)
    return sol.power_coeffs()


# ---------------------------------------------------------------------------
# cli: single `pf` commands, one fresh process each


CLI_INPUTS = {
    "op4.json": lambda: CATALOG[4].operator.to_json(),
    "op33.json": lambda: CATALOG[33].operator.to_json(),
    "op98.json": lambda: CATALOG[98].operator.to_json(),
    "series4.json": lambda: [str(c) for c in holomorphic_series(CATALOG[4].operator, CLI_DEFAULT_BOX.required_terms())],
    "tetra.json": lambda: TetraForm.from_planes(TETRA_DEMO["planes"], truncation=20).to_json(),
}


class Cli:
    """Commands run by the runner; the worker only writes their input files."""

    name = "cli"

    def universe(self):
        return sorted(CLI_COMMANDS)

    def items(self, seed):
        return cli_keys(seed)

    def setup(self, keys, directory):
        os.makedirs(directory, exist_ok=True)
        for name, build in CLI_INPUTS.items():
            with open(os.path.join(directory, name), "w") as fh:
                json.dump(build(), fh)
                fh.write("\n")
        return directory


WORKLOADS = {w.name: w for w in (LocalSolutions(), Reductions(), Cli())}
