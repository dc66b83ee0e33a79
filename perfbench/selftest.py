"""Self-test of the benchmark harness; run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that
  * a real item recomputed now matches its reference digest;
  * a perturbed output (one coefficient changed, or one scalar's type
    changed with its value kept) trips the digest, and the runner counts the
    item as failed;
  * a worker of the program and one of the frozen reference copy both
    compute an item as recorded, over the protocol run.py uses;
  * the tracer reaches names that other modules imported, including the
    lazy `from .frobenius import has_logarithms` inside `riemann_symbol`;
  * run.py refuses, with a nonzero exit and no result line, in a directory
    that holds only BENCHMARK.json and perfbench/.
Exits 1 on the first failed check.
"""

import copy
import os
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(ROOT, "src"))

import digest  # noqa: E402
import run  # noqa: E402
import tracer as tracer_module  # noqa: E402
import workloads  # noqa: E402

EXACT = re.compile(r"-?\d+(/\d+)?")  # a rational as scalar_to_json writes it


def check(cond, what):
    print("%s  %s" % ("ok  " if cond else "FAIL", what))
    if not cond:
        sys.exit(1)


def _item(workload, key):
    w = workloads.WORKLOADS[workload]
    return workloads.run_item(w, key, w.setup([key]))


def _first_exact_path(x, path=()):
    """Path to the first exact scalar string in a canonical output."""
    if isinstance(x, str) and EXACT.fullmatch(x):
        return path
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for k, v in items:
        found = _first_exact_path(v, path + (k,))
        if found is not None:
            return found
    return None


def _get(x, path):
    for k in path:
        x = x[k]
    return x


def _set(x, path, value):
    for k in path[:-1]:
        x = x[k]
    x[path[-1]] = value


def test_digest():
    golden = digest.load_golden()["workloads"]
    rec = _item("local-solutions", "4@0")
    check(rec["ok"], "local-solutions 4@0 passes its own checks")
    good = digest.item_hash(rec["output"])
    check(good == golden["local-solutions"]["items"]["4@0"], "local-solutions 4@0 matches its reference digest")

    path = _first_exact_path(rec["output"])
    value = _get(rec["output"], path)
    bumped = copy.deepcopy(rec["output"])
    _set(bumped, path, str(Fraction(value) + 1))
    check(digest.item_hash(bumped) != good, "a coefficient changed by one trips the digest")
    retyped = copy.deepcopy(rec["output"])
    _set(retyped, path, {"a": value, "b": "0", "d": -3})
    check(digest.item_hash(retyped) != good, "the same value as a quadratic number trips the digest")

    rec = _item("reductions", "count:13")
    check(rec["ok"] and isinstance(rec["output"], int), "count of arrangement 69 at p=13 passes its own check")
    golden = digest.load_golden()
    items = [
        {"key": k, "s": 0.0, "ok": True, "error": None, "hash": h}
        for k, h in golden["workloads"]["reductions"]["items"].items()
    ]
    fake = {"ok": True, "items": {"program": items}}
    attempted, failures, _ = run._check_items("reductions", [fake], golden)
    check(attempted == len(items) and not failures, "the runner accepts the reference outputs")
    true_count = next(i for i in items if i["key"] == "count:13")
    check(true_count["hash"] == digest.item_hash(rec["output"]), "the count recomputed now matches its reference")
    true_count["hash"] = digest.item_hash(rec["output"] + 1)
    attempted, failures, _ = run._check_items("reductions", [fake], golden)
    check(
        attempted == len(items) and [f["key"] for f in failures] == ["count:13"],
        "the runner counts a perturbed point count as failed",
    )


def test_reference_worker():
    runner = run.Runner(time.monotonic() + 120)
    try:
        golden = digest.load_golden()["workloads"]["local-solutions"]["items"]
        for side in run.BOTH:
            worker = run.Worker(runner, side, "local-solutions", 1)
            check(worker.keys and "4@0" in worker.keys, "a %s worker lists the items of its pass" % side)
            rec = worker.item("4@0")
            check(worker.close() == {"end": True}, "and ends when its input ends")
            check(rec["ok"] and rec["hash"] == golden["4@0"], "the %s computes 4@0 as recorded" % side)
        check(not runner.live, "every worker has been waited for")
    finally:
        runner.kill_all()


def test_tracer_reach():
    from picardfuchs import Polynomial, ThetaOperator, catalog, frobenius, optheta

    tracer = tracer_module.Tracer().install()
    check(catalog.classify_point is frobenius.classify_point, "catalog's imported classify_point is the wrapper")
    tracer.start()
    # theta (theta - 1): exponents 0, 1 at t = 0, which only the log check can call genuine
    op = ThetaOperator.from_theta_polys([Polynomial([Fraction(0), Fraction(-1), Fraction(1)])])
    optheta.riemann_symbol(op)
    tracer.stop()
    names = [s[0] for s in tracer.spans]
    check("optheta.riemann_symbol" in names and "optheta.exponents_at" in names, "riemann_symbol and its callees are spanned")
    parents = {tracer.spans[s[1]][0] for s in tracer.spans if s[0] == "frobenius.local_basis" and s[1] >= 0}
    check(
        "optheta.riemann_symbol" in parents,
        "local_basis reached through riemann_symbol's lazy has_logarithms import is spanned under it",
    )
    check(tracer.raw_metrics()["arith.coeff_bits_max"] >= 1, "coefficient bits are read from the bases the tracer saw")
    self_ns = tracer.self_ns()
    total = sum(e - s for n, p, s, e in tracer.spans if p < 0)
    check(sum(self_ns.values()) == total, "self times add up to the root span times")


def test_bare_directory():
    bare = os.path.join(ROOT, ".perfbench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=60,
    )
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "run.py exits nonzero without the program's sources")
    check('"correct"' not in proc.stdout, "and prints no result")


if __name__ == "__main__":
    test_digest()
    test_reference_worker()
    test_tracer_reach()
    test_bare_directory()
    print("selftest: all checks passed")
