"""Every package name the benchmark harness in perfbench/ patches or imports still resolves.

The harness patches functions by (module, attribute) and imports names
directly, so a rename or deletion in the package would otherwise first show
as a failed benchmark run.  These checks only read perfbench/.
"""

import ast
import importlib
import importlib.util
import json
import pathlib

from picardfuchs.arith import Polynomial, QuadraticNumber

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spanned_functions_resolve():
    spanned = _load_tracer().SPANNED_FUNCTIONS
    assert spanned
    for _metric, module, attr in spanned:
        assert callable(getattr(importlib.import_module("picardfuchs." + module), attr, None)), (module, attr)
    assert callable(Polynomial.shift)


def test_counted_quadratic_operations_are_class_attributes():
    # the tracer counts arith.quadratic_ops by patching these names, and skips one the class lacks
    ops = _load_tracer().QUADRATIC_OPS
    assert ops
    for attr in ops:
        assert callable(vars(QuadraticNumber).get(attr)), attr


def test_workload_imports_resolve():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    names = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "picardfuchs"
        for alias in node.names
    ]
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), (module, name)


def test_tracer_finds_every_patched_module_after_the_cli_import(run_fresh):
    # a traced `pf` run imports picardfuchs.cli, then Tracer.install() imports these two and
    # reads sys.modules["picardfuchs." + module] for every spanned function
    code = (
        "import json, sys\n"
        "import picardfuchs.cli\n"
        "import picardfuchs\n"
        "from picardfuchs import arith, catalog\n"
        "print(json.dumps([sorted(sys.modules), type(vars(catalog).get('CHAINS')).__name__]))\n"
    )
    loaded, chains_type = json.loads(run_fresh(code))
    for _metric, module, _attr in _load_tracer().SPANNED_FUNCTIONS:
        assert "picardfuchs." + module in loaded, module
    assert chains_type == "dict"
