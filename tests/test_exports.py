"""The export contract of the package: the names of `__all__`, resolved on first access."""

import ast
import importlib
import pathlib
import sys

import pytest

import picardfuchs

# defining submodule -> exported names, in the order of __all__
EXPORTS = {
    "arith": ["Polynomial", "PowerSeries", "QuadraticNumber", "RationalFunction"],
    "catalog": [
        "CATALOG",
        "CHAINS",
        "DERIVED_OPERATORS",
        "ArrangementRecord",
        "DerivedOperatorRecord",
        "dump_catalog",
        "load_catalog",
        "reproduce_reduction",
        "verify_catalog",
    ],
    "frobenius": ["PointType", "classify_point", "local_basis"],
    "guess": ["GuessConfig", "guess_operator", "recurrence_from_operator"],
    "optheta": [
        "INFINITY",
        "DOperator",
        "RiemannSymbol",
        "SingularPoint",
        "ThetaOperator",
        "fuchs_defect",
        "riemann_symbol",
    ],
    "period": ["PeriodSeries", "TetraForm", "conifold_expand", "verify_annihilation"],
    "qexp": ["FORMS", "count_double_octic", "eta_product", "verify_form_table"],
    "transform": ["MobiusMap", "descend_quadratic", "mobius", "pullback_power", "shift_exponents", "yukawa"],
}
DEFINED_IN = {name: module for module, names in EXPORTS.items() for name in names}
SRC = pathlib.Path(picardfuchs.__file__).parent


def test_all_is_unchanged():
    assert picardfuchs.__all__ == list(DEFINED_IN)


@pytest.mark.parametrize("name", list(DEFINED_IN))
def test_export_is_the_defining_object(name):
    defined = getattr(importlib.import_module("picardfuchs." + DEFINED_IN[name]), name)
    assert picardfuchs.__getattr__(name) is defined  # the first-access path, cached or not
    assert getattr(picardfuchs, name) is defined


def test_star_import_binds_the_defining_objects():
    scope = {}
    exec("from picardfuchs import *", scope)
    del scope["__builtins__"]
    assert sorted(scope) == sorted(DEFINED_IN)
    for name, value in scope.items():
        assert value is getattr(sys.modules["picardfuchs." + DEFINED_IN[name]], name), name


def test_dir_lists_every_export():
    assert set(DEFINED_IN) <= set(dir(picardfuchs))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'picardfuchs' has no attribute 'no_such_name'$"):
        picardfuchs.no_such_name


def test_submodules_still_import_by_name(run_fresh):
    # in a new interpreter, so that neither submodule is loaded before the import
    code = (
        "import sys\n"
        "from picardfuchs import optheta, cli\n"
        "print(optheta is sys.modules['picardfuchs.optheta'], cli is sys.modules['picardfuchs.cli'])\n"
    )
    assert run_fresh(code).split() == ["True", "True"]


def _defined_functions(public):
    """Names of the functions and methods defined in the package, public or private; dunders left out."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.endswith("__"):
                if node.name.startswith("_") != public:
                    out.add(node.name)
    return out


def _named(paths):
    """Every name and attribute name that the files use."""
    named = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return named


def test_every_private_function_is_used():
    # no dead code: a private function or method that nothing in the package
    # names again can be deleted; tests do not count as users
    assert sorted(_defined_functions(public=False) - _named(SRC.glob("*.py"))) == []


def test_every_public_function_is_used():
    # a public function or method that nothing in the package, the tests or
    # the benchmark names is dead too; the benchmark's frozen copy of an
    # older package (perfbench/reference) does not count
    root = pathlib.Path(__file__).resolve().parents[1]
    users = [*SRC.glob("*.py"), *(root / "tests").rglob("*.py")]
    users += [path for path in (root / "perfbench").rglob("*.py") if not path.is_relative_to(root / "perfbench" / "reference")]
    assert sorted(_defined_functions(public=True) - _named(users)) == []


def test_package_has_no_global_statement():
    # module state would make a result depend on the calls before it
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Global)
    ]
    assert found == []


def _unread_imports(source):
    """(line, name) of each import in `source`, at module or function level, binding a name the module never reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [
        (node.lineno, name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
        for name in [alias.asname or alias.name.partition(".")[0]]
        if name not in read
    ]


def test_package_imports_only_what_it_reads():
    # no dead code: an import whose name is never read is left over from a
    # removed body
    sample = "import math, os.path as p\nfrom x import y, z\ndef f():\n    from w import v\n    return y(p)\n"
    assert _unread_imports(sample) == [(1, "math"), (2, "z"), (4, "v")]
    found = ["%s:%d %s" % (path.name, line, name) for path in sorted(SRC.glob("*.py")) for line, name in _unread_imports(path.read_text())]
    assert found == []


# module -> the package modules it imports at module level, each after all it
# imports: errors <- arith <- optheta <- frobenius, transform, guess, period;
# qexp and catalog_data <- catalog; cli on top (its other imports are in its
# commands, so each command loads only what it runs)
LAYERS = {
    "__init__": set(),
    "errors": set(),
    "arith": {"errors"},
    "optheta": {"arith", "errors"},
    "frobenius": {"arith", "errors", "optheta"},
    "transform": {"arith", "errors", "optheta"},
    "guess": {"arith", "errors", "optheta"},
    "period": {"arith", "errors", "optheta"},
    "qexp": {"arith", "errors"},
    "catalog_data": {"arith", "optheta"},
    "catalog": {"arith", "catalog_data", "errors", "frobenius", "optheta", "qexp", "transform"},
    "cli": {"arith", "errors", "guess", "period"},
}
# the one function-level import outside cli's commands: riemann_symbol's log
# check reaches up to frobenius.local_basis.  A closed form on P_0's rows
# would decide it with no basis (the FOUND line on log-free points at
# exponents 0 .. n-1 in CHANGES.md, and ROADMAP item 1)
LAZY = {("optheta", "riemann_symbol", "frobenius")}


def _package_imports(node):
    """The package modules a relative import statement names, or () for any other statement."""
    if not isinstance(node, ast.ImportFrom) or not node.level:
        return ()
    return [node.module] if node.module else [alias.name for alias in node.names]


def test_package_layers_form_the_pinned_dag():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert set(modules) == set(LAYERS)
    edges = {name: {m for node in tree.body for m in _package_imports(node)} for name, tree in modules.items()}
    assert edges == LAYERS
    order = list(LAYERS)
    assert all(order.index(dep) < order.index(name) for name, deps in LAYERS.items() for dep in deps)
    lazy = {
        (name, func.name, m)
        for name, tree in modules.items()
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        for m in _package_imports(node)
    }
    assert {entry for entry in lazy if entry[0] != "cli"} == LAZY
    # cli's are in its top-level command functions and reach any module but itself
    cli_funcs = {node.name for node in modules["cli"].body if isinstance(node, ast.FunctionDef)}
    assert {(func, m) for name, func, m in lazy if name == "cli"} <= {(f, m) for f in cli_funcs for m in LAYERS if m != "cli"}
