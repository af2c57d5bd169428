"""The package exports the union of its modules' ``__all__`` lists.

``circumproj/__init__.py`` star-imports each module, so a name listed by
two modules would be shadowed silently. The module ``circumcenter`` shares
its name with the function it exports, and the package must bind the
function. Factorizations that decide a rank, eigensolves and Cholesky
included, live in ``numerics`` and in the circumcenter step only. The
numerical thresholds are three constants of ``numerics``, not parameters.
"""

import ast
import importlib
import inspect
from pathlib import Path

import circumproj

MODULES = ("numerics", "subspace", "isometry", "circumcenter", "methods", "rates", "bench")


def _module_all(name: str) -> list:
    return list(importlib.import_module(f"circumproj.{name}").__all__)


def test_no_name_is_exported_by_two_modules():
    owners = {}
    for module in MODULES:
        for name in _module_all(module):
            assert name not in owners, f"{name} is exported by {owners[name]} and {module}"
            owners[name] = module
    assert sorted(circumproj.__all__) == sorted(["__version__", *owners])


def test_every_exported_name_resolves_to_its_module_object():
    for module in MODULES:
        source = importlib.import_module(f"circumproj.{module}")
        for name in _module_all(module):
            assert getattr(circumproj, name) is getattr(source, name), name


def test_circumcenter_is_the_function_not_the_module():
    assert inspect.isfunction(circumproj.circumcenter)
    from circumproj import circumcenter

    assert circumcenter is circumproj.circumcenter
    assert inspect.ismodule(importlib.import_module("circumproj.circumcenter"))


FACTORIZATIONS = {"svd", "qr", "lstsq", "pinv", "matrix_rank",
                  "eigvalsh", "eigh", "eig", "eigvals", "cholesky"}


def _factorization_sites(tree) -> set:
    """(function name or None, factorization) for each ``np.linalg.<name>``
    or ``numpy.linalg`` import in a module, by innermost enclosing function."""
    sites = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Attribute) and node.attr in FACTORIZATIONS
                and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
            sites.add((function, node.attr))
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            sites.update((function, alias.name) for alias in node.names
                         if alias.name in FACTORIZATIONS)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return sites


def test_rank_deciding_factorizations_live_in_numerics_and_the_circumcenter():
    package = Path(circumproj.__file__).parent
    allowed = {("circumcenter.py", "_solve")}
    for path in sorted(package.glob("*.py")):
        if path.name == "numerics.py":
            continue
        sites = _factorization_sites(ast.parse(path.read_text()))
        stray = {site for site in sites if (path.name, site[0]) not in allowed}
        assert not stray, f"{path.name} factorizes outside numerics: {sorted(stray, key=str)}"
    sites = _factorization_sites(ast.parse((package / "circumcenter.py").read_text()))
    assert sites == {("_solve", "svd")}


def _exported_signatures():
    """(name, signature) of every exported function, constructor and public
    method (classmethods and staticmethods included). An exception class
    that keeps the builtin constructor has no signature to read."""
    for name in circumproj.__all__:
        obj = getattr(circumproj, name)
        if inspect.isclass(obj):
            if inspect.isfunction(obj.__init__):
                yield f"{name}()", inspect.signature(obj)
            for attr, raw in vars(obj).items():
                if isinstance(raw, (classmethod, staticmethod)):
                    raw = raw.__func__
                if not attr.startswith("_") and inspect.isfunction(raw):
                    yield f"{name}.{attr}", inspect.signature(raw)
        elif inspect.isfunction(obj):
            yield name, inspect.signature(obj)


def test_no_exported_callable_takes_a_tolerance():
    with_tol = [name for name, sig in _exported_signatures() if "tol" in sig.parameters]
    assert not with_tol, f"thresholds are numerics constants, not parameters: {with_tol}"


def test_defaulted_parameters_do_not_grow():
    """Every defaulted parameter of the public API is an option a caller may
    set; a new one must be wanted, and this figure raised with it."""
    defaulted = [f"{name}:{p.name}" for name, sig in _exported_signatures()
                 for p in sig.parameters.values() if p.default is not inspect.Parameter.empty]
    assert len(defaulted) <= 25, defaulted


def test_numerics_exports_the_three_thresholds():
    numerics = importlib.import_module("circumproj.numerics")
    assert {"RANK_TOL", "CONSISTENCY_TOL", "EQ_TOL"} <= set(numerics.__all__)
    assert (numerics.RANK_TOL, numerics.CONSISTENCY_TOL, numerics.EQ_TOL) == (1e-10, 1e-8, 1e-10)
