"""The package exports the union of its modules' ``__all__`` lists.

``circumproj/__init__.py`` star-imports each module, so a name listed by
two modules would be shadowed silently. The module ``circumcenter`` shares
its name with the function it exports, and the package must bind the
function. Factorizations that decide a rank live in ``numerics`` and in the
circumcenter step only.
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


FACTORIZATIONS = {"svd", "qr", "lstsq", "pinv", "matrix_rank"}


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
    allowed = {("circumcenter.py", "circumcenter")}
    for path in sorted(package.glob("*.py")):
        if path.name == "numerics.py":
            continue
        sites = _factorization_sites(ast.parse(path.read_text()))
        stray = {site for site in sites if (path.name, site[0]) not in allowed}
        assert not stray, f"{path.name} factorizes outside numerics: {sorted(stray, key=str)}"
    sites = _factorization_sites(ast.parse((package / "circumcenter.py").read_text()))
    assert sites == {("circumcenter", "svd")}
