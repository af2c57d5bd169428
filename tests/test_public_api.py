"""The package exports the union of its modules' ``__all__`` lists.

``circumproj/__init__.py`` star-imports each module, so a name listed by
two modules would be shadowed silently. The module ``circumcenter`` shares
its name with the function it exports, and the package must bind the
function. Factorizations that decide a rank, eigensolves and Cholesky
included, live in ``numerics`` and in the circumcenter step only. numpy
is the one import from outside the standard library. The numerical
thresholds are three constants of ``numerics``, not parameters.
Every public name has a caller outside the tests. The drivers and the rate
functions take the fixed set they target and compute none of their own.
"""

import ast
import importlib
import inspect
import re
import sys
import typing
from functools import cached_property
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


def _imported_top_level_modules(tree) -> set:
    """The top-level module of every absolute ``import`` and ``from ...
    import`` in a module, function bodies included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_numpy_is_the_only_runtime_dependency():
    package = Path(circumproj.__file__).parent
    allowed = set(sys.stdlib_module_names) | {"numpy", "circumproj"}
    for path in sorted(package.glob("*.py")):
        stray = _imported_top_level_modules(ast.parse(path.read_text())) - allowed
        assert not stray, f"{path.name} imports a runtime dependency: {sorted(stray)}"


def _exported_callables():
    """(name, object) of every exported function, class with its own
    constructor, and public method (classmethods and staticmethods
    included). An exception class that keeps the builtin constructor has no
    signature to read."""
    for name in circumproj.__all__:
        obj = getattr(circumproj, name)
        if inspect.isclass(obj):
            if inspect.isfunction(obj.__init__):
                yield f"{name}()", obj
            for attr, raw in vars(obj).items():
                if isinstance(raw, (classmethod, staticmethod)):
                    raw = raw.__func__
                if not attr.startswith("_") and inspect.isfunction(raw):
                    yield f"{name}.{attr}", raw
        elif inspect.isfunction(obj):
            yield name, obj


def _exported_signatures():
    for name, obj in _exported_callables():
        yield name, inspect.signature(obj)


def test_every_exported_annotation_resolves():
    """Every module defers its annotations, so a deleted name left in one
    still imports; evaluating each exported class's fields, constructor and
    public methods, and each exported function's, finds it."""
    exported = [getattr(circumproj, name) for name in circumproj.__all__]
    classes = [obj for obj in exported if inspect.isclass(obj)]
    targets = [*classes, *(cls.__init__ for cls in classes if inspect.isfunction(cls.__init__)),
               *(obj for _, obj in _exported_callables() if not inspect.isclass(obj))]
    unresolved = []
    for obj in targets:
        try:
            typing.get_type_hints(obj)
        except NameError as error:
            unresolved.append(f"{obj.__qualname__}: {error}")
    assert not unresolved


def test_no_exported_callable_takes_a_tolerance():
    with_tol = [name for name, sig in _exported_signatures() if "tol" in sig.parameters]
    assert not with_tol, f"thresholds are numerics constants, not parameters: {with_tol}"


def test_defaulted_parameters_do_not_grow():
    """Every defaulted parameter of the public API is an option a caller may
    set; a new one must be wanted, and this figure raised with it."""
    defaulted = [f"{name}:{p.name}" for name, sig in _exported_signatures()
                 for p in sig.parameters.values() if p.default is not inspect.Parameter.empty]
    assert len(defaulted) <= 10, defaulted


def test_numerics_exports_the_three_thresholds():
    numerics = importlib.import_module("circumproj.numerics")
    assert {"RANK_TOL", "CONSISTENCY_TOL", "EQ_TOL"} <= set(numerics.__all__)
    assert (numerics.RANK_TOL, numerics.CONSISTENCY_TOL, numerics.EQ_TOL) == (1e-10, 1e-8, 1e-10)


PACKAGE = Path(circumproj.__file__).parent


def test_no_comparison_reads_an_unnamed_threshold():
    """A float in (0, 1) that a comparison reads is a threshold, and a
    threshold is named once: RANK_TOL, CONSISTENCY_TOL, EQ_TOL or a module
    constant beside its reason."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                found += [f"{path.name}:{sub.lineno} {sub.value!r}" for sub in ast.walk(node)
                          if isinstance(sub, ast.Constant) and isinstance(sub.value, float)
                          and 0.0 < sub.value < 1.0]
    assert not found, found
REPO_ROOT = Path(__file__).resolve().parent.parent


def _public_members(cls):
    """The public methods and properties a class defines itself."""
    for attr, raw in vars(cls).items():
        if isinstance(raw, (classmethod, staticmethod)):
            raw = raw.__func__
        if not attr.startswith("_") and (inspect.isfunction(raw)
                                          or isinstance(raw, (property, cached_property))):
            yield attr


def _references(tree) -> tuple:
    """(names, attributes): each name loaded and each attribute read in
    ``tree``, except inside a definition of that same name, so that a
    definition never calls itself."""
    names, attributes = set(), set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and node.id not in enclosing:
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            attributes.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return names, attributes


def _readme_code_references() -> tuple:
    """(names, attributes) of the README's fenced code blocks, by their words."""
    text = (REPO_ROOT / "README.md").read_text()
    code = "\n".join(re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL))
    return set(re.findall(r"[A-Za-z_]\w*", code)), set(re.findall(r"\.([A-Za-z_]\w*)", code))


def test_every_public_name_has_a_caller():
    """Each exported name, and each public method or property of an exported
    class, is used by the package outside its own definition and
    ``__all__``, shown in a README code block, or used by the acceptance
    gate. A name that only other tests call is a second way to do one thing.
    A method counts as used where any attribute of its name is read."""
    names, attributes = _readme_code_references()
    for path in [*sorted(PACKAGE.glob("*.py")), REPO_ROOT / "tests" / "test_acceptance.py"]:
        more_names, more_attributes = _references(ast.parse(path.read_text()))
        names |= more_names
        attributes |= more_attributes
    uncalled = []
    for name in circumproj.__all__:
        if name not in names | attributes:
            uncalled.append(name)
        obj = getattr(circumproj, name)
        if inspect.isclass(obj):
            uncalled += [f"{name}.{attr}" for attr in _public_members(obj)
                         if attr not in attributes]
    assert not uncalled, f"public names that no program path calls: {uncalled}"


# The calls that decide a fixed set, the subspace solver beneath them included.
FIXED_SET_DECIDERS = {"intersect", "fixed_point_set", "_common_fixed_points", "solution_set"}


def test_drivers_and_rates_decide_no_fixed_set():
    """A fixed set is decided where the data enter: once per instance by
    ``intersect``, by ``fixed_point_set`` for one operator, or by an
    ``OperatorSet`` for its family. ``methods`` and ``rates`` only take it,
    and neither imports nor reads one of the calls that decide it."""
    for name in ("methods.py", "rates.py"):
        tree = ast.parse((PACKAGE / name).read_text())
        names, attributes = _references(tree)
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        found = (names | attributes | imported) & FIXED_SET_DECIDERS
        assert not found, f"{name} decides a fixed set through {sorted(found)}"


# The artifact format's names, which the writer in ``bench`` alone defines and reads.
FORMAT_NAMES = {"to_csv", "to_json_obj", "_rows_text", "_float_texts", "_json_texts",
                "_json_rows"}


def test_methods_and_rates_hold_no_artifact_format():
    """Traces and audits are math: ``methods`` and ``rates`` import no
    ``json`` and neither define nor read a name of the artifact format."""
    for name in ("methods.py", "rates.py"):
        tree = ast.parse((PACKAGE / name).read_text())
        names, attributes = _references(tree)
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        assert "json" not in _imported_top_level_modules(tree), f"{name} imports json"
        found = (names | attributes | defined | imported) & FORMAT_NAMES
        assert not found, f"{name} holds the artifact format through {sorted(found)}"
