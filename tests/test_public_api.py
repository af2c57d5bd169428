"""The package exports the union of its modules' ``__all__`` lists.

``circumproj/__init__.py`` star-imports each module, so a name listed by
two modules would be shadowed silently. The module ``circumcenter`` shares
its name with the function it exports, and the package must bind the
function.
"""

import importlib
import inspect

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
