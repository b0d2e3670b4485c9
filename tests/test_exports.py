import ast
import importlib
import inspect
import pkgutil

import pytest

import tangentmh

MODULES = sorted(m.name for m in pkgutil.iter_modules(tangentmh.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(f"tangentmh.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_package_reexports_public_names():
    # every name the package imports from a module is that module's own,
    # listed in its __all__
    for node in ast.parse(inspect.getsource(tangentmh)).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"tangentmh.{node.module}")
            for alias in node.names:
                assert alias.name in module.__all__, (node.module, alias.name)
                assert getattr(tangentmh, alias.name) is getattr(module, alias.name)
