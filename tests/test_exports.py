import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

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


def test_readme_quick_start_runs_as_written(capsys):
    # README's one python block, under the suite's warning filter, so that
    # a public-API change cannot leave it stale
    readme = Path(__file__).parents[1] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(readme), "exec"), {})
    rate, ess = map(float, capsys.readouterr().out.split())
    assert 0.0 < rate <= 1.0 and ess > 0.0
