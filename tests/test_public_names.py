import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import aybe

MODULES = ["aybe"] + [f"aybe.{info.name}" for info in pkgutil.iter_modules(aybe.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(name)
    assert [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)] == []
    exec(f"from {name} import *", {})


def test_runtime_imports_are_standard_library():
    # the README promises "Runtime dependencies: none"
    outside = []
    for path in sorted(Path(aybe.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            outside += [(path.name, top) for top in tops if top != "aybe" and top not in sys.stdlib_module_names]
    assert outside == []
