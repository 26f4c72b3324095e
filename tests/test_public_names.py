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


# (module file, name): imported but unused, and why it stays
UNUSED_IMPORTS_KEPT = {
    # bench/tests/test_bench.py expects the tracer to find it in aybe.cli
    ("cli.py", "check_skew"),
}


def test_imports_are_used():
    """Every name a module imports, at module level or inside a function,
    is used somewhere in that module (an annotation counts), or listed in
    its __all__."""
    unused = []
    for path in sorted(Path(aybe.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, used, exported = set(), set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                exported.update(ast.literal_eval(node.value))
        unused += [(path.name, name) for name in sorted(imported - used - exported)]
    assert unused == sorted(UNUSED_IMPORTS_KEPT)
