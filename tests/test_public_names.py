import ast
import importlib
import pkgutil
import re
import subprocess
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


def test_imports_are_used():
    """Every name a module imports, at module level or inside a function,
    is used somewhere in that module (an annotation counts), or listed in
    its __all__ when that is a literal list."""
    unused = []
    for path in sorted(Path(aybe.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, used, exported = set(), set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif (
                isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                and isinstance(node.value, ast.List)
            ):
                exported.update(ast.literal_eval(node.value))
        unused += [(path.name, name) for name in sorted(imported - used - exported)]
    assert unused == []


def test_package_never_calls_the_tensor_constructor():
    """Tensor4(n, entries) is the checked front door for input from outside
    the package; every tensor a module builds goes through tensor._checked,
    so no module in the package calls Tensor4(...)."""
    calls = []
    for path in sorted(Path(aybe.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Tensor4":
                calls.append((path.name, node.lineno))
    assert calls == []


def test_public_names_have_a_use():
    """Every name in a module's literal __all__ is read somewhere in the
    package outside its own definition (an annotation counts), or named in
    the README."""
    package = Path(aybe.__file__).parent
    readme = (package.parent.parent / "README.md").read_text(encoding="utf-8")
    used, public = set(), []
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            nodes = list(ast.walk(stmt))
            read = {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            read |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
            used |= read - {getattr(stmt, "name", None)}
            if (
                isinstance(stmt, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in stmt.targets)
                and isinstance(stmt.value, ast.List)
            ):
                public += [(path.name, name) for name in ast.literal_eval(stmt.value)]
    unused = [(module, name) for module, name in public
              if name not in used and not re.search(rf"\b{name}\b", readme)]
    assert unused == []


def test_private_functions_have_a_caller():
    """Every module-level function whose name starts with one "_" is read
    somewhere in the package outside its own definition, so no helper
    outlives its last caller. Dunder hooks (a module's __getattr__) are
    called by Python itself and are left out."""
    used, private = set(), []
    for path in sorted(Path(aybe.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            nodes = list(ast.walk(stmt))
            read = {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            read |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
            used |= read - {getattr(stmt, "name", None)}
            if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_") and not stmt.name.startswith("__"):
                private.append((path.name, stmt.name))
    assert private
    assert [(module, name) for module, name in private if name not in used] == []


def test_package_loads_a_module_on_first_use():
    """`import aybe` loads no module of the package, yet lifts the int/str
    digit limit; `import aybe.tensor` loads only what tensor imports."""
    src = str(Path(aybe.__file__).parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import aybe; "
            "print(sorted(m for m in sys.modules if m.startswith('aybe')), sys.get_int_max_str_digits()); "
            "import aybe.tensor; print(sorted(m for m in sys.modules if m.startswith('aybe')))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['aybe'] 0\n['aybe', 'aybe.exactlin', 'aybe.tensor']\n"


@pytest.mark.parametrize("name", aybe.__all__)
def test_package_name_is_its_module_name(name):
    value = getattr(aybe, name)
    module = sys.modules[value.__module__]
    assert value is getattr(module, name) and name in module.__all__


def test_package_resolves_names_on_every_access(monkeypatch):
    assert set(aybe.__all__) <= set(dir(aybe))
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        aybe.nope

    def patched(r):
        return []

    monkeypatch.setattr(importlib.import_module("aybe.tensor"), "check_skew", patched)
    assert aybe.check_skew is patched
