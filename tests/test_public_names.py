import importlib
import pkgutil

import pytest

import aybe

MODULES = ["aybe"] + [f"aybe.{info.name}" for info in pkgutil.iter_modules(aybe.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(name)
    assert [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)] == []
    exec(f"from {name} import *", {})
