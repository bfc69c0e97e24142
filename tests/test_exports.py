import importlib
import pkgutil

import pytest

import renewalrisk

MODULES = ["renewalrisk"] + [f"renewalrisk.{m.name}" for m in pkgutil.iter_modules(renewalrisk.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_and_all_names_exist(name):
    # a deleted name left in __all__ breaks `import *` for every user of the module
    module = importlib.import_module(name)
    assert module.__all__, name
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
